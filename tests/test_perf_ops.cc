// Operation-count regression guards for the forest hot paths (`perf` label).
//
// Wall-clock thresholds are hopeless on shared CI machines, so the budgets
// are algorithmic: OpStats counters for a fixed, deterministic Fig.-4 style
// workload (rotcubes, fractal refinement of children 0/3/5/6) must stay
// within 1.5x of the values recorded when the single-pass Balance and the
// batched Nodes protocol landed. A counter blowing its budget means an
// algorithmic regression (extra ripple iterations, lost pruning, chattier
// resolution), not a slow machine. Structural invariants are pinned exactly:
// the single-pass Balance performs one alltoallv exchange per rank, and the
// batched Nodes protocol settles in at most two request rounds per rank.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>

#include "forest/delta.h"
#include "forest/ghost.h"
#include "forest/nodes.h"
#include "forest/stats.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

constexpr int kRanks = 4;
constexpr int kDepth = 5;

/// Runs the workload and returns the op counters summed over ranks.
OpStats run_workload() {
  OpStats total;
  par::run(kRanks, [&](par::Comm& c) {
    op_stats().reset();
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int l = 1; l < kDepth; ++l) {
      f.refine(l + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    f.partition();
    f.balance();
    const auto g = GhostLayer<3>::build(f);
    NodeNumbering<3>::build(f, g);
    const OpStats sum = op_stats_total(c);
    if (c.rank() == 0) total = sum;
  });
  return total;
}

/// Budget check: actual must not exceed 1.5x the recorded value, and must not
/// drop below 1/1.5 of it either (a collapse means the counter — or the work
/// it measures — was accidentally disabled, which would mask regressions).
void expect_within(const char* name, std::int64_t actual, std::int64_t budget) {
  std::printf("  %-28s %10lld (budget %lld)\n", name, static_cast<long long>(actual),
              static_cast<long long>(budget));
  EXPECT_LE(actual, budget + budget / 2) << name << " exceeds 1.5x budget";
  EXPECT_GE(actual, (2 * budget) / 3) << name << " fell below 2/3 of budget";
}

}  // namespace

TEST(PerfOps, Fig4WorkloadStaysWithinOpBudgets) {
  const OpStats ops = run_workload();

  // Structural invariants of the rewrites (exact, not budgeted).
  EXPECT_EQ(ops.balance_exchange_rounds, kRanks) << "single-pass Balance must do "
                                                    "exactly one exchange per rank";
  EXPECT_LE(ops.nodes_rounds, 2 * kRanks) << "batched Nodes must settle in <= 2 "
                                             "rounds per rank";
  EXPECT_GT(ops.balance_leaves_created, 0);
  EXPECT_GT(ops.ghost_interior_skipped, 0);

  // Volume budgets recorded for kRanks=4, kDepth=5 on the rotcubes fractal.
  expect_within("balance_merge_passes", ops.balance_merge_passes, 101);
  expect_within("balance_seed_octants", ops.balance_seed_octants, 132269);
  expect_within("balance_closure_kept", ops.balance_closure_kept, 10109);
  expect_within("balance_octants_sent", ops.balance_octants_sent, 3493);
  expect_within("balance_leaves_created", ops.balance_leaves_created, 14119);
  expect_within("nodes_requests_sent", ops.nodes_requests_sent, 1435);
  // Tree-boundary corners and routed keys only: the corner iterator hands
  // every tree-interior corner its leaves (per-corner lookups made 373,612).
  expect_within("nodes_leaf_lookups", ops.nodes_leaf_lookups, 49580);
  expect_within("ghost_octants_sent", ops.ghost_octants_sent, 3826);
  expect_within("ghost_interior_skipped", ops.ghost_interior_skipped, 20472);
}

// O(|delta|) budget for the incremental adapt pipeline: at ~1%
// per-step churn the delta balance must seed from the delta closure (not
// rescan every family) and the node patch must reuse all but a delta-sized
// sliver of the cached numbering. The counters are summed over 10 steps of a
// slowly moving refinement front; budgets are the values recorded when the
// incremental pipeline landed, same 1.5x tolerance as above.
TEST(PerfOps, IncrementalAdaptStaysDeltaProportional) {
  OpStats total;
  std::int64_t elements = 0;
  par::run(kRanks, [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    constexpr int base = 3;
    constexpr int steps = 10;
    const double root = static_cast<double>(Octant<3>::root_len);
    const double radius = 1.6 * static_cast<double>(Octant<3>::root_len >> base);
    const auto front = [&](int s) {
      const double fx = 0.2 + 0.02 * static_cast<double>(s) / steps;
      return std::array<double, 3>{fx * root, 0.35 * root, 0.55 * root};
    };
    const auto dist = [&](const Octant<3>& o, const std::array<double, 3>& ctr) {
      const double half = 0.5 * static_cast<double>(o.size());
      const double dx = (static_cast<double>(o.x) + half) - ctr[0];
      const double dy = (static_cast<double>(o.y) + half) - ctr[1];
      const double dz = (static_cast<double>(o.z) + half) - ctr[2];
      return std::sqrt(dx * dx + dy * dy + dz * dz);
    };
    auto f = Forest<3>::new_uniform(c, &conn, base);
    f.partition();
    for (int w = 0; w < 2; ++w) {
      f.refine(base + 2, false, [&](int t, const Octant<3>& o) {
        return t == 0 && o.level <= base + 1 && dist(o, front(0)) < radius;
      });
      f.balance();
    }
    GhostScanCache<3> gc;
    auto g = GhostLayer<3>::build_cached(f, gc);
    NodesCache<3> nc;
    {
      DeltaSet<3> d0(f.num_trees());
      NodeNumbering<3>::build_incremental(f, g, d0, nc);
    }
    op_stats().reset();
    for (int s = 1; s <= steps; ++s) {
      DeltaSet<3> delta(f.num_trees());
      f.refine(base + 2, false, [&](int t, const Octant<3>& o) {
        return t == 0 && o.level <= base + 1 && dist(o, front(s)) < radius;
      }, &delta);
      f.coarsen(false, [&](int t, const Octant<3>& o) {
        return t == 0 && o.level > base && dist(o, front(s)) > 2.2 * radius;
      }, &delta);
      f.balance_incremental(delta);
      g = GhostLayer<3>::build_incremental(f, g, gc);
      NodeNumbering<3>::build_incremental(f, g, delta, nc);
    }
    const OpStats sum = op_stats_total(c);
    if (c.rank() == 0) {
      total = sum;
      elements = f.num_global();
    }
  });
  std::printf("  incremental adapt over %lld elements:\n", static_cast<long long>(elements));

  // The pipeline must actually have taken the incremental path.
  EXPECT_GT(total.delta_octants, 0);
  EXPECT_GT(total.nodes_reused, 0);
  // O(|delta|), not O(N): the patched sliver stays a small fraction of the
  // reused bulk (at ~1% churn the invalidated closure is a few percent).
  EXPECT_LE(total.nodes_patched * 10, total.nodes_reused)
      << "node patch invalidates more than ~10% of the cached table per step";
  // Delta-driven seeding must not degenerate into the full family rescan:
  // ten FULL balances of this mesh would seed ~150k insulation octants
  // (every local family, every call) and keep hundreds of boundary
  // constraints; the delta path's totals stay ~3x under that, dominated by
  // the coarse-level cascade around each tiny seed set.
  expect_within("delta_octants", total.delta_octants, 26);
  expect_within("balance_seed_octants", total.balance_seed_octants, 54604);
  expect_within("balance_closure_kept", total.balance_closure_kept, 3);
  expect_within("nodes_patched", total.nodes_patched, 1397);
  expect_within("nodes_reused", total.nodes_reused, 44968);
}

// Zero-copy budget for the async runtime: a steady-state ring of
// adopt + isend / irecv + in-place view must move payload bytes through the
// runtime without a single copy — the sender's vector storage is adopted at
// post, the receiver reads (and finally takes) the same storage. BufferStats
// is process-wide, so the budget is a delta across exactly this workload.
TEST(PerfOps, AsyncRingExchangeStaysZeroCopy) {
  constexpr int iters = 8;
  constexpr std::size_t n = 256;
  par::buffer_stats_reset();
  par::run(kRanks, [&](par::Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int it = 0; it < iters; ++it) {
      // Byte-backed payload: adopt at the sender, view in place at the
      // receiver, take_bytes moves the storage back out — the only fully
      // copy-free round trip (typed adoptions are zero-copy to send and view
      // but type-erased, so a take would have to copy).
      std::vector<std::byte> buf(n);
      for (std::size_t j = 0; j < n; ++j) {
        buf[j] = static_cast<std::byte>(c.rank() + static_cast<int>(j) + it);
      }
      par::Request rr = c.irecv(prev, 42);
      par::Request rs = c.isend(next, 42, std::move(buf));  // storage adopted
      rr.wait();
      const auto v = rr.message().view<std::byte>();  // read in place, no copy
      ASSERT_EQ(v.size(), n);
      EXPECT_EQ(v[1], static_cast<std::byte>(prev + 1 + it));
      rs.wait();  // my held payload reference is released
      // After the barrier every sender has released its reference, so the
      // receiver holds the storage exclusively and take_bytes moves it out.
      c.barrier();
      const auto bytes = rr.message().take_bytes();
      EXPECT_EQ(bytes.size(), n);
    }
  });
  const auto bs = par::buffer_stats();
  std::printf("  async ring: payloads=%lld adoptions=%lld copies=%lld zero_copy_takes=%lld\n",
              static_cast<long long>(bs.payloads), static_cast<long long>(bs.adoptions),
              static_cast<long long>(bs.copies), static_cast<long long>(bs.zero_copy_takes));
  EXPECT_EQ(bs.copies, 0) << "async ring performed a payload copy";
  EXPECT_EQ(bs.bytes_copied, 0);
  EXPECT_GE(bs.adoptions, static_cast<std::int64_t>(kRanks) * iters);
  EXPECT_GE(bs.zero_copy_takes, static_cast<std::int64_t>(kRanks) * iters);
}
