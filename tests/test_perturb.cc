// Stress / determinism tests for Comm v2 fault injection, plus the deadlock
// -diagnostic timeouts.
//
// The full AMR pipeline (refine -> balance -> partition -> ghost -> nodes) is
// run under several deterministic perturbation seeds — randomized delivery
// delays and per-rank slowdowns that reshuffle thread interleavings without
// breaking per-pair message order — and the resulting forests, ghost layers,
// and node numberings must be bit-identical to the unperturbed run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "forest/ghost.h"
#include "forest/nodes.h"
#include "par/inject.h"
#include "resil/supervisor.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

/// Partition-independent pseudo-random refinement marker.
template <int Dim>
bool marked(int tree, const Octant<Dim>& o) {
  std::uint64_t h = o.key() ^ (static_cast<std::uint64_t>(tree) * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h % 3 != 0;
}

/// Everything the pipeline produced on one rank, serialized for comparison.
struct RankFingerprint {
  std::uint64_t forest_checksum = 0;
  std::vector<std::int64_t> words;

  bool operator==(const RankFingerprint&) const = default;
};

template <int Dim>
RankFingerprint run_pipeline(par::Comm& comm, const Connectivity<Dim>& conn) {
  auto f = Forest<Dim>::new_uniform(comm, &conn, 1);
  f.refine(3, true, [](int t, const Octant<Dim>& o) { return marked<Dim>(t, o); });
  f.balance();
  f.partition();
  const auto g = GhostLayer<Dim>::build(f);
  const auto n = NodeNumbering<Dim>::build(f, g);

  RankFingerprint fp;
  fp.forest_checksum = f.checksum();
  auto& w = fp.words;
  w.push_back(f.num_global());
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    w.push_back(t);
    w.push_back(static_cast<std::int64_t>(o.key()));
    w.push_back(o.level);
  });
  for (const auto& gh : g.ghosts) {
    w.push_back(gh.tree);
    w.push_back(gh.owner);
    w.push_back(static_cast<std::int64_t>(gh.oct.key()));
    w.push_back(gh.oct.level);
  }
  for (const auto off : g.rank_offset) w.push_back(static_cast<std::int64_t>(off));
  for (const auto& m : g.mirrors) {
    w.push_back(m.tree);
    w.push_back(m.local_index);
    w.push_back(static_cast<std::int64_t>(m.oct.key()));
  }
  w.push_back(n.num_global);
  w.push_back(n.num_owned);
  w.push_back(n.owned_offset);
  for (const auto o : n.rank_offsets) w.push_back(o);
  for (const auto& k : n.owned_keys) {
    for (const auto v : k) w.push_back(v);
  }
  return fp;
}

template <int Dim>
std::vector<RankFingerprint> pipeline_on(int p, const Connectivity<Dim>& conn,
                                         const par::RunOptions& opts) {
  return par::run_collect<RankFingerprint>(
      p, opts, [&conn](par::Comm& c) { return run_pipeline<Dim>(c, conn); });
}

par::RunOptions perturbed_opts(std::uint64_t seed) {
  par::RunOptions o;
  o.inject.seed = seed;
  o.inject.max_delay_us = 300.0;
  o.inject.slow_rank_stride = 2;
  o.inject.slow_op_us = 40.0;
  o.recv_timeout_s = 120.0;
  o.barrier_timeout_s = 120.0;
  return o;
}

class PerturbRanks : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(PerturbRanks, PipelineDeterministicUnderPerturbation3d) {
  const int p = GetParam();
  const auto conn = Connectivity<3>::rotcubes();
  const par::RunOptions base;
  const auto baseline = pipeline_on<3>(p, conn, base);
  int distinct_schedules = 0;
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    const auto got = pipeline_on<3>(p, conn, perturbed_opts(seed));
    EXPECT_EQ(baseline, got) << "pipeline diverged under perturbation seed " << seed;
    ++distinct_schedules;
  }
  EXPECT_EQ(distinct_schedules, 5);
}

TEST_P(PerturbRanks, PipelineDeterministicUnderPerturbation2d) {
  const int p = GetParam();
  const auto conn = Connectivity<2>::brick({2, 2}, {false, true});
  const par::RunOptions base;
  const auto baseline = pipeline_on<2>(p, conn, base);
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL, 404ULL, 505ULL}) {
    const auto got = pipeline_on<2>(p, conn, perturbed_opts(seed));
    EXPECT_EQ(baseline, got) << "pipeline diverged under perturbation seed " << seed;
  }
}

TEST_P(PerturbRanks, PipelineBitIdenticalUnderSupervisedRankKill) {
  // Kill-seed sweep: a deterministically chosen victim rank dies mid-pipeline
  // on some seeds; the supervisor restarts the (stateless, deterministic)
  // pipeline and the per-rank results must match the fault-free run
  // bit-for-bit. Seeds that select no victim must pass through untouched.
  namespace resil = esamr::resil;
  const int p = GetParam();
  const auto conn = Connectivity<2>::brick({2, 2}, {false, true});
  const par::RunOptions base;
  const auto baseline = pipeline_on<2>(p, conn, base);
  int kills_seen = 0;
  for (const std::uint64_t seed : {7ULL, 19ULL, 23ULL, 57ULL}) {
    par::RunOptions opts = base;
    opts.inject.seed = seed;
    opts.inject.kill_rank_stride = 2;
    opts.inject.kill_after_ops = 11;
    int victims = 0;
    for (int r = 0; r < p; ++r) {
      if (par::detail::is_kill_rank(opts.inject, r)) ++victims;
    }
    resil::SupervisorOptions sopt;
    sopt.max_retries = 2;
    sopt.backoff.initial_s = 0.0;
    std::vector<RankFingerprint> got(static_cast<std::size_t>(p));
    const auto stats = resil::supervise(
        p, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext&) {
          got[static_cast<std::size_t>(c.rank())] = run_pipeline<2>(c, conn);
        });
    EXPECT_EQ(stats.failures, victims > 0 ? 1 : 0) << "seed " << seed;
    EXPECT_EQ(baseline, got) << "pipeline diverged after recovery, seed " << seed;
    kills_seen += victims > 0 ? 1 : 0;
  }
  EXPECT_GT(kills_seen, 0);  // the sweep must actually exercise a kill
}

INSTANTIATE_TEST_SUITE_P(Sizes, PerturbRanks, ::testing::Values(2, 4, 7));

// With ESAMR_CHECK armed the dynamic checker proves the deadlock and throws
// CheckError long before the timeout; the tests below accept either
// diagnostic, asserting the envelope details each path is contracted to name.
namespace {
bool checker_armed() { return esamr::par::check::effective_level(-1) > 0; }
}  // namespace

TEST(Deadlock, RecvTimeoutNamesRankAndEnvelope) {
  // A recv with no matching sender must fail within the timeout, naming the
  // blocked rank and the (source, tag) envelope it waited on.
  par::RunOptions opts;
  opts.recv_timeout_s = 0.3;
  try {
    par::run(2, opts, [](par::Comm& c) {
      if (c.rank() == 1) c.recv(0, 77);  // rank 0 never sends tag 77
    });
    FAIL() << "expected TimeoutError";
  } catch (const par::check::CheckError& e) {
    ASSERT_TRUE(checker_armed()) << e.what();
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("source=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag=77"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv"), std::string::npos) << msg;
  } catch (const par::TimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("source=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag=77"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv"), std::string::npos) << msg;
  }
}

TEST(Deadlock, MismatchedTagDiagnosed) {
  // The sender used the wrong tag: the message is queued but can never match,
  // and the diagnostic reports the queued-but-unmatched count.
  par::RunOptions opts;
  opts.recv_timeout_s = 0.3;
  try {
    par::run(2, opts, [](par::Comm& c) {
      if (c.rank() == 0) c.send_value(1, 5, 123);
      if (c.rank() == 1) c.recv(0, 6);
    });
    FAIL() << "expected TimeoutError";
  } catch (const par::check::CheckError& e) {
    ASSERT_TRUE(checker_armed()) << e.what();
    EXPECT_NE(std::string(e.what()).find("tag=6"), std::string::npos) << e.what();
  } catch (const par::TimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tag=6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 queued message(s)"), std::string::npos) << msg;
  }
}

TEST(Deadlock, BarrierTimeoutNamesRankAndArrivals) {
  // One rank never reaches the barrier: the others fail with a diagnostic
  // naming the blocked rank and how many ranks arrived.
  par::RunOptions opts;
  opts.barrier_timeout_s = 0.3;
  try {
    par::run(4, opts, [](par::Comm& c) {
      if (c.rank() != 0) c.barrier();  // rank 0 bails out
    });
    FAIL() << "expected TimeoutError";
  } catch (const par::check::CheckError& e) {
    ASSERT_TRUE(checker_armed()) << e.what();
    EXPECT_NE(std::string(e.what()).find("barrier"), std::string::npos) << e.what();
  } catch (const par::TimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3 of 4 ranks arrived"), std::string::npos) << msg;
  }
}

TEST(Deadlock, CollectiveRecvTimeoutNamesCollective) {
  // Mismatched collective order (one rank skips the allreduce): the stuck
  // ranks' diagnostic names the collective they were blocked in.
  par::RunOptions opts;
  opts.recv_timeout_s = 0.3;
  opts.barrier_timeout_s = 2.0;
  try {
    par::run(2, opts, [](par::Comm& c) {
      if (c.rank() == 0) c.allreduce(1, par::ReduceOp::sum);
    });
    FAIL() << "expected TimeoutError";
  } catch (const par::check::CheckError& e) {
    ASSERT_TRUE(checker_armed()) << e.what();
    // The checker names the blocked collective recv rather than the kind.
    EXPECT_NE(std::string(e.what()).find("collective"), std::string::npos) << e.what();
  } catch (const par::TimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
  }
}
