// Bit-identity battery for the incremental adapt pipeline:
// randomized refine/coarsen sequences are replayed twice — once through the
// incremental paths (balance_incremental, GhostLayer::build_incremental,
// NodeNumbering::build_incremental) and once through the full rebuilds — and
// the forests, ghost layers and node numberings must be bit-identical at
// every step, seed and rank count. The delta-checkpoint chain must restore
// the exact state a full snapshot of the final forest restores; a corrupted
// mid-chain delta must degrade to the longest valid prefix (here: the full
// snapshot itself) instead of hanging or restoring silently-wrong state.
// The battery also checks that the node patch rebuilds exactly the elements
// with a corner in the closed delta. DeltaClosure pins the balance seed
// filter's coarse-region contract; GhostFront3D runs the ghost paths on a 3D
// forest of rotated trees.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "forest/delta.h"
#include "forest/ghost.h"
#include "forest/nodes.h"
#include "forest/stats.h"
#include "nodes_digest.h"
#include "par/comm.h"
#include "resil/checkpoint.h"

using namespace esamr;
using forest::Connectivity;
using forest::DeltaSet;
using forest::Forest;
using forest::GhostLayer;
using forest::GhostScanCache;
using forest::NodeNumbering;
using forest::NodesCache;
using forest::Octant;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test scratch directory. The pid suffix keeps the plain run and
/// the ESAMR_CHECK=1 whole-binary rerun apart under ctest -j.
std::string test_dir(const std::string& name) {
  const std::string d =
      ::testing::TempDir() + "esamr_incr_" + name + "_" + std::to_string(::getpid());
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::uint64_t mixh(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Deterministic sparse marker: a pure function of (seed, step, salt, leaf),
/// so the incremental and reference replays see identical adapt requests.
bool marked(std::uint64_t seed, int step, std::uint64_t salt, int mod, int t,
            const Octant<2>& o) {
  const std::uint64_t h =
      mixh(o.key() ^ (static_cast<std::uint64_t>(static_cast<unsigned>(o.level)) << 56) ^
           mixh(seed * 1000003ull + static_cast<std::uint64_t>(step) * 101ull +
                static_cast<std::uint64_t>(t) * 13ull + salt));
  return h % static_cast<std::uint64_t>(mod) == 0;
}

std::uint64_t forest_digest(const Forest<2>& f) {
  std::uint64_t h = 1469598103934665603ull;
  f.for_each_local([&](int t, const Octant<2>& o) {
    fold(h, t);
    fold(h, o.x);
    fold(h, o.y);
    fold(h, o.level);
  });
  return h;
}

std::uint64_t ghost_digest(const GhostLayer<2>& g) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& go : g.ghosts) {
    fold(h, go.tree);
    fold(h, go.owner);
    fold(h, go.oct.x);
    fold(h, go.oct.y);
    fold(h, go.oct.level);
  }
  for (const std::size_t r : g.rank_offset) fold(h, static_cast<std::int64_t>(r));
  for (const auto& m : g.mirrors) {
    fold(h, m.tree);
    fold(h, m.local_index);
    fold(h, m.oct.x);
    fold(h, m.oct.y);
    fold(h, m.oct.level);
  }
  for (const auto& lst : g.mirror_lists) {
    fold(h, static_cast<std::int64_t>(lst.size()));
    for (const std::int32_t i : lst) fold(h, i);
  }
  return h;
}

/// Deterministic, partition-independent per-octant field value: values on
/// unchanged octants stay unchanged across adapts, which is exactly the
/// contract write_delta_checkpoint_ring requires of its fields.
double field_value(int t, const Octant<2>& o, int comp) {
  return static_cast<double>(t) + 1e-9 * o.x + 1e-10 * o.y + 0.125 * o.level + 3.0 * comp;
}

resil::NamedField make_field(const Forest<2>& f, const std::string& name, int per_oct) {
  resil::NamedField fld{name, per_oct, {}};
  f.for_each_local([&](int t, const Octant<2>& o) {
    for (int k = 0; k < per_oct; ++k) fld.data.push_back(field_value(t, o, k));
  });
  return fld;
}

/// Flatten this rank's view of the *global* forest + field into words, via
/// allgatherv, for comparisons across different partitions.
std::vector<std::int64_t> global_state_words(par::Comm& c, const Forest<2>& f,
                                             const std::vector<double>& field) {
  std::vector<std::int64_t> octs;
  f.for_each_local([&](int t, const Octant<2>& o) {
    octs.push_back(t);
    octs.push_back(o.x);
    octs.push_back(o.y);
    octs.push_back(o.level);
  });
  std::vector<std::int64_t> vals;
  for (const double v : field) {
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    vals.push_back(bits);
  }
  std::vector<std::int64_t> all;
  for (const auto& part : c.allgatherv(octs)) all.insert(all.end(), part.begin(), part.end());
  for (const auto& part : c.allgatherv(vals)) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// One tracked adapt step on the incremental forest: sparse refine + coarsen
/// markers, incremental balance. Returns the step's delta.
DeltaSet<2> adapt_step(Forest<2>& f, std::uint64_t seed, int step, int* incr_balances) {
  DeltaSet<2> delta(f.num_trees());
  f.refine(6, false,
           [&](int t, const Octant<2>& o) { return marked(seed, step, 0x5eedull, 67, t, o); },
           &delta);
  f.coarsen(false,
            [&](int t, const Octant<2>& o) { return marked(seed, step, 0xc0a5ull, 41, t, o); },
            &delta);
  if (f.balance_incremental(delta) && incr_balances != nullptr) ++(*incr_balances);
  return delta;
}

class IncrementalBattery : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalBattery, AdaptSequenceBitIdentical) {
  const int P = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    par::run(P, [&](par::Comm& c) {
      const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
      auto fi = Forest<2>::new_uniform(c, &conn, 3);
      fi.partition();
      auto fr = Forest<2>::new_uniform(c, &conn, 3);
      fr.partition();

      GhostScanCache<2> gc;
      auto gi = GhostLayer<2>::build_cached(fi, gc);
      NodesCache<2> nc;
      {
        // Seed the nodes cache: an invalid cache routes through the full
        // build inside build_incremental and recaptures it.
        DeltaSet<2> d0(fi.num_trees());
        NodeNumbering<2>::build_incremental(fi, gi, d0, nc);
      }

      int incr_balances = 0;
      for (int step = 0; step < 5; ++step) {
        DeltaSet<2> delta = adapt_step(fi, seed, step, &incr_balances);
        gi = GhostLayer<2>::build_incremental(fi, gi, gc);
        const forest::OpStats ops0 = forest::op_stats();
        const NodeNumbering<2>& ni = NodeNumbering<2>::build_incremental(fi, gi, delta, nc);
        const std::int64_t patched = forest::op_stats().nodes_patched - ops0.nodes_patched;
        const std::int64_t reused = forest::op_stats().nodes_reused - ops0.nodes_reused;

        fr.refine(6, false, [&](int t, const Octant<2>& o) {
          return marked(seed, step, 0x5eedull, 67, t, o);
        });
        fr.coarsen(false, [&](int t, const Octant<2>& o) {
          return marked(seed, step, 0xc0a5ull, 41, t, o);
        });
        fr.balance();
        const auto gr = GhostLayer<2>::build(fr);
        const auto nr = NodeNumbering<2>::build(fr, gr);

        const std::string at = "P=" + std::to_string(P) + " seed=" + std::to_string(seed) +
                               " step=" + std::to_string(step) +
                               " rank=" + std::to_string(c.rank());
        ASSERT_EQ(fi.checksum(), fr.checksum()) << at;
        ASSERT_EQ(forest_digest(fi), forest_digest(fr)) << at;
        ASSERT_EQ(ghost_digest(gi), ghost_digest(gr)) << at;
        ASSERT_EQ(nodes_digest(ni), nodes_digest(nr)) << at;

        // When the patch path ran (it accounts for every local element), it
        // rebuilt exactly the elements with a corner in the closed delta:
        // a closed-box overlap with a region of their own tree, or a corner
        // image inside a closed region of another tree.
        const DeltaSet<2> global = delta.replicated(c);
        if (patched + reused == fi.num_local()) {
          std::int64_t expect = 0;
          fi.for_each_local([&](int t, const Octant<2>& o) {
            bool hit = false;
            for (const Octant<2>& d : global.regions[static_cast<std::size_t>(t)]) {
              hit = hit || (d.x <= o.x + o.size() && o.x <= d.x + d.size() &&
                            d.y <= o.y + o.size() && o.y <= d.y + d.size());
            }
            for (int k = 0; k < 4 && !hit; ++k) {
              for (const auto& [t2, p2] : conn.point_images(t, o.corner_point(k))) {
                hit = hit || global.contains_point(t2, p2);
              }
            }
            expect += hit ? 1 : 0;
          });
          EXPECT_EQ(patched, expect) << at;
        }
      }

      // The incremental paths must actually engage, not silently fall back
      // on every step (delta regions stay far below the 10% threshold here).
      const auto tot = forest::op_stats_total(c);
      if (c.rank() == 0) {
        EXPECT_GT(incr_balances, 0);
        EXPECT_GT(tot.nodes_reused, 0);
        EXPECT_GT(tot.nodes_patched, 0);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, IncrementalBattery, ::testing::Values(1, 2, 4, 7, 16));

// The balance seed filter's contract on rotcubes: a region too coarse for
// the six-ring cover (level < 3) closes over every tree's root, while a
// level-4 region's closure stays below the root in every tree.
TEST(DeltaClosure, CoarseRegionTakesTheWholeForest) {
  const auto conn = Connectivity<3>::rotcubes();
  const auto root_only = [](const std::vector<Octant<3>>& v) {
    return v.size() == 1 && v[0] == Octant<3>::root();
  };
  const auto level2 = Octant<3>::root().child(0).child(7);
  DeltaSet<3> coarse(conn.num_trees());
  coarse.record(0, level2);
  const auto all = coarse.closure(conn, 6);
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t t = 0; t < all.size(); ++t) {
    EXPECT_TRUE(root_only(all[t])) << "tree " << t << ": " << all[t].size() << " cells";
  }
  DeltaSet<3> fine(conn.num_trees());
  fine.record(0, level2.child(0).child(7));
  const auto near = fine.closure(conn, 6);
  ASSERT_EQ(near.size(), 6u);
  EXPECT_FALSE(near[0].empty());
  for (std::size_t t = 0; t < near.size(); ++t) {
    EXPECT_FALSE(root_only(near[t])) << "tree " << t;
  }
}

/// Every GhostLayer field build_incremental must reproduce, flattened with
/// separators: ghosts, rank_offset, mirrors and mirror_lists.
std::vector<std::int64_t> ghost_words(const GhostLayer<3>& g) {
  std::vector<std::int64_t> w;
  for (const auto& go : g.ghosts) {
    w.insert(w.end(), {go.tree, go.owner, go.oct.x, go.oct.y, go.oct.z, go.oct.level});
  }
  w.push_back(-1);
  for (const std::size_t r : g.rank_offset) w.push_back(static_cast<std::int64_t>(r));
  w.push_back(-1);
  for (const auto& m : g.mirrors) {
    w.insert(w.end(), {m.tree, m.local_index, m.oct.x, m.oct.y, m.oct.z, m.oct.level});
  }
  for (const auto& lst : g.mirror_lists) {
    w.push_back(-1 - static_cast<std::int64_t>(lst.size()));
    w.insert(w.end(), lst.begin(), lst.end());
  }
  return w;
}

/// Distance from the plane x = s (in each tree's own frame, unit root) to
/// the slab the octant spans along x; negative inside.
double front_gap(const Octant<3>& o, double s) {
  const double h = static_cast<double>(o.size()) / Octant<3>::root_len;
  const double cx = static_cast<double>(o.x) / Octant<3>::root_len + 0.5 * h;
  return std::abs(cx - s) - 0.5 * h;
}

class GhostFront3D : public ::testing::TestWithParam<int> {};

// A front sweeping through the six mutually rotated rotcubes trees: leaves
// near the plane refine to level 3, families left behind coarsen. Ghost
// targets cross rotated inter-tree faces, edges and corners. Each step
// checks build_cached and build_incremental against build on every field,
// then repeats build_incremental on the unchanged forest: every non-empty
// destination list is then unchanged, so each costs exactly one sentinel.
TEST_P(GhostFront3D, IncrementalMatchesBuildAndIdleStepSendsSentinels) {
  const int P = GetParam();
  par::run(P, [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    GhostScanCache<3> gc;
    auto gi = GhostLayer<3>::build_cached(f, gc);
    ASSERT_EQ(ghost_words(gi), ghost_words(GhostLayer<3>::build(f)));
    std::int64_t sentinels = 0;
    for (int step = 0; step < 5; ++step) {
      const double s = 0.1 + 0.2 * step;
      f.coarsen(false, [&](int, const Octant<3>& par) { return front_gap(par, s) > 0.15; });
      f.refine(3, true, [&](int, const Octant<3>& o) { return front_gap(o, s) < 0.05; });
      f.balance();
      const auto gr = GhostLayer<3>::build(f);
      const std::string at = "P=" + std::to_string(P) + " step=" + std::to_string(step) +
                             " rank=" + std::to_string(c.rank());
      GhostScanCache<3> fresh;
      ASSERT_EQ(ghost_words(GhostLayer<3>::build_cached(f, fresh)), ghost_words(gr)) << at;
      gi = GhostLayer<3>::build_incremental(f, gi, gc);
      ASSERT_EQ(ghost_words(gi), ghost_words(gr)) << at;

      const std::int64_t sent0 = forest::op_stats().ghost_octants_sent;
      const auto idle = GhostLayer<3>::build_incremental(f, gi, gc);
      const std::int64_t sent = forest::op_stats().ghost_octants_sent - sent0;
      std::int64_t nonempty = 0;
      for (const auto& lst : gi.mirror_lists) nonempty += lst.empty() ? 0 : 1;
      EXPECT_EQ(sent, nonempty) << at;
      sentinels += sent;
      ASSERT_EQ(ghost_words(idle), ghost_words(gr)) << at;
    }
    if (P > 1) {
      EXPECT_GT(sentinels, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, GhostFront3D, ::testing::Values(1, 2, 3, 5));

TEST(DeltaCheckpoint, ChainRestoreMatchesFullSnapshot) {
  for (const int P : {1, 4, 7}) {
    const std::string dir = test_dir("chain_p" + std::to_string(P));
    const std::string dir_full = test_dir("chainfull_p" + std::to_string(P));
    par::run(P, [&](par::Comm& c) {
      const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
      const std::uint64_t cid = resil::connectivity_id<2>(conn);
      auto f = Forest<2>::new_uniform(c, &conn, 3);
      f.partition();

      resil::CheckpointRing ring(dir, 3);
      resil::NamedField fld = make_field(f, "u", 2);
      resil::write_checkpoint_ring(f, cid, 0, {fld}, ring);

      for (int step = 1; step <= 4; ++step) {
        DeltaSet<2> delta = adapt_step(f, 11, step, nullptr);
        fld = make_field(f, "u", 2);
        resil::write_delta_checkpoint_ring(f, cid, static_cast<std::uint64_t>(step), {fld},
                                           delta, ring);
      }
      if (c.rank() == 0) {
        int ndelta = 0;
        for (const auto& p : ring.entries()) ndelta += resil::CheckpointRing::is_delta(p);
        EXPECT_GE(ndelta, 4) << "delta writes silently fell back to full snapshots";
      }

      int falls = -1;
      auto rc = resil::restore_latest_chain<2>(c, conn, cid, ring, &falls);
      EXPECT_EQ(falls, 0);
      EXPECT_EQ(rc.step, 4u);
      ASSERT_EQ(rc.fields.size(), 1u);
      const auto live = global_state_words(c, f, fld.data);
      EXPECT_EQ(global_state_words(c, rc.forest, rc.fields[0].data), live);

      // ... and the chain's endpoint equals a fresh full snapshot's restore.
      resil::CheckpointRing ring_full(dir_full, 3);
      resil::write_checkpoint_ring(f, cid, 4, {fld}, ring_full);
      auto rf = resil::restore_latest_chain<2>(c, conn, cid, ring_full);
      EXPECT_EQ(global_state_words(c, rc.forest, rc.fields[0].data),
                global_state_words(c, rf.forest, rf.fields[0].data));
    });
    fs::remove_all(dir);
    fs::remove_all(dir_full);
  }
}

TEST(DeltaCheckpoint, CorruptMidChainFallsBackToFullSnapshot) {
  const std::string dir = test_dir("chain_corrupt");
  par::run(4, [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
    const std::uint64_t cid = resil::connectivity_id<2>(conn);
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    f.partition();

    resil::CheckpointRing ring(dir, 3);
    resil::NamedField fld = make_field(f, "u", 1);
    resil::write_checkpoint_ring(f, cid, 0, {fld}, ring);
    const auto base_words = global_state_words(c, f, fld.data);

    for (int step = 1; step <= 3; ++step) {
      DeltaSet<2> delta = adapt_step(f, 29, step, nullptr);
      fld = make_field(f, "u", 1);
      resil::write_delta_checkpoint_ring(f, cid, static_cast<std::uint64_t>(step), {fld},
                                         delta, ring);
    }

    // Corrupt the first delta: the whole chain above the full snapshot is
    // unreachable, so restore must land exactly on the full snapshot.
    if (c.rank() == 0) {
      std::string first_delta;
      for (const auto& p : ring.entries()) {
        if (resil::CheckpointRing::is_delta(p)) {
          first_delta = p;
          break;
        }
      }
      ASSERT_FALSE(first_delta.empty());
      resil::corrupt_checkpoint(first_delta, resil::CorruptKind::byte_flip, 7);
    }
    c.barrier();

    int falls = -1;
    auto rc = resil::restore_latest_chain<2>(c, conn, cid, ring, &falls);
    EXPECT_EQ(falls, 1);  // the corrupt delta was quarantined
    EXPECT_EQ(rc.step, 0u);
    ASSERT_EQ(rc.fields.size(), 1u);
    {
      resil::NamedField r0 = make_field(rc.forest, "u", 1);
      EXPECT_EQ(global_state_words(c, rc.forest, rc.fields[0].data), base_words);
      EXPECT_EQ(global_state_words(c, rc.forest, r0.data), base_words);
    }

    // The orphaned later deltas have broken links now; a second restore must
    // still land on the full snapshot, without quarantining anything else.
    falls = -1;
    auto rc2 = resil::restore_latest_chain<2>(c, conn, cid, ring, &falls);
    EXPECT_EQ(falls, 0);
    EXPECT_EQ(rc2.step, 0u);
    EXPECT_EQ(global_state_words(c, rc2.forest, rc2.fields[0].data), base_words);
  });
  fs::remove_all(dir);
}

}  // namespace
