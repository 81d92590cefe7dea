// Property tests for Balance: after balance(), every pair of neighboring
// leaves (faces, edges, corners, across trees) differs by at most one level.
// The check is a brute-force global verification independent of the
// algorithm under test; check_balanced() (the distributed invariant walker)
// is exercised alongside it. The Equivalence suite additionally pins the
// single-pass rewrite to the reference ripple (tests/oracles.h), octant for
// octant, and the Golden suite pins the forest and the Balance and Ghost op
// counts of the perfbench `fractal_build` input to recorded values.
#include <gtest/gtest.h>

#include <random>

#include "forest/forest.h"
#include "forest/ghost.h"
#include "forest/stats.h"
#include "oracles.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
std::vector<std::pair<int, Octant<Dim>>> gather_all(const Forest<Dim>& f) {
  std::vector<OctMsg> local;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    local.push_back(OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
  });
  std::vector<std::pair<int, Octant<Dim>>> all;
  for (const auto& from : f.comm().allgatherv(local)) {
    for (const OctMsg& m : from) {
      Octant<Dim> o;
      o.x = m.x;
      o.y = m.y;
      if constexpr (Dim == 3) o.z = m.z;
      o.level = static_cast<std::int8_t>(m.level);
      all.emplace_back(m.tree, o);
    }
  }
  return all;
}

/// Brute-force 2:1 check on the gathered forest.
template <int Dim>
void expect_two_to_one(const Forest<Dim>& f) {
  const auto all = gather_all(f);
  const Connectivity<Dim>& conn = f.conn();
  // Per-tree sorted arrays for overlap queries.
  std::vector<std::vector<Octant<Dim>>> trees(static_cast<std::size_t>(f.num_trees()));
  for (const auto& [t, o] : all) trees[static_cast<std::size_t>(t)].push_back(o);
  for (auto& v : trees) std::sort(v.begin(), v.end());

  int violations = 0;
  for (const auto& [t, o] : all) {
    const auto check = [&](int t2, const Octant<Dim>& n) {
      if (n.level <= 1) return;
      const auto& leaves = trees[static_cast<std::size_t>(t2)];
      const auto [lo, hi] = overlapping_range<Dim>(leaves, n);
      for (std::size_t i = lo; i < hi; ++i) {
        if (leaves[i].level < n.level - 1) ++violations;
      }
    };
    const auto place = [&](const Octant<Dim>& n) {
      if (n.inside_root()) {
        check(t, n);
      } else {
        for (const auto& [t2, img] : conn.exterior_images(t, n)) check(t2, img);
      }
    };
    for (int fc = 0; fc < Topo<Dim>::num_faces; ++fc) place(o.face_neighbor(fc));
    if constexpr (Dim == 3) {
      for (int e = 0; e < 12; ++e) place(o.edge_neighbor(e));
    }
    for (int c = 0; c < Topo<Dim>::num_corners; ++c) place(o.corner_neighbor(c));
  }
  EXPECT_EQ(violations, 0);
}

/// Deterministic pseudo-random refinement marker, identical on all ranks.
template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

}  // namespace

class BalanceRanks : public ::testing::TestWithParam<int> {};

TEST_P(BalanceRanks, UnitSquareRandomRefinement) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    for (int round = 0; round < 3; ++round) {
      f.refine(7, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, round, 3); });
    }
    f.balance();
    EXPECT_TRUE(f.is_valid_local());
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
  });
}

TEST_P(BalanceRanks, BalanceIsIdempotent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(6, true, [&](int t, const Octant<2>& o) {
      return o.level < 5 && random_mark(t, o, 11, 4);
    });
    f.balance();
    const auto sum = f.checksum();
    const auto n = f.num_global();
    f.balance();
    EXPECT_EQ(f.checksum(), sum);
    EXPECT_EQ(f.num_global(), n);
  });
}

TEST_P(BalanceRanks, BalanceOnlyRefines) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(6, true, [&](int t, const Octant<2>& o) {
      return o.level < 6 && random_mark(t, o, 3, 5);
    });
    const auto before = gather_all(f);
    f.balance();
    // Every original leaf is still covered by leaves at >= its level.
    std::vector<std::vector<Octant<2>>> trees(1);
    const auto after = gather_all(f);
    for (const auto& [t, o] : after) trees[static_cast<std::size_t>(t)].push_back(o);
    std::sort(trees[0].begin(), trees[0].end());
    for (const auto& [t, o] : before) {
      const auto [lo, hi] = overlapping_range<2>(trees[0], o);
      ASSERT_LT(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_GE(trees[0][i].level, o.level);
        EXPECT_TRUE(o.contains(trees[0][i]));
      }
    }
  });
}

TEST_P(BalanceRanks, MoebiusInterTreeBalance) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    // Deep refinement concentrated near the twisted closure.
    f.refine(6, true, [&](int t, const Octant<2>& o) {
      return t == 0 && o.x == 0 && o.level < 6;
    });
    f.balance();
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
  });
}

TEST_P(BalanceRanks, Cube3DCornerRefinement) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    // A single deep corner cell forces a classic 2:1 cascade.
    f.refine(5, true, [&](int, const Octant<3>& o) {
      return o.x == 0 && o.y == 0 && o.z == 0 && o.level < 5;
    });
    f.balance();
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
    EXPECT_TRUE(f.is_valid_local());
  });
}

TEST_P(BalanceRanks, RotcubesInterTree3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(4, true, [&](int t, const Octant<3>& o) {
      return o.level < 4 && random_mark(t, o, 7, 6);
    });
    f.balance();
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
  });
}

TEST_P(BalanceRanks, ShellInterTree3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 5, 7);
    });
    f.balance();
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
  });
}

TEST_P(BalanceRanks, FractalRefinementMatchesPaperSetup) {
  // The paper's Fig. 4 workload: recursively subdivide children 0, 3, 5, 6.
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int l = 1; l < 3; ++l) {
      f.refine(l + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    f.balance();
    expect_two_to_one(f);
    EXPECT_TRUE(check_balanced(f));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, BalanceRanks, ::testing::Values(1, 2, 4, 7));

namespace {

/// Runs the Fig.-4 fractal workload on rotcubes at `nranks` with either the
/// reference ripple or the single-pass Balance, and returns the rank-0
/// gathered global leaf sequence.
std::vector<std::pair<int, Octant<3>>> balanced_leaves(int nranks, bool reference, int depth) {
  std::vector<std::pair<int, Octant<3>>> leaves;
  par::run(nranks, [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int l = 1; l < depth; ++l) {
      f.refine(l + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    if (reference) {
      esamr::oracles::balance_ripple(f);
    } else {
      f.balance();
    }
    const auto all = gather_all(f);
    if (c.rank() == 0) leaves = all;
  });
  return leaves;
}

}  // namespace

class BalanceEquivalence : public ::testing::TestWithParam<int> {};

// The single-pass scheme must produce the exact same forest as the reference
// ripple — bit-identical global leaf sequence, not just a valid 2:1 closure —
// across partition counts that place inter-tree corners on rank boundaries.
TEST_P(BalanceEquivalence, SinglePassMatchesRippleBitForBit) {
  const int p = GetParam();
  const auto ref = balanced_leaves(p, /*reference=*/true, /*depth=*/4);
  const auto got = balanced_leaves(p, /*reference=*/false, /*depth=*/4);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].first, got[i].first) << "tree mismatch at leaf " << i;
    ASSERT_TRUE(ref[i].second == got[i].second)
        << "octant mismatch at leaf " << i << " (tree " << ref[i].first << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BalanceEquivalence, ::testing::Values(2, 4, 7, 16));

namespace {

/// Balance's output and work on the perfbench `fractal_build` input: the
/// rotcubes forest refined on children {0, 3, 5, 6} until it holds at least
/// 24,000 octants, then Partition, Balance and Ghost.
struct FractalBalanceRun {
  std::uint64_t checksum = 0;
  std::int64_t octants = 0;
  OpStats ops;  ///< summed over ranks, reset before Balance
};

FractalBalanceRun fractal_balance(int nranks) {
  FractalBalanceRun run;
  par::run(nranks, [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int level = 1; f.num_global() < 24000 && level < 12; ++level) {
      f.refine(level + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == level && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    f.partition();
    op_stats().reset();
    f.balance();
    (void)GhostLayer<3>::build(f);
    const OpStats ops = op_stats_total(c);
    const std::uint64_t sum = f.checksum();
    const std::int64_t n = f.num_global();
    if (c.rank() == 0) run = FractalBalanceRun{sum, n, ops};
  });
  return run;
}

/// Recorded with the bit-loop Morton key: the forest and the op counts below
/// must not depend on how SFC positions are computed.
constexpr std::uint64_t kFractalChecksum = 0xf83092ee7a9bcae2ull;
constexpr std::int64_t kFractalOctants = 130535;

}  // namespace

class BalanceGolden : public ::testing::TestWithParam<int> {};

// The checksum does not depend on P; the op counts are pinned at P = 4, the
// rank count perfbench runs.
TEST_P(BalanceGolden, FractalBuildMatchesRecordedForestAndWork) {
  const FractalBalanceRun run = fractal_balance(GetParam());
  EXPECT_EQ(run.checksum, kFractalChecksum);
  EXPECT_EQ(run.octants, kFractalOctants);
  if (GetParam() == 4) {
    EXPECT_EQ(run.ops.balance_seed_octants, 595665);
    EXPECT_EQ(run.ops.balance_closure_kept, 52756);
    EXPECT_EQ(run.ops.balance_octants_sent, 8434);
    EXPECT_EQ(run.ops.ghost_octants_sent, 9462);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BalanceGolden, ::testing::Values(1, 3, 4));
