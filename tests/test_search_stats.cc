// Tests for the hierarchical search API, forest statistics, and the
// multi-layer ghost extension (paper §II-D/E).
#include <gtest/gtest.h>

#include <set>

#include "forest/ghost.h"
#include "forest/stats.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

}  // namespace

class SearchRanks : public ::testing::TestWithParam<int> {};

TEST_P(SearchRanks, SearchVisitsEveryLocalLeafOnce) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(5, true, [&](int t, const Octant<2>& o) {
      return o.level < 5 && random_mark(t, o, 3, 3);
    });
    f.balance();
    f.partition();
    std::int64_t leaves = 0;
    std::int64_t ancestors = 0;
    f.search([&](int, const Octant<2>&, bool is_leaf) {
      (is_leaf ? leaves : ancestors)++;
      return true;
    });
    EXPECT_EQ(leaves, f.num_local());
    EXPECT_GT(ancestors, 0);
  });
}

TEST_P(SearchRanks, SearchPruningSkipsSubtrees) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 4);
    // Region query: count leaves overlapping the lower-left quadrant only,
    // pruning everything else. Compare against a direct scan.
    const auto target = Octant<2>::root().child(0);
    std::int64_t found = 0;
    std::int64_t visited_ancestors = 0;
    f.search([&](int, const Octant<2>& o, bool is_leaf) {
      if (is_leaf) {
        if (target.overlaps(o)) ++found;
        return true;
      }
      ++visited_ancestors;
      return target.overlaps(o);
    });
    std::int64_t expect = 0;
    f.for_each_local([&](int, const Octant<2>& o) {
      if (target.overlaps(o)) ++expect;
    });
    EXPECT_EQ(found, expect);
    // Pruning: far fewer ancestors than a full traversal would visit.
    EXPECT_LT(visited_ancestors, f.num_local());
  });
}

TEST_P(SearchRanks, PointLocationViaSearch) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 5, 3);
    });
    f.balance();
    // Locate the cell containing a deep sample point in every tree via
    // descent, and cross-check with find_local_leaf_containing.
    Octant<3> probe;
    probe.level = Octant<3>::max_level;
    probe.x = Octant<3>::root_len / 3;
    probe.y = Octant<3>::root_len / 5;
    probe.z = Octant<3>::root_len / 7;
    // Align to the lattice.
    probe.x &= ~(probe.size() - 1);
    for (int t = 0; t < f.num_trees(); ++t) {
      const Octant<3>* direct = f.find_local_leaf_containing(t, probe);
      const Octant<3>* via_search = nullptr;
      f.search([&](int tt, const Octant<3>& o, bool is_leaf) {
        if (tt != t) return false;
        if (is_leaf) {
          if (o.contains(probe)) via_search = &o;
          return true;
        }
        return o.contains(probe);
      });
      EXPECT_EQ(direct == nullptr, via_search == nullptr);
    }
  });
}

TEST_P(SearchRanks, StatsAreGloballyConsistent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({3, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 8, 3);
    });
    f.balance();
    const auto s = ForestStats<2>::compute(f);
    EXPECT_EQ(s.global_octants, f.num_global());
    std::int64_t sum = 0;
    for (const auto n : s.level_counts) sum += n;
    EXPECT_EQ(sum, s.global_octants);
    EXPECT_GE(s.min_level, 2);
    EXPECT_LE(s.max_level, 4);
    EXPECT_LE(s.min_per_rank, s.max_per_rank);
    EXPECT_NEAR(s.avg_per_rank, static_cast<double>(s.global_octants) / c.size(), 1e-12);
  });
}

TEST_P(SearchRanks, MultiLayerGhostIsSuperset) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, false});
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    f.refine(4, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 2, 4); });
    f.balance();
    const auto g1 = GhostLayer<2>::build(f, 1);
    const auto g2 = GhostLayer<2>::build(f, 2);
    std::set<std::tuple<int, std::uint64_t, int>> s1, s2;
    for (const auto& g : g1.ghosts) s1.insert({g.tree, g.oct.key(), g.oct.level});
    for (const auto& g : g2.ghosts) s2.insert({g.tree, g.oct.key(), g.oct.level});
    for (const auto& k : s1) EXPECT_TRUE(s2.count(k));
    if (c.size() > 1) {
      EXPECT_GE(s2.size(), s1.size());
      // The wider halo really reaches deeper on a refined mesh.
      EXPECT_GT(s2.size(), s1.size());
    } else {
      EXPECT_TRUE(s1.empty());
      EXPECT_TRUE(s2.empty());
    }
  });
}

TEST_P(SearchRanks, MultiLayerGhostPayloadExchangeStillAligned) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<3>::build(f, 2);
    const auto fingerprint = [](int t, const Octant<3>& o) {
      return static_cast<double>(o.key() % 100003) + 1000.0 * t + 0.5 * o.level;
    };
    std::vector<double> fields;
    f.for_each_local([&](int t, const Octant<3>& o) { fields.push_back(fingerprint(t, o)); });
    const auto ghost_data = g.exchange<double>(c, fields, 1);
    ASSERT_EQ(ghost_data.size(), g.ghosts.size());
    for (std::size_t i = 0; i < g.ghosts.size(); ++i) {
      EXPECT_EQ(ghost_data[i], fingerprint(g.ghosts[i].tree, g.ghosts[i].oct));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, SearchRanks, ::testing::Values(1, 2, 4));
