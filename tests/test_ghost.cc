// Tests for the Ghost layer: completeness and exactness against a
// brute-force adjacency computation on the globally gathered forest,
// the same for multi-layer halos, round-trip payload exchange, and
// rejection of mis-sized payloads.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "forest/ghost.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

struct TaggedOct {
  int tree;
  int owner;
  OctMsg msg;
};

template <int Dim>
std::vector<std::pair<std::pair<int, int>, Octant<Dim>>> gather_owned(const Forest<Dim>& f) {
  std::vector<OctMsg> local;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    local.push_back(OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
  });
  std::vector<std::pair<std::pair<int, int>, Octant<Dim>>> all;  // ((tree, owner), oct)
  const auto received = f.comm().allgatherv(local);
  for (int r = 0; r < f.comm().size(); ++r) {
    for (const OctMsg& m : received[static_cast<std::size_t>(r)]) {
      Octant<Dim> o;
      o.x = m.x;
      o.y = m.y;
      if constexpr (Dim == 3) o.z = m.z;
      o.level = static_cast<std::int8_t>(m.level);
      all.push_back({{m.tree, r}, o});
    }
  }
  return all;
}

/// True if leaf (t2, b) touches leaf (t1, a): b overlaps one of a's
/// same-level neighbor regions AND reaches that region's interface entity.
template <int Dim>
bool touches(const Connectivity<Dim>& conn, int t1, const Octant<Dim>& a, int t2,
             const Octant<Dim>& b) {
  using Pins = typename Connectivity<Dim>::EntityPins;
  bool hit = false;
  const auto check = [&](int ti, const Octant<Dim>& n, const Pins& pins) {
    if (ti != t2 || !(n.overlaps(b))) return;
    // b must reach the pinned interface of n.
    for (int ax = 0; ax < Dim; ++ax) {
      const auto pin = pins.pin[static_cast<std::size_t>(ax)];
      if (pin < 0) continue;
      const std::int64_t iface =
          pin ? static_cast<std::int64_t>(n.coord(ax)) + n.size() : n.coord(ax);
      const std::int64_t blo = b.coord(ax), bhi = static_cast<std::int64_t>(b.coord(ax)) + b.size();
      if (iface < blo || iface > bhi) return;
    }
    hit = true;
  };
  const auto place = [&](const Octant<Dim>& n, const Pins& pins) {
    if (n.inside_root()) {
      check(t1, n, pins);
    } else {
      for (const auto& [ti, img, p2] : conn.exterior_images_entity(t1, n, pins)) {
        check(ti, img, p2);
      }
    }
  };
  for (int fc = 0; fc < Topo<Dim>::num_faces; ++fc) {
    Pins pins;
    pins.pin[static_cast<std::size_t>(fc / 2)] = static_cast<std::int8_t>(1 - (fc % 2));
    place(a.face_neighbor(fc), pins);
  }
  if constexpr (Dim == 3) {
    for (int e = 0; e < 12; ++e) {
      const int axis = Topo<3>::edge_axis[e];
      const int idx = e & 3;
      Pins pins;
      int k = 0;
      for (int ax = 0; ax < 3; ++ax) {
        if (ax == axis) continue;
        pins.pin[static_cast<std::size_t>(ax)] = static_cast<std::int8_t>(1 - ((idx >> k) & 1));
        ++k;
      }
      place(a.edge_neighbor(e), pins);
    }
  }
  for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
    Pins pins;
    for (int ax = 0; ax < Dim; ++ax) {
      pins.pin[static_cast<std::size_t>(ax)] = static_cast<std::int8_t>(1 - ((c >> ax) & 1));
    }
    place(a.corner_neighbor(c), pins);
  }
  return hit;
}

/// Compare the distributed ghost layer against brute force on every rank.
template <int Dim>
void expect_ghost_exact(const Forest<Dim>& f, const GhostLayer<Dim>& g) {
  const auto all = gather_owned(f);
  const int me = f.comm().rank();
  std::set<std::tuple<int, std::uint64_t, int>> expected;  // (tree, key, level)
  for (const auto& [to1, a] : all) {
    if (to1.second != me) continue;  // a must be one of my leaves
    for (const auto& [to2, b] : all) {
      if (to2.second == me) continue;  // b must be foreign
      if (touches(f.conn(), to1.first, a, to2.first, b) ||
          touches(f.conn(), to2.first, b, to1.first, a)) {
        expected.insert({to2.first, b.key(), b.level});
      }
    }
  }
  std::set<std::tuple<int, std::uint64_t, int>> got;
  for (const auto& gh : g.ghosts) {
    got.insert({gh.tree, gh.oct.key(), gh.oct.level});
  }
  EXPECT_EQ(got, expected);
}

/// Compare a `layers`-deep ghost layer against brute force on every rank.
/// Leaf b of rank q is sent to rank r != q iff some leaf of r overlaps one
/// of b's same-size regions at an offset within `layers` cells, mapped
/// across trees by exterior_images and kept when inside the target tree.
/// Checks the ghosts in order and every mirror list exactly.
template <int Dim>
void expect_multilayer_exact(const Forest<Dim>& f, const GhostLayer<Dim>& g, int layers) {
  const auto all = gather_owned(f);
  const int me = f.comm().rank();
  const auto p = static_cast<std::size_t>(f.comm().size());
  std::vector<std::vector<std::size_t>> in_tree(static_cast<std::size_t>(f.num_trees()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    in_tree[static_cast<std::size_t>(all[i].first.first)].push_back(i);
  }
  const auto targets = [&](int t, const Octant<Dim>& b) {
    std::vector<bool> hit(p, false);
    const int w = 2 * layers + 1;
    int codes = 1;
    for (int a = 0; a < Dim; ++a) codes *= w;
    for (int code = 0; code < codes; ++code) {
      Octant<Dim> n = b;
      for (int a = 0, rem = code; a < Dim; ++a, rem /= w) {
        n.set_coord(a, n.coord(a) + (rem % w - layers) * b.size());
      }
      if (n == b) continue;
      for (const auto& [t2, img] : f.conn().exterior_images(t, n)) {
        if (!img.inside_root()) continue;
        for (const std::size_t j : in_tree[static_cast<std::size_t>(t2)]) {
          if (all[j].second.overlaps(img)) {
            hit[static_cast<std::size_t>(all[j].first.second)] = true;
          }
        }
      }
    }
    return hit;
  };
  using Entry = std::tuple<int, int, std::uint64_t, int>;  // (owner, tree, key, level)
  std::vector<Entry> want_ghosts;
  std::vector<std::vector<std::int32_t>> want_lists(p);
  std::int32_t li = 0;
  for (const auto& [to, b] : all) {
    const auto hit = targets(to.first, b);
    if (to.second != me) {
      if (hit[static_cast<std::size_t>(me)]) {
        want_ghosts.emplace_back(to.second, to.first, b.key(), b.level);
      }
      continue;
    }
    for (std::size_t r = 0; r < p; ++r) {
      if (hit[r] && static_cast<int>(r) != me) want_lists[r].push_back(li);
    }
    ++li;
  }
  std::vector<Entry> got_ghosts;
  for (const auto& gh : g.ghosts) {
    got_ghosts.emplace_back(gh.owner, gh.tree, gh.oct.key(), gh.oct.level);
  }
  EXPECT_EQ(got_ghosts, want_ghosts);
  ASSERT_EQ(g.mirror_lists.size(), p);
  for (std::size_t r = 0; r < p; ++r) {
    std::vector<std::int32_t> got;
    for (const std::int32_t mi : g.mirror_lists[r]) {
      got.push_back(g.mirrors[static_cast<std::size_t>(mi)].local_index);
    }
    EXPECT_EQ(got, want_lists[r]) << "mirror list to rank " << r;
  }
}

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

}  // namespace

class GhostRanks : public ::testing::TestWithParam<int> {};

TEST_P(GhostRanks, UniformSquare) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    const auto g = GhostLayer<2>::build(f);
    expect_ghost_exact(f, g);
  });
}

TEST_P(GhostRanks, AdaptiveBalancedSquare) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(6, true, [&](int t, const Octant<2>& o) {
      return o.level < 5 && random_mark(t, o, 2, 4);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    expect_ghost_exact(f, g);
  });
}

TEST_P(GhostRanks, PeriodicTorus) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 9, 3); });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    expect_ghost_exact(f, g);
  });
}

TEST_P(GhostRanks, Adaptive3DRotcubes) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 4, 5);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    expect_ghost_exact(f, g);
  });
}

TEST_P(GhostRanks, Shell3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(2, false, [&](int t, const Octant<3>& o) { return random_mark(t, o, 8, 4); });
    f.balance();
    const auto g = GhostLayer<3>::build(f);
    expect_ghost_exact(f, g);
  });
}

TEST_P(GhostRanks, PayloadExchangeRoundTrip) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    f.refine(5, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 1, 4); });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    // Payload = deterministic function of (tree, octant); receivers verify.
    const auto fingerprint = [](int t, const Octant<2>& o) {
      return static_cast<double>(o.key() % 100003) + 1000.0 * t + 0.5 * o.level;
    };
    std::vector<double> fields;
    f.for_each_local([&](int t, const Octant<2>& o) { fields.push_back(fingerprint(t, o)); });
    const auto ghost_data = g.exchange<double>(c, fields, 1);
    ASSERT_EQ(ghost_data.size(), g.ghosts.size());
    for (std::size_t i = 0; i < g.ghosts.size(); ++i) {
      EXPECT_EQ(ghost_data[i], fingerprint(g.ghosts[i].tree, g.ghosts[i].oct));
    }
  });
}

TEST_P(GhostRanks, MismatchedPayloadSizeIsRejected) {
  // Rank r sends 1 + r values per mirror, so each receiver gets payloads
  // that are too large (from higher ranks) or too small (from lower ones).
  std::string what;
  try {
    par::run(GetParam(), [&](par::Comm& c) {
      const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
      auto f = Forest<2>::new_uniform(c, &conn, 3);
      const auto g = GhostLayer<2>::build(f);
      const int per_elem = 1 + c.rank();
      const std::vector<double> fields(
          static_cast<std::size_t>(f.num_local()) * static_cast<std::size_t>(per_elem), 1.0);
      const auto ghost_data = g.exchange<double>(c, fields, per_elem);
      EXPECT_EQ(ghost_data.size(), g.ghosts.size() * static_cast<std::size_t>(per_elem));
    });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  if (GetParam() == 1) {
    EXPECT_EQ(what, "");  // no peers, nothing to mismatch
    return;
  }
  EXPECT_NE(what.find("GhostLayer::exchange: rank "), std::string::npos) << what;
  EXPECT_NE(what.find(" bytes, expected "), std::string::npos) << what;
}

TEST_P(GhostRanks, FieldsShortOfTheLastMirrorAreRejected) {
  // Each rank's fields stop one element short of its last mirror.
  std::string what;
  try {
    par::run(GetParam(), [&](par::Comm& c) {
      const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
      auto f = Forest<2>::new_uniform(c, &conn, 3);
      const auto g = GhostLayer<2>::build(f);
      const std::size_t elems =
          g.mirrors.empty() ? 0 : static_cast<std::size_t>(g.mirrors.back().local_index);
      const std::vector<double> fields(elems * 2, 1.0);
      const auto ghost_data = g.exchange<double>(c, fields, 2);
      EXPECT_EQ(ghost_data.size(), g.ghosts.size() * 2);
    });
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  if (GetParam() == 1) {
    EXPECT_EQ(what, "");  // no mirrors, nothing to cover
    return;
  }
  EXPECT_NE(what.find("GhostLayer::exchange: "), std::string::npos) << what;
  EXPECT_NE(what.find(" values do not cover local element "), std::string::npos) << what;
}

TEST_P(GhostRanks, GhostsSortedByOwnerThenSfc) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 4);
    const auto g = GhostLayer<2>::build(f);
    for (std::size_t i = 1; i < g.ghosts.size(); ++i) {
      const auto& a = g.ghosts[i - 1];
      const auto& b = g.ghosts[i];
      const bool ordered = a.owner < b.owner || (a.owner == b.owner && a.tree < b.tree) ||
                           (a.owner == b.owner && a.tree == b.tree && a.oct < b.oct);
      EXPECT_TRUE(ordered);
    }
    // No local leaves and no duplicates among ghosts.
    for (const auto& gh : g.ghosts) EXPECT_NE(gh.owner, c.rank());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GhostRanks, ::testing::Values(1, 2, 3, 5));

// Two-layer halos on refined multi-tree forests whose partition splits
// cells at macro corners (2D brick) and at rotated macro edges and corners
// (3D rotcubes): a region reached across such an entity must reach every
// rank owning part of its image, not only the ranks at the shared corner
// point or edge line. P = 5 and 7 place such splits.
class GhostMultiLayer : public ::testing::TestWithParam<int> {};

TEST_P(GhostMultiLayer, Brick2DMatchesBruteForce) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(2, true, [&](int t, const Octant<2>& o) {
      return o.level < 2 && random_mark(t, o, 0, 5);
    });
    f.balance();
    f.partition();
    expect_multilayer_exact(f, GhostLayer<2>::build(f, 2), 2);
  });
}

TEST_P(GhostMultiLayer, Rotcubes3DMatchesBruteForce) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 0, 5);
    });
    f.balance();
    f.partition();
    expect_multilayer_exact(f, GhostLayer<3>::build(f, 2), 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GhostMultiLayer, ::testing::Values(1, 2, 3, 5, 7));
