// Unit and property tests for octant primitives (both dimensions).
#include "forest/octant.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "oracles.h"

using esamr::forest::Octant;
using esamr::forest::Topo;

template <typename T>
class OctantTyped : public ::testing::Test {};

struct Dim2 {
  static constexpr int dim = 2;
};
struct Dim3 {
  static constexpr int dim = 3;
};
using Dims = ::testing::Types<Dim2, Dim3>;
TYPED_TEST_SUITE(OctantTyped, Dims);

template <int Dim>
Octant<Dim> random_octant(std::mt19937_64& rng, int max_level = 8) {
  const int level = static_cast<int>(rng() % static_cast<unsigned>(max_level + 1));
  Octant<Dim> o;
  o.level = static_cast<std::int8_t>(level);
  const std::int32_t h = o.size();
  for (int a = 0; a < Dim; ++a) {
    const std::int32_t cells = std::int32_t{1} << level;
    o.set_coord(a, static_cast<std::int32_t>(rng() % static_cast<unsigned>(cells)) * h);
  }
  return o;
}

TYPED_TEST(OctantTyped, RootProperties) {
  constexpr int d = TypeParam::dim;
  const auto root = Octant<d>::root();
  EXPECT_EQ(root.level, 0);
  EXPECT_EQ(root.size(), Octant<d>::root_len);
  EXPECT_TRUE(root.inside_root());
  EXPECT_EQ(root.key(), 0u);
}

TYPED_TEST(OctantTyped, ChildParentRoundTrip) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(7);
  for (int it = 0; it < 200; ++it) {
    const auto o = random_octant<d>(rng);
    for (int c = 0; c < Topo<d>::num_children; ++c) {
      const auto k = o.child(c);
      EXPECT_EQ(k.parent(), o);
      EXPECT_EQ(k.child_id(), c);
      EXPECT_TRUE(o.contains(k));
      EXPECT_FALSE(k.contains(o));
    }
  }
}

TYPED_TEST(OctantTyped, ChildrenAreSortedInSfcOrder) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(8);
  for (int it = 0; it < 100; ++it) {
    const auto o = random_octant<d>(rng);
    for (int c = 0; c + 1 < Topo<d>::num_children; ++c) {
      EXPECT_TRUE(o.child(c) < o.child(c + 1));
    }
    // Parent precedes all children in the (key, level) order.
    EXPECT_TRUE(o < o.child(1));
    EXPECT_TRUE(o < o.child(0));  // equal key, smaller level first
  }
}

TYPED_TEST(OctantTyped, DescendantBounds) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(9);
  for (int it = 0; it < 100; ++it) {
    const auto o = random_octant<d>(rng);
    const auto fd = o.first_descendant(Octant<d>::max_level);
    const auto ld = o.last_descendant(Octant<d>::max_level);
    EXPECT_EQ(fd.key(), o.key());
    EXPECT_TRUE(o.contains(fd));
    EXPECT_TRUE(o.contains(ld));
    EXPECT_LE(fd.key(), ld.key());
    // Any random descendant lies within the key bounds.
    auto x = o;
    while (x.level < Octant<d>::max_level && x.level < 12) {
      x = x.child(static_cast<int>(rng() % Topo<d>::num_children));
    }
    EXPECT_GE(x.key(), fd.key());
    EXPECT_LE(x.key(), ld.key());
  }
}

// key() must reproduce the bit loop exactly, on in-root and exterior inputs
// alike: aligned octants at every level with coordinates in
// [-2 root_len, 2 root_len), plus arbitrary and extreme int32 coordinates.
TYPED_TEST(OctantTyped, KeyMatchesBitLoopOracle) {
  constexpr int d = TypeParam::dim;
  using Oct = Octant<d>;
  std::mt19937_64 rng(21);
  const auto expect_same = [](const Oct& o) {
    ASSERT_EQ(o.key(), esamr::oracles::morton_key_loop(o))
        << "x=" << o.x << " y=" << o.y << " z=" << o.z << " level=" << int{o.level};
  };
  for (int level = 0; level <= Oct::max_level; ++level) {
    Oct o;
    o.level = static_cast<std::int8_t>(level);
    const std::int64_t cells = std::int64_t{1} << level;
    for (int it = 0; it < 2000; ++it) {
      for (int a = 0; a < d; ++a) {
        const auto i = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(4 * cells));
        o.set_coord(a, static_cast<std::int32_t>((i - 2 * cells) * o.size()));
      }
      expect_same(o);
    }
  }
  constexpr std::int32_t edges[] = {std::numeric_limits<std::int32_t>::min(),
                                    -Oct::root_len,
                                    -1,
                                    0,
                                    1,
                                    Oct::root_len - 1,
                                    Oct::root_len,
                                    std::numeric_limits<std::int32_t>::max()};
  for (int it = 0; it < 20000; ++it) {
    Oct o;
    for (int a = 0; a < d; ++a) {
      const auto r = rng();
      o.set_coord(a, r % 4 == 0 ? edges[(r >> 2) % std::size(edges)]
                                : static_cast<std::int32_t>(static_cast<std::uint32_t>(r >> 32)));
    }
    expect_same(o);
  }
}

TYPED_TEST(OctantTyped, FromKeyInvertsKey) {
  constexpr int d = TypeParam::dim;
  using Oct = Octant<d>;
  std::mt19937_64 rng(22);
  for (int it = 0; it < 20000; ++it) {
    const auto o = random_octant<d>(rng, Oct::max_level);
    ASSERT_EQ(Oct::from_key(o.key(), o.level), o);
  }
  const auto root = Oct::root();
  const auto last = root.last_descendant(Oct::max_level);
  EXPECT_EQ(Oct::from_key(last.key(), Oct::max_level), last);
  EXPECT_EQ(Oct::from_key(0, 0), root);
}

TYPED_TEST(OctantTyped, FaceNeighborsAreInvolutive) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(10);
  for (int it = 0; it < 200; ++it) {
    const auto o = random_octant<d>(rng);
    for (int f = 0; f < Topo<d>::num_faces; ++f) {
      const auto n = o.face_neighbor(f);
      EXPECT_EQ(n.face_neighbor(f ^ 1), o);
      EXPECT_EQ(n.level, o.level);
    }
  }
}

TYPED_TEST(OctantTyped, CornerNeighborsAreInvolutive) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(11);
  const int all = Topo<d>::num_corners - 1;
  for (int it = 0; it < 200; ++it) {
    const auto o = random_octant<d>(rng);
    for (int c = 0; c < Topo<d>::num_corners; ++c) {
      EXPECT_EQ(o.corner_neighbor(c).corner_neighbor(c ^ all), o);
    }
  }
}

TEST(Octant3, EdgeNeighborsAreInvolutive) {
  std::mt19937_64 rng(12);
  for (int it = 0; it < 200; ++it) {
    const auto o = random_octant<3>(rng);
    for (int e = 0; e < 12; ++e) {
      const int opposite = (e & ~3) | ((e & 3) ^ 3);
      EXPECT_EQ(o.edge_neighbor(e).edge_neighbor(opposite), o);
    }
  }
}

TEST(Octant3, EdgeTablesMatchCorners) {
  // The two corner endpoints of each edge differ exactly in the edge axis bit.
  for (int e = 0; e < 12; ++e) {
    const int a = Topo<3>::edge_axis[e];
    const int c0 = Topo<3>::edge_corners[e][0];
    const int c1 = Topo<3>::edge_corners[e][1];
    EXPECT_EQ(c1 - c0, 1 << a);
    EXPECT_EQ(c0 & (1 << a), 0);
  }
}

TYPED_TEST(OctantTyped, FaceCornerTablesConsistent) {
  constexpr int d = TypeParam::dim;
  for (int f = 0; f < Topo<d>::num_faces; ++f) {
    const int axis = f / 2, side = f % 2;
    for (int i = 0; i < Topo<d>::corners_per_face; ++i) {
      const int c = Topo<d>::face_corners[f][i];
      EXPECT_EQ((c >> axis) & 1, side);
    }
  }
}

TYPED_TEST(OctantTyped, ContainmentIsPartialOrder) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(13);
  for (int it = 0; it < 300; ++it) {
    const auto a = random_octant<d>(rng);
    const auto b = random_octant<d>(rng);
    if (a.contains(b) && b.contains(a)) {
      EXPECT_EQ(a, b);
    }
    EXPECT_EQ(a.overlaps(b), b.overlaps(a));
  }
}

TYPED_TEST(OctantTyped, AncestorAtEveryLevel) {
  constexpr int d = TypeParam::dim;
  std::mt19937_64 rng(14);
  for (int it = 0; it < 100; ++it) {
    auto o = random_octant<d>(rng);
    for (int l = o.level; l >= 0; --l) {
      const auto a = o.ancestor(l);
      EXPECT_EQ(a.level, l);
      EXPECT_TRUE(a.contains(o));
    }
  }
}

TYPED_TEST(OctantTyped, SfcOrderIsTotalOnSiblingSubtrees) {
  constexpr int d = TypeParam::dim;
  // All descendants of child c precede all descendants of child c+1.
  const auto root = Octant<d>::root();
  for (int c = 0; c + 1 < Topo<d>::num_children; ++c) {
    const auto hi = root.child(c).last_descendant(6);
    const auto lo = root.child(c + 1).first_descendant(6);
    EXPECT_TRUE(hi < lo);
  }
}

TYPED_TEST(OctantTyped, TouchesRootFace) {
  constexpr int d = TypeParam::dim;
  const auto root = Octant<d>::root();
  for (int c = 0; c < Topo<d>::num_children; ++c) {
    const auto k = root.child(c);
    for (int a = 0; a < d; ++a) {
      EXPECT_EQ(k.touches_root_face(2 * a), ((c >> a) & 1) == 0);
      EXPECT_EQ(k.touches_root_face(2 * a + 1), ((c >> a) & 1) == 1);
    }
  }
}
