// Tests for Nodes: globally unique numbering with hanging constraints.
// Key properties:
//  * slot weights always sum to one (partition of unity),
//  * the numbering is independent of the rank count,
//  * on affine macro meshes the constrained interpolation reproduces global
//    linear functions exactly — this exercises hanging face/edge constraints
//    and inter-tree canonicalization at once,
//  * every hanging slot interpolates the 2 or 4 corners of one coarser edge
//    or face, and a forest that breaks 2:1 balance is rejected,
//  * build() emits exactly the recorded digests (NodesGolden): every gid,
//    weight bit, owned key and gid key on five inputs at four rank counts,
//  * the corner iterator (NodesIterate) reports every tree-interior corner of
//    a marked leaf exactly once, with the leaves, corner indices and point
//    record the directory-lookup path finds for the same point, and a point
//    hanging on two equally coarse leaves takes the first in quadrant order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "forest/iterate.h"
#include "forest/node_classify.h"
#include "forest/nodes.h"
#include "nodes_digest.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

/// Physical position of a lattice point via the macro vertex interpolation
/// (exact for the affine cells of brick meshes).
template <int Dim>
std::array<double, 3> physical_point(const Connectivity<Dim>& conn, int tree,
                                     std::array<std::int32_t, 3> p) {
  const auto& tv = conn.tree_to_vertex()[static_cast<std::size_t>(tree)];
  std::array<double, 3> x{0, 0, 0};
  for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
    double w = 1.0;
    for (int a = 0; a < Dim; ++a) {
      const double r =
          static_cast<double>(p[static_cast<std::size_t>(a)]) / Octant<Dim>::root_len;
      w *= ((c >> a) & 1) ? r : (1.0 - r);
    }
    const auto& v = conn.vertex_coords()[static_cast<std::size_t>(tv[static_cast<std::size_t>(c)])];
    for (int d = 0; d < 3; ++d) x[static_cast<std::size_t>(d)] += w * v[static_cast<std::size_t>(d)];
  }
  return x;
}

/// Gather the (gid -> physical position) table from all owners.
template <int Dim>
std::map<std::int64_t, std::array<double, 3>> gather_node_positions(
    par::Comm& comm, const Connectivity<Dim>& conn, const NodeNumbering<Dim>& nodes) {
  struct Entry {
    std::int64_t gid;
    double x, y, z;
  };
  std::vector<Entry> local;
  for (std::size_t i = 0; i < nodes.owned_keys.size(); ++i) {
    const auto& k = nodes.owned_keys[i];
    const auto pos = physical_point<Dim>(conn, k[0], {k[1], k[2], k[3]});
    local.push_back({nodes.owned_offset + static_cast<std::int64_t>(i), pos[0], pos[1], pos[2]});
  }
  std::map<std::int64_t, std::array<double, 3>> table;
  for (const auto& from : comm.allgatherv(local)) {
    for (const Entry& e : from) table[e.gid] = {e.x, e.y, e.z};
  }
  return table;
}

/// Check partition of unity and linear reproduction on an affine mesh, the
/// one-hop slot shape of a 2:1-balanced forest — an independent corner
/// holds its own gid with weight 1, a hanging one the 2 or 4 distinct corners
/// of its constraining edge or face with weight exactly 1/2 or 1/4 — and the
/// rows behind it: the code's bit c is set iff corner c hangs, its bits 8-10
/// hold the child id, and the row holds an independent corner's own node and
/// a hanging corner's parent's corner c.
template <int Dim>
void expect_linear_reproduction(const Forest<Dim>& f, const NodeNumbering<Dim>& nodes) {
  constexpr int nc = Topo<Dim>::num_corners;
  const auto table = gather_node_positions(f.comm(), f.conn(), nodes);
  const auto lin = [](const std::array<double, 3>& x) {
    return 0.7 + 1.3 * x[0] - 0.4 * x[1] + 2.1 * x[2];
  };
  ASSERT_EQ(nodes.num_elements(), static_cast<std::size_t>(f.num_local()));
  ASSERT_EQ(nodes.element_nodes.size(), nodes.num_elements() * nc);
  std::size_t li = 0;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    const unsigned code = nodes.element_code[li];
    EXPECT_EQ(code >> 8, static_cast<unsigned>(o.child_id()));
    for (int c = 0; c < nc; ++c) {
      const auto slot = nodes.slot(li, c);
      const std::int64_t node = nodes.element_nodes[li * nc + static_cast<std::size_t>(c)];
      EXPECT_EQ(((code >> c) & 1u) != 0, slot.size() > 1) << "corner " << c;
      if (slot.size() == 1) {
        EXPECT_EQ(node, slot.begin()->gid);
      } else {
        ASSERT_TRUE(table.count(node));
        const auto want = physical_point<Dim>(f.conn(), t, o.parent().corner_point(c));
        for (std::size_t d = 0; d < 3; ++d) EXPECT_NEAR(table.at(node)[d], want[d], 1e-12);
      }
      ASSERT_FALSE(slot.empty());
      EXPECT_TRUE(slot.size() == 1 || slot.size() == 2 || slot.size() == 4) << slot.size();
      double wsum = 0.0, value = 0.0;
      std::set<std::int64_t> gids;
      for (const auto& [gid, w] : slot) {
        ASSERT_TRUE(table.count(gid));
        EXPECT_EQ(w, 1.0 / static_cast<double>(slot.size()));
        gids.insert(gid);
        wsum += w;
        value += w * lin(table.at(gid));
      }
      EXPECT_EQ(gids.size(), slot.size());
      EXPECT_NEAR(wsum, 1.0, 1e-12);
      const auto cp = o.corner_point(c);
      EXPECT_NEAR(value, lin(physical_point<Dim>(f.conn(), t, cp)), 1e-9);
    }
    ++li;
  });
}

}  // namespace

class NodesRanks : public ::testing::TestWithParam<int> {};

TEST_P(NodesRanks, UniformSquareCountsAndIds) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    EXPECT_EQ(nodes.num_global, (8 + 1) * (8 + 1));
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, PeriodicBrickCounts) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    // On the torus every node is interior: exactly (2*4)^2 nodes.
    EXPECT_EQ(nodes.num_global, 64);
  });
}

TEST_P(NodesRanks, HangingNodesReproduceLinears2D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(5, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 21, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, HangingNodesReproduceLinears3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::brick({2, 1, 1}, {false, false, false});
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(4, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 31, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, CascadedHangingCorner3D) {
  // A corner-concentrated refinement grades down level by level after
  // balance: hanging corners at every level, each constrained by the
  // independent corners of a leaf one level coarser.
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(5, true, [&](int, const Octant<3>& o) {
      return o.x == 0 && o.y == 0 && o.z == 0 && o.level < 5;
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, CountIndependentOfRankCount) {
  const int p = GetParam();
  const auto count_with = [](int nranks) {
    std::int64_t total = 0;
    par::run(nranks, [&](par::Comm& c) {
      const auto conn = Connectivity<3>::rotcubes();
      auto f = Forest<3>::new_uniform(c, &conn, 1);
      f.refine(3, true, [&](int t, const Octant<3>& o) {
        return o.level < 3 && random_mark(t, o, 12, 4);
      });
      f.balance();
      f.partition();
      const auto g = GhostLayer<3>::build(f);
      const auto nodes = NodeNumbering<3>::build(f, g);
      if (c.rank() == 0) total = nodes.num_global;
    });
    return total;
  };
  EXPECT_EQ(count_with(p), count_with(1));
}

TEST_P(NodesRanks, MoebiusNumberingConsistent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 5, 3); });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    // Partition of unity everywhere; every owned key owned exactly once.
    std::size_t li = 0;
    f.for_each_local([&](int, const Octant<2>&) {
      for (int cc = 0; cc < 4; ++cc) {
        double wsum = 0.0;
        for (const auto& [gid, w] : nodes.slot(li, cc)) {
          wsum += w;
          EXPECT_GE(gid, 0);
          EXPECT_LT(gid, nodes.num_global);
        }
        EXPECT_NEAR(wsum, 1.0, 1e-12);
      }
      ++li;
    });
    // Global key uniqueness across owners.
    std::vector<typename NodeNumbering<2>::Key> mine = nodes.owned_keys;
    std::size_t total = 0;
    std::set<typename NodeNumbering<2>::Key> seen;
    for (const auto& from : c.allgatherv(mine)) {
      for (const auto& k : from) {
        EXPECT_TRUE(seen.insert(k).second);
        ++total;
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(total), nodes.num_global);
  });
}

TEST_P(NodesRanks, ShellNodesConsistent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    // Uniform level-1 shell: tangential nodes = cubed-sphere surface grid
    // with 4x4 cells per cap face: 6*16 quads -> 98 surface nodes; radial
    // layers = 2^1 + 1 = 3. Total 98 * 3.
    EXPECT_EQ(nodes.num_global, 98 * 3);
  });
}

TEST_P(NodesRanks, RejectsForestWhoseMastersHang) {
  // Refined without balance(): a deep octant two or more levels finer than
  // its neighbours puts masters of its hanging corners inside a coarse
  // neighbour's face or edge, which breaks Nodes' 2:1 precondition.
  constexpr std::int32_t h = Octant<3>::root_len / 2;
  const std::pair<std::array<std::int32_t, 3>, int> deep[] = {{{h, h, h}, 4}, {{h, 0, 0}, 3}};
  for (const auto& [corner, level] : deep) {
    std::string what = "no error";
    try {
      par::run(GetParam(), [&](par::Comm& c) {
        const auto conn = Connectivity<3>::unit();
        auto f = Forest<3>::new_uniform(c, &conn, 1);
        f.refine(level, true, [&](int, const Octant<3>& o) {
          return o.x == corner[0] && o.y == corner[1] && o.z == corner[2] && o.level < level;
        });
        const auto g = GhostLayer<3>::build(f);
        (void)NodeNumbering<3>::build(f, g);
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("2:1 balance"), std::string::npos) << "level " << level << ": " << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NodesRanks, ::testing::Values(1, 2, 3, 5));

namespace {

/// Build the numbering of a balanced, partitioned forest and fold every
/// rank's nodes_digest, in rank order, into one global digest.
template <int Dim>
std::uint64_t global_nodes_digest(Forest<Dim>& f) {
  f.partition();
  f.balance();
  f.partition();
  const auto g = GhostLayer<Dim>::build(f);
  const auto nodes = NodeNumbering<Dim>::build(f, g);
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t d : f.comm().allgather(nodes_digest(nodes))) {
    fold(h, static_cast<std::int64_t>(d));
  }
  return h;
}

struct GoldenInput {
  const char* name;
  std::uint64_t (*digest)(par::Comm&);
};

const GoldenInput kGoldenInputs[] = {
    // Fig. 4 fractal on rotcubes: inter-tree canonicalization at twisted joins.
    {"rotcubes_fractal_d4",
     [](par::Comm& c) {
       const auto conn = Connectivity<3>::rotcubes();
       auto f = Forest<3>::new_uniform(c, &conn, 1);
       for (int l = 1; l < 4; ++l) {
         f.refine(l + 1, false, [&](int, const Octant<3>& o) {
           const int id = o.child_id();
           return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
         });
       }
       return global_nodes_digest(f);
     }},
    {"shell_random",
     [](par::Comm& c) {
       const auto conn = Connectivity<3>::shell();
       auto f = Forest<3>::new_uniform(c, &conn, 1);
       f.refine(3, true, [&](int t, const Octant<3>& o) {
         return o.level < 3 && random_mark(t, o, 44, 5);
       });
       return global_nodes_digest(f);
     }},
    {"moebius_2d",
     [](par::Comm& c) {
       const auto conn = Connectivity<2>::moebius(5);
       auto f = Forest<2>::new_uniform(c, &conn, 2);
       f.refine(5, true, [&](int t, const Octant<2>& o) {
         return o.level < 5 && random_mark(t, o, 5, 3);
       });
       return global_nodes_digest(f);
     }},
    // Corner-concentrated refinement: hanging corners at every level of the
    // grading, split across ranks.
    {"corner_cascade_3d",
     [](par::Comm& c) {
       const auto conn = Connectivity<3>::unit();
       auto f = Forest<3>::new_uniform(c, &conn, 1);
       f.refine(5, true, [&](int, const Octant<3>& o) {
         return o.x == 0 && o.y == 0 && o.z == 0 && o.level < 5;
       });
       return global_nodes_digest(f);
     }},
    // The depth-5 fractal test_perf_ops runs (28,447 octants once balanced):
    // hanging points at four levels of the grading.
    {"rotcubes_fractal_d5",
     [](par::Comm& c) {
       const auto conn = Connectivity<3>::rotcubes();
       auto f = Forest<3>::new_uniform(c, &conn, 1);
       for (int l = 1; l < 5; ++l) {
         f.refine(l + 1, false, [&](int, const Octant<3>& o) {
           const int id = o.child_id();
           return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
         });
       }
       return global_nodes_digest(f);
     }},
};

/// Global digests of NodeNumbering::build on kGoldenInputs, per rank count.
/// The first four were recorded from the build that still shipped the
/// separate full-build and reference protocols, the depth-5 fractal from the
/// engine that still classified every point through a Touch array; every
/// later engine must reproduce them bit for bit.
const std::map<int, std::array<std::uint64_t, 5>> kGoldenDigests = {
    {1, {15403863147294489561ull, 16994733704208947595ull, 12791625188599600103ull,
         14850433102407055480ull, 248184482040584125ull}},
    {3, {8522349326037607413ull, 9039262585141140623ull, 8388227991027248329ull,
         3578277336020923308ull, 11517276537109597673ull}},
    {4, {8089449971905489525ull, 11285824715365274155ull, 9477503391606317881ull,
         6171056091998399683ull, 8855419842379714049ull}},
    {7, {5208298134487086254ull, 4375127375462378970ull, 4222116210796380643ull,
         11943564185088520370ull, 7465146292186581627ull}},
};

}  // namespace

class NodesGolden : public ::testing::TestWithParam<int> {};

TEST_P(NodesGolden, FullBuildMatchesRecordedDigests) {
  const int p = GetParam();
  const auto& want = kGoldenDigests.at(p);
  for (std::size_t i = 0; i < std::size(kGoldenInputs); ++i) {
    std::uint64_t got = 0;
    par::run(p, [&](par::Comm& c) {
      const std::uint64_t d = kGoldenInputs[i].digest(c);
      if (c.rank() == 0) got = d;
    });
    EXPECT_EQ(got, want[i]) << kGoldenInputs[i].name << " at P=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NodesGolden, ::testing::Values(1, 3, 4, 7));

namespace {

static_assert(sizeof(detail::PointRecord<3>) == 12);

/// The walker path's record against the lookup path's: the owner, the
/// hanging flag, and the constraining leaf's level and owner (the rank asked
/// for the masters).
template <int Dim>
void expect_same_record(const detail::PointRecord<Dim>& got, const detail::PointRecord<Dim>& want,
                        const char* name) {
  EXPECT_EQ(got.owner, want.owner) << name;
  ASSERT_EQ(got.hanging(), want.hanging()) << name;
  EXPECT_EQ(got.leaf_level, want.leaf_level) << name;
  EXPECT_EQ(got.leaf_owner, want.leaf_owner) << name;
}

/// Walk every tree of a balanced, partitioned forest with all local leaves
/// marked, then with a seeded ~5% of them, and hold each visit against the
/// directory-lookup path (the oracle): every tree-interior corner of a marked
/// leaf is reported exactly once, no other point is reported twice, no
/// tree-boundary point at all, each reported point touches a marked leaf,
/// and its leaves, corner indices and record match the lookups.
template <int Dim>
void check_corner_iterator(const Forest<Dim>& f, const char* name) {
  using Oct = Octant<Dim>;
  using Point = std::array<std::int32_t, 3>;
  constexpr int nc = Topo<Dim>::num_corners;
  const auto g = GhostLayer<Dim>::build(f);
  const detail::NodeClassifier<Dim> cl(f, g);
  const int me = f.comm().rank();
  for (const int mod : {1, 20}) {
    for (int t = 0; t < f.num_trees(); ++t) {
      const auto& dir = cl.dir[static_cast<std::size_t>(t)];
      std::vector<std::uint8_t> marked(dir.size(), 0);
      std::map<Point, int> want;  // tree-interior corners of marked leaves
      for (std::size_t i = 0; i < dir.size(); ++i) {
        if (dir[i].owner != me || !random_mark(t, dir[i].oct, 7, mod)) continue;
        marked[i] = 1;
        for (int c = 0; c < nc; ++c) {
          const Point cp = dir[i].oct.corner_point(c);
          if (detail::NodeClassifier<Dim>::tree_interior(cp)) want[cp] = 0;
        }
      }
      std::map<Point, int> seen;
      iterate_corners<Dim>(dir, marked, [&](const CornerAdjacency<Dim>& adj) {
        ++seen[adj.pt];
        EXPECT_TRUE(detail::NodeClassifier<Dim>::tree_interior(adj.pt)) << name;
        bool touches_marked = false;
        for (int i = 0; i < nc; ++i) {
          // The finest cell at position i around the point, and its leaf.
          Oct cell;
          cell.level = Oct::max_level;
          for (int a = 0; a < Dim; ++a) {
            cell.set_coord(a, adj.pt[static_cast<std::size_t>(a)] - (((i >> a) & 1) ? 0 : 1));
          }
          const LeafRef<Dim>* leaf = cl.find_leaf(t, cell);
          const std::int32_t want_leaf =
              leaf == nullptr ? -1 : static_cast<std::int32_t>(leaf - dir.data());
          ASSERT_EQ(adj.leaf[static_cast<std::size_t>(i)], want_leaf) << name;
          if (leaf == nullptr) continue;
          touches_marked = touches_marked || marked[static_cast<std::size_t>(want_leaf)] != 0;
          int corner = -1;
          for (int c = 0; c < nc; ++c) {
            if (leaf->oct.corner_point(c) == adj.pt) corner = c;
          }
          EXPECT_EQ(adj.corner[static_cast<std::size_t>(i)], corner) << name;
        }
        EXPECT_TRUE(touches_marked) << name;
        if (want.count(adj.pt) != 0) {
          expect_same_record(cl.classify_adjacency(t, adj), cl.classify(t, adj.pt), name);
        }
      });
      for (const auto& [pt, n] : seen) EXPECT_EQ(n, 1) << name << " tree " << t;
      for (const auto& [pt, n] : want) EXPECT_EQ(seen.count(pt), 1u) << name << " tree " << t;
    }
  }
}

template <int Dim>
void balance_and_check(Forest<Dim>& f, const char* name) {
  f.balance();
  f.partition();
  check_corner_iterator(f, name);
}

}  // namespace

class NodesIterate : public ::testing::TestWithParam<int> {};

TEST_P(NodesIterate, RandomForests2D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::pair<const char*, Connectivity<2>> conns[] = {
        {"unit", Connectivity<2>::unit()},
        {"periodic_brick", Connectivity<2>::brick({3, 2}, {true, true})},
        {"moebius", Connectivity<2>::moebius(5)}};
    for (const auto& [name, conn] : conns) {
      auto f = Forest<2>::new_uniform(c, &conn, 2);
      f.refine(6, true, [&](int t, const Octant<2>& o) {
        return o.level < 6 && random_mark(t, o, 13, 3);
      });
      balance_and_check(f, name);
    }
  });
}

TEST_P(NodesIterate, RandomForests3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::pair<const char*, Connectivity<3>> conns[] = {
        {"unit", Connectivity<3>::unit()},
        {"rotcubes", Connectivity<3>::rotcubes()},
        {"shell", Connectivity<3>::shell()}};
    for (const auto& [name, conn] : conns) {
      auto f = Forest<3>::new_uniform(c, &conn, 1);
      f.refine(4, true, [&](int t, const Octant<3>& o) {
        return o.level < 4 && random_mark(t, o, 17, 4);
      });
      balance_and_check(f, name);
    }
  });
}

TEST_P(NodesIterate, FewerLeavesThanRanks) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn2 = Connectivity<2>::unit();
    for (const int level : {0, 1}) {
      auto f = Forest<2>::new_uniform(c, &conn2, level);
      balance_and_check(f, level == 0 ? "unit2d_level0" : "unit2d_level1");
    }
    const auto conn3 = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn3, 0);
    balance_and_check(f, "unit3d_level0");
  });
}

TEST_P(NodesIterate, EqualCoarseLeavesTieToTheFirstQuadrant) {
  // Refining the two level-1 octants (0, 0, 0) and (h, h, 0) of the unit cube
  // leaves the midpoint of the z edge at x = y = h hanging on two level-1
  // leaves at once, (h, 0, 0) and (0, h, 0). The first in quadrant order,
  // (0, h, 0) (below the point along x), constrains it on both paths. The
  // record keeps only that leaf's level and owner, so the rule shows only
  // where the two leaves sit on different ranks: at P = 8 ((h, 0, 0) on rank
  // 2, (0, h, 0) on rank 3), not at P = 3, 4 or 7, where one rank holds both.
  constexpr std::int32_t h = Octant<3>::root_len / 2;
  const std::array<std::int32_t, 3> pt{h, h, h / 2};
  Octant<3> first;
  first.y = h;
  first.level = 1;
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(2, false, [&](int, const Octant<3>& o) {
      return o.level == 1 && o.z == 0 && o.x == o.y;
    });
    balance_and_check(f, "edge_tie");
    ASSERT_EQ(f.num_global(), 6 + 2 * 8);
    const auto g = GhostLayer<3>::build(f);
    const detail::NodeClassifier<3> cl(f, g);
    const auto& dir = cl.dir[0];
    std::vector<std::uint8_t> marked(dir.size(), 0);
    for (std::size_t i = 0; i < dir.size(); ++i) marked[i] = dir[i].owner == c.rank();
    int visits = 0;
    iterate_corners<3>(dir, marked, [&](const CornerAdjacency<3>& adj) {
      if (adj.pt != pt) return;
      ++visits;
      const auto rec = cl.classify_adjacency(0, adj);
      ASSERT_TRUE(rec.hanging());
      EXPECT_EQ(rec.leaf_level, first.level);
      const auto it = std::find_if(dir.begin(), dir.end(),
                                   [&](const LeafRef<3>& l) { return l.oct == first; });
      ASSERT_NE(it, dir.end());
      EXPECT_EQ(rec.leaf_owner, it->owner);
      expect_same_record(rec, cl.classify(0, pt), "edge_tie");
    });
    // Every rank owning a leaf at the point walks it; the others skip it.
    bool touches = false;
    f.for_each_local([&](int, const Octant<3>& o) {
      bool in = true;
      for (int a = 0; a < 3; ++a) {
        in = in && o.coord(a) <= pt[static_cast<std::size_t>(a)] &&
             pt[static_cast<std::size_t>(a)] <= o.coord(a) + o.size();
      }
      touches = touches || in;
    });
    EXPECT_EQ(visits, touches ? 1 : 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, NodesIterate, ::testing::Values(1, 3, 4, 7, 8));
