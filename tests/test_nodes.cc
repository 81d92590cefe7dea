// Tests for Nodes: globally unique numbering with hanging constraints.
// Key properties:
//  * slot weights always sum to one (partition of unity),
//  * the numbering is independent of the rank count,
//  * on affine macro meshes the constrained interpolation reproduces global
//    linear functions exactly — this exercises hanging face/edge constraints
//    and inter-tree canonicalization at once,
//  * build() emits exactly the recorded digests (NodesGolden): every gid,
//    weight bit, owned key and gid key on four inputs at four rank counts.
#include <gtest/gtest.h>

#include <array>
#include <map>

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

/// Check partition of unity and linear reproduction on an affine mesh.
template <int Dim>
void expect_linear_reproduction(const Forest<Dim>& f, const NodeNumbering<Dim>& nodes) {
  const auto table = gather_node_positions(f.comm(), f.conn(), nodes);
  const auto lin = [](const std::array<double, 3>& x) {
    return 0.7 + 1.3 * x[0] - 0.4 * x[1] + 2.1 * x[2];
  };
  std::size_t li = 0;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
      const auto& slot = nodes.elements[li][static_cast<std::size_t>(c)];
      ASSERT_FALSE(slot.empty());
      double wsum = 0.0, value = 0.0;
      for (const auto& [gid, w] : slot) {
        ASSERT_TRUE(table.count(gid));
        wsum += w;
        value += w * lin(table.at(gid));
      }
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
  // A corner-concentrated refinement produces hanging nodes whose masters
  // can themselves hang (constraint chains).
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
        for (const auto& [gid, w] : nodes.elements[li][static_cast<std::size_t>(cc)]) {
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
    // Corner-concentrated refinement: constraint chains across ranks.
    {"corner_cascade_3d",
     [](par::Comm& c) {
       const auto conn = Connectivity<3>::unit();
       auto f = Forest<3>::new_uniform(c, &conn, 1);
       f.refine(5, true, [&](int, const Octant<3>& o) {
         return o.x == 0 && o.y == 0 && o.z == 0 && o.level < 5;
       });
       return global_nodes_digest(f);
     }},
};

/// Global digests of NodeNumbering::build on kGoldenInputs, per rank count.
/// Recorded from the build that still shipped the separate full-build and
/// reference protocols; the merged engine must reproduce them bit for bit.
const std::map<int, std::array<std::uint64_t, 4>> kGoldenDigests = {
    {1, {15403863147294489561ull, 16994733704208947595ull, 12791625188599600103ull,
         14850433102407055480ull}},
    {3, {8522349326037607413ull, 9039262585141140623ull, 8388227991027248329ull,
         3578277336020923308ull}},
    {4, {8089449971905489525ull, 11285824715365274155ull, 9477503391606317881ull,
         6171056091998399683ull}},
    {7, {5208298134487086254ull, 4375127375462378970ull, 4222116210796380643ull,
         11943564185088520370ull}},
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
