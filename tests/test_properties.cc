// Additional property sweeps across connectivities and rank counts: the
// strongest invariants of the stack exercised on the hardest macro meshes
// (rotated frames, periodicity, high-valence corners).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "forest/nodes.h"
#include "sfem/dg_advection.h"

using namespace esamr;
using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

template <int Dim>
std::array<double, 3> physical_point(const Connectivity<Dim>& conn, int tree,
                                     std::array<std::int32_t, 3> p) {
  const auto& tv = conn.tree_to_vertex()[static_cast<std::size_t>(tree)];
  std::array<double, 3> x{0, 0, 0};
  for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
    double w = 1.0;
    for (int a = 0; a < Dim; ++a) {
      const double r = static_cast<double>(p[static_cast<std::size_t>(a)]) / Octant<Dim>::root_len;
      w *= ((c >> a) & 1) ? r : (1.0 - r);
    }
    const auto& v = conn.vertex_coords()[static_cast<std::size_t>(tv[static_cast<std::size_t>(c)])];
    for (int d = 0; d < 3; ++d) x[static_cast<std::size_t>(d)] += w * v[static_cast<std::size_t>(d)];
  }
  return x;
}

}  // namespace

class PropertyRanks : public ::testing::TestWithParam<int> {};

TEST_P(PropertyRanks, NodesReproduceLinearsAcrossRotatedTrees) {
  // Rotcubes: six affine trees with mutually rotated coordinate frames and a
  // valence-6 corner. Hanging-node expansions must still reproduce global
  // linear functions in PHYSICAL space — the sharpest test of inter-tree
  // canonicalization with rotations.
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 6, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);

    // Gather gid -> physical position from all owners.
    struct Entry {
      std::int64_t gid;
      double x, y, z;
    };
    std::vector<Entry> local;
    for (std::size_t i = 0; i < nodes.owned_keys.size(); ++i) {
      const auto& k = nodes.owned_keys[i];
      const auto pos = physical_point<3>(conn, k[0], {k[1], k[2], k[3]});
      local.push_back({nodes.owned_offset + static_cast<std::int64_t>(i), pos[0], pos[1], pos[2]});
    }
    std::map<std::int64_t, std::array<double, 3>> table;
    for (const auto& from : c.allgatherv(local)) {
      for (const Entry& e : from) table[e.gid] = {e.x, e.y, e.z};
    }
    const auto lin = [](const std::array<double, 3>& x) {
      return 0.3 + 1.1 * x[0] - 0.6 * x[1] + 0.8 * x[2];
    };
    std::size_t li = 0;
    f.for_each_local([&](int t, const Octant<3>& o) {
      for (int corner = 0; corner < 8; ++corner) {
        double val = 0.0, wsum = 0.0;
        for (const auto& [gid, w] : nodes.slot(li, corner)) {
          ASSERT_TRUE(table.count(gid));
          val += w * lin(table.at(gid));
          wsum += w;
        }
        EXPECT_NEAR(wsum, 1.0, 1e-12);
        const auto cp = o.corner_point(corner);
        EXPECT_NEAR(val, lin(physical_point<3>(conn, t, cp)), 1e-9);
      }
      ++li;
    });
  });
}

TEST_P(PropertyRanks, BalanceIdempotentOnShell) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 14, 5);
    });
    f.balance();
    const auto sum = f.checksum();
    f.partition();
    f.balance();  // repartitioning must not disturb the balanced state
    EXPECT_EQ(f.checksum(), sum);
  });
}

TEST_P(PropertyRanks, Advection3DConservesOnHangingMesh) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::brick({2, 2, 2}, {true, true, true});
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 4, 4);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto mesh = sfem::DgMesh<3>::build(f, g, 2, sfem::vertex_map<3>(conn));
    sfem::Advection<3> adv(&mesh, [](const std::array<double, 3>&) {
      return std::array<double, 3>{0.5, 0.3, -0.4};
    });
    std::vector<double> cf(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
    for (std::size_t i = 0; i < cf.size(); ++i) {
      cf[i] = 0.4 + std::sin(M_PI * mesh.coords[i * 3]) * std::cos(M_PI * mesh.coords[i * 3 + 2]);
    }
    const double mass0 = adv.integral(cf);
    const double dt = adv.stable_dt(0.3);
    for (int s = 0; s < 8; ++s) adv.step(cf, dt);
    EXPECT_NEAR(adv.integral(cf), mass0, 1e-10 * std::abs(mass0));
  });
}

TEST_P(PropertyRanks, GhostCountSymmetric) {
  // The total number of (mirror -> rank) sends equals the total number of
  // ghosts globally: every ghost is someone's mirror entry.
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 11, 3);
    });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    std::int64_t sends = 0;
    for (const auto& lst : g.mirror_lists) sends += static_cast<std::int64_t>(lst.size());
    const auto total_sends = c.allreduce(sends, par::ReduceOp::sum);
    const auto total_ghosts =
        c.allreduce(static_cast<std::int64_t>(g.ghosts.size()), par::ReduceOp::sum);
    EXPECT_EQ(total_sends, total_ghosts);
  });
}

TEST_P(PropertyRanks, WeightedPartitionBalancesWeight) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    const auto weight = [](int, const Octant<2>& o) {
      return o.x < Octant<2>::root_len / 2 ? 9.0 : 1.0;
    };
    f.partition(weight);
    double mine = 0.0;
    f.for_each_local([&](int t, const Octant<2>& o) { mine += weight(t, o); });
    const double total = c.allreduce(mine, par::ReduceOp::sum);
    const double target = total / c.size();
    // Each rank's weight share is within one heavy element of the target.
    EXPECT_LE(std::abs(mine - target), 9.0 + 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, PropertyRanks, ::testing::Values(1, 2, 3, 5));
