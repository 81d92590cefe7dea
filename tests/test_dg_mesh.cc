// Tests for the dG mesh layer: face neighbor classification, orientation
// alignment across rotated inter-tree connections, hanging-face pairing, and
// geometric watertightness — my face nodes must coincide physically with the
// neighbor's mapped face nodes, including interpolated 2:1 faces — the
// node-map rows shared per (tree, face) connection, and the ghost-adjacent
// element set that the overlapped halo exchange relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <type_traits>

#include "sfem/dg_mesh.h"

using namespace esamr::sfem;
using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

/// Verify that for every interior face, my face-node coordinates equal the
/// neighbor's (orientation-mapped, and half-interpolated at 2:1 interfaces)
/// face-node coordinates. This exercises node_map, half_bits, subface
/// pairing, and ghost exchange at once.
///
/// `period` > 0 compares modulo the periodic box size. `hang_tol` relaxes
/// the 2:1 comparisons: on curved (non-polynomial) geometry the hanging-face
/// match is only as good as the interpolation error, O(h^{N+1}) — the
/// standard isoparametric mortar mismatch.
template <int Dim>
void expect_watertight(const DgMesh<Dim>& mesh, double tol = 1e-9, double period = 0.0,
                       double hang_tol = 0.0) {
  if (hang_tol == 0.0) hang_tol = tol;
  const auto diff = [&](double a, double b) {
    return period > 0.0 ? std::abs(std::remainder(a - b, period)) : std::abs(a - b);
  };
  const int np = mesh.np, nv = mesh.nv, npf = mesh.npf;
  const auto ghost_xyz =
      mesh.ghost->exchange(mesh.forest->comm(), std::span<const double>(mesh.coords), nv * 3);
  const Basis1d& b = mesh.basis;
  std::vector<double> t0(static_cast<std::size_t>(npf)), t1(static_cast<std::size_t>(npf));

  int checked = 0;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    for (int f = 0; f < DgMesh<Dim>::nfaces; ++f) {
      const auto& side = mesh.face(e, f);
      if (side.kind == DgMesh<Dim>::FaceKind::boundary) continue;
      const auto fni = face_node_indices(Dim, np, f);

      const auto nbr_coord = [&](int slot, int d) {
        const double* src = side.nbr_ghost[static_cast<std::size_t>(slot)]
                                ? ghost_xyz.data() +
                                      static_cast<std::size_t>(side.nbr[static_cast<std::size_t>(slot)]) * nv * 3
                                : mesh.coords.data() +
                                      static_cast<std::size_t>(side.nbr[static_cast<std::size_t>(slot)]) * nv * 3;
        const auto nfni = face_node_indices(Dim, np, side.nbr_face);
        std::vector<double> vals(static_cast<std::size_t>(npf));
        for (int q = 0; q < npf; ++q) {
          vals[static_cast<std::size_t>(q)] =
              src[nfni[static_cast<std::size_t>(mesh.node_map(side)[q])] * 3 + d];
        }
        return vals;
      };

      for (int d = 0; d < 3; ++d) {
        std::vector<double> mine(static_cast<std::size_t>(npf));
        for (int q = 0; q < npf; ++q) {
          mine[static_cast<std::size_t>(q)] =
              mesh.coords[(static_cast<std::size_t>(e) * nv +
                           static_cast<std::size_t>(fni[static_cast<std::size_t>(q)])) *
                              3 +
                          static_cast<std::size_t>(d)];
        }
        if (side.kind == DgMesh<Dim>::FaceKind::same) {
          const auto theirs = nbr_coord(0, d);
          for (int q = 0; q < npf; ++q) {
            EXPECT_LE(diff(mine[static_cast<std::size_t>(q)], theirs[static_cast<std::size_t>(q)]), tol);
          }
        } else if (side.kind == DgMesh<Dim>::FaceKind::coarse) {
          auto theirs = nbr_coord(0, d);
          std::memcpy(t0.data(), theirs.data(), sizeof(double) * static_cast<std::size_t>(npf));
          for (int k = 0; k < Dim - 1; ++k) {
            apply_face_axis(Dim, np, k, b.interp_half[(side.half_bits >> k) & 1].data(), t0.data(),
                            t1.data());
            std::swap(t0, t1);
          }
          for (int q = 0; q < npf; ++q) {
            EXPECT_LE(diff(mine[static_cast<std::size_t>(q)], t0[static_cast<std::size_t>(q)]), hang_tol);
          }
        } else {  // fine
          for (int s = 0; s < DgMesh<Dim>::nsub; ++s) {
            std::memcpy(t0.data(), mine.data(), sizeof(double) * static_cast<std::size_t>(npf));
            for (int k = 0; k < Dim - 1; ++k) {
              apply_face_axis(Dim, np, k, b.interp_half[(s >> k) & 1].data(), t0.data(), t1.data());
              std::swap(t0, t1);
            }
            const auto theirs = nbr_coord(s, d);
            for (int q = 0; q < npf; ++q) {
              EXPECT_LE(diff(t0[static_cast<std::size_t>(q)], theirs[static_cast<std::size_t>(q)]), hang_tol);
            }
          }
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace

class DgMeshRanks : public ::testing::TestWithParam<int> {};

TEST_P(DgMeshRanks, UniformBrick2DMetric) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto geom = vertex_map<2>(conn);
    const auto mesh = DgMesh<2>::build(f, g, 3, geom);
    // Each element is an axis-aligned square of side 1/4 in a 2x1 brick:
    // detJ = (h/2)^2 with h = 0.25.
    for (std::size_t i = 0; i < mesh.jdet.size(); ++i) {
      EXPECT_NEAR(mesh.jdet[i], 0.125 * 0.125, 1e-12);
    }
    // Total volume = sum of mass = 2.0.
    double vol = 0.0;
    for (const double m : mesh.mass) vol += m;
    EXPECT_NEAR(c.allreduce(vol, par::ReduceOp::sum), 2.0, 1e-10);
    expect_watertight(mesh);
  });
}

TEST_P(DgMeshRanks, AdaptiveBrick2DWatertight) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, false});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 3, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 2, vertex_map<2>(conn));
    expect_watertight(mesh, 1e-9, /*period=*/2.0);
  });
}

TEST_P(DgMeshRanks, RotatedTreePairWatertight2D) {
  // Two unit squares where the second tree's frame is rotated by 180
  // degrees: the face connection reverses the tangential index, exercising
  // the node_map sign handling in 2D.
  par::run(GetParam(), [&](par::Comm& c) {
    MacroMesh<2> mm;
    mm.vertex_coords = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0}};
    mm.tree_to_vertex = {{0, 1, 2, 3}, {5, 3, 4, 1}};
    const auto conn = Connectivity<2>::build(mm);
    conn.validate();
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<2>& o) {
      return o.level < 3 && random_mark(t, o, 13, 3);
    });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    expect_watertight(mesh);
  });
}

TEST_P(DgMeshRanks, RotcubesWatertight3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 6, 4);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto mesh = DgMesh<3>::build(f, g, 2, vertex_map<3>(conn));
    expect_watertight(mesh);
  });
}

TEST_P(DgMeshRanks, ShellWatertightSmoothGeometry) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(2, false, [&](int t, const Octant<3>& o) { return random_mark(t, o, 17, 5); });
    f.balance();
    const auto g = GhostLayer<3>::build(f);
    const auto mesh = DgMesh<3>::build(f, g, 3, shell_map());
    expect_watertight(mesh, 1e-9, 0.0, /*hang_tol=*/1e-3);
    // Shell volume = 4/3 pi (1 - 0.55^3); spectral quadrature of the smooth
    // geometry converges fast — a level-1+ mesh with degree 3 is within ~1%.
    double vol = 0.0;
    for (const double m : mesh.mass) vol += m;
    vol = c.allreduce(vol, par::ReduceOp::sum);
    const double exact = 4.0 / 3.0 * M_PI * (1.0 - std::pow(0.55, 3));
    EXPECT_NEAR(vol, exact, 0.01 * exact);
  });
}

TEST_P(DgMeshRanks, AnnulusVolume) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::ring(8);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 4, annulus_map(8));
    double vol = 0.0;
    for (const double m : mesh.mass) vol += m;
    vol = c.allreduce(vol, par::ReduceOp::sum);
    const double exact = M_PI * (1.0 - 0.55 * 0.55);
    EXPECT_NEAR(vol, exact, 1e-6 * exact);
    expect_watertight(mesh, 1e-12);
  });
}

static_assert(std::is_trivially_copyable_v<DgMesh<2>::FaceSide>);
static_assert(std::is_trivially_copyable_v<DgMesh<3>::FaceSide>);

namespace {

/// Node-map rows: row 0 is the identity and serves every face whose
/// neighbor is in its own tree; every other face shares the one row of its
/// (tree, face) connection, and each connection in use has its own row.
template <int Dim>
void expect_node_map_rows(const Forest<Dim>& f, const DgMesh<Dim>& mesh) {
  constexpr int nfaces = DgMesh<Dim>::nfaces;
  const auto npf = static_cast<std::size_t>(mesh.npf);
  ASSERT_EQ(mesh.node_maps.size() % npf, 0u);
  const std::size_t rows = mesh.node_maps.size() / npf;
  for (std::size_t q = 0; q < npf; ++q) EXPECT_EQ(mesh.node_maps[q], static_cast<std::int32_t>(q));
  std::map<std::pair<int, int>, std::int32_t> row_of;  // (tree, face) -> row
  std::int64_t e = 0;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    for (int fc = 0; fc < nfaces; ++fc) {
      const auto& side = mesh.face(e, fc);
      if (side.kind == DgMesh<Dim>::FaceKind::boundary) continue;
      if (o.face_neighbor(fc).inside_root()) {
        EXPECT_EQ(side.node_map, 0);
        continue;
      }
      EXPECT_GT(side.node_map, 0);
      EXPECT_LT(static_cast<std::size_t>(side.node_map), rows);
      const auto it = row_of.emplace(std::pair{t, fc}, side.node_map).first;
      EXPECT_EQ(it->second, side.node_map) << "tree " << t << " face " << fc;
    }
    ++e;
  });
  // One row per connection in use, beyond the identity.
  std::set<std::int32_t> distinct;
  for (const auto& [key, row] : row_of) distinct.insert(row);
  EXPECT_EQ(distinct.size(), row_of.size());
  EXPECT_EQ(rows, 1 + row_of.size());
  EXPECT_LE(rows, 1 + static_cast<std::size_t>(f.num_trees()) * nfaces);
}

}  // namespace

TEST_P(DgMeshRanks, NodeMapRowsPerTreeFaceConnection) {
  par::run(GetParam(), [&](par::Comm& c) {
    {
      const auto conn = Connectivity<3>::shell();
      auto f = Forest<3>::new_uniform(c, &conn, 1);
      f.refine(2, false, [&](int t, const Octant<3>& o) { return random_mark(t, o, 17, 5); });
      f.balance();
      const auto g = GhostLayer<3>::build(f);
      expect_node_map_rows(f, DgMesh<3>::build(f, g, 3, shell_map()));
    }
    MacroMesh<2> mm;
    mm.vertex_coords = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0}};
    mm.tree_to_vertex = {{0, 1, 2, 3}, {5, 3, 4, 1}};
    const auto conn = Connectivity<2>::build(mm);
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<2>& o) {
      return o.level < 3 && random_mark(t, o, 13, 3);
    });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    expect_node_map_rows(f, DgMesh<2>::build(f, g, 3, vertex_map<2>(conn)));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DgMeshRanks, ::testing::Values(1, 2, 3));

namespace {

/// mesh.ghost_adjacent must list, ascending, exactly the local elements with
/// some nbr_ghost slot set: the elements a dG stage computes only after the
/// halo exchange has finished.
template <int Dim>
void expect_ghost_adjacent_exact(const DgMesh<Dim>& mesh) {
  std::vector<std::int32_t> want;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    bool ghost = false;
    for (int f = 0; f < DgMesh<Dim>::nfaces; ++f) {
      for (const std::uint8_t g : mesh.face(e, f).nbr_ghost) ghost = ghost || g != 0;
    }
    if (ghost) want.push_back(static_cast<std::int32_t>(e));
  }
  EXPECT_EQ(mesh.ghost_adjacent, want);
  // Every rank of a connected mesh has a partition boundary.
  EXPECT_FALSE(want.empty());
}

}  // namespace

class DgMeshGhostAdjacent : public ::testing::TestWithParam<int> {};

TEST_P(DgMeshGhostAdjacent, AdaptivePeriodicBrick2D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 8, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    expect_ghost_adjacent_exact(DgMesh<2>::build(f, g, 2, vertex_map<2>(conn)));
  });
}

TEST_P(DgMeshGhostAdjacent, AdaptiveRotcubes3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 6, 4);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    expect_ghost_adjacent_exact(DgMesh<3>::build(f, g, 1, vertex_map<3>(conn)));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DgMeshGhostAdjacent, ::testing::Values(2, 3, 4));
