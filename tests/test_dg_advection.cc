// Tests for the dG advection solver: spectral convergence on periodic
// meshes, exactness of the RHS for constants, conservation across hanging
// faces, the dynamically adaptive driver (transfer + repartition), and
// recorded digests of the advected field (AdvectionGolden).
#include <gtest/gtest.h>

#include <cmath>

#include "digest.h"
#include "sfem/dg_advection.h"

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

/// L2 error after advecting a smooth periodic profile for a fixed time on a
/// uniform periodic 2x2-brick mesh at the given refinement level.
double advect_error_2d(par::Comm& c, int degree, int level, double tfinal) {
  const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
  auto f = Forest<2>::new_uniform(c, &conn, level);
  const auto g = GhostLayer<2>::build(f);
  const auto mesh = DgMesh<2>::build(f, g, degree, vertex_map<2>(conn));
  const std::array<double, 3> vel{0.7, 0.31, 0.0};
  Advection<2> adv(&mesh, [&](const std::array<double, 3>&) { return vel; });
  // Domain is [0,2]^2 periodic; profile period 2.
  const auto profile = [](double x, double y) {
    return std::sin(M_PI * x) * std::cos(M_PI * y);
  };
  std::vector<double> cfield(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
  for (std::size_t i = 0; i < cfield.size(); ++i) {
    cfield[i] = profile(mesh.coords[i * 3], mesh.coords[i * 3 + 1]);
  }
  const double dt0 = adv.stable_dt(0.4);
  const int nsteps = std::max(1, static_cast<int>(std::ceil(tfinal / dt0)));
  const double dt = tfinal / nsteps;
  for (int s = 0; s < nsteps; ++s) adv.step(cfield, dt);
  return adv.l2_error(cfield, [&](const std::array<double, 3>& x) {
    return profile(x[0] - vel[0] * tfinal, x[1] - vel[1] * tfinal);
  });
}

}  // namespace

class AdvectionRanks : public ::testing::TestWithParam<int> {};

TEST_P(AdvectionRanks, RhsVanishesForConstants) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(3, true, [&](int t, const Octant<2>& o) {
      return o.level < 3 && random_mark(t, o, 1, 3);
    });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    Advection<2> adv(&mesh, [](const std::array<double, 3>&) {
      return std::array<double, 3>{0.4, -0.9, 0.0};
    });
    // A constant field is an exact steady solution: free-stream preservation
    // including 2:1 hanging faces.
    std::vector<double> cf(static_cast<std::size_t>(mesh.n_local) * mesh.nv, 3.25);
    std::vector<double> out(cf.size(), 1.0);
    adv.rhs(cf, out);
    for (const double v : out) EXPECT_NEAR(v, 0.0, 1e-11);
  });
}

TEST_P(AdvectionRanks, SpectralAccuracyWithDegree) {
  par::run(GetParam(), [&](par::Comm& c) {
    // Fixed mesh, increasing order: error should drop fast (>= factor 5 per
    // degree for this smooth profile).
    double prev = 1e300;
    for (int degree : {1, 2, 3, 4}) {
      const double err = advect_error_2d(c, degree, 2, 0.1);
      if (degree > 1) {
        EXPECT_LT(err, prev / 4.0) << "degree " << degree;
      }
      prev = err;
    }
    EXPECT_LT(prev, 2e-5);
  });
}

TEST_P(AdvectionRanks, MeshConvergenceOrder) {
  par::run(GetParam(), [&](par::Comm& c) {
    // Degree 2: upwind dG converges between order N+1/2 and N+1.
    const double e1 = advect_error_2d(c, 2, 2, 0.1);
    const double e2 = advect_error_2d(c, 2, 3, 0.1);
    const double rate = std::log2(e1 / e2);
    EXPECT_GT(rate, 2.2);
    EXPECT_LT(e2, 2e-3);
  });
}

TEST_P(AdvectionRanks, ConservationOnHangingMesh) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 8, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    Advection<2> adv(&mesh, [](const std::array<double, 3>&) {
      return std::array<double, 3>{0.8, 0.45, 0.0};
    });
    std::vector<double> cf(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
    for (std::size_t i = 0; i < cf.size(); ++i) {
      cf[i] = std::sin(M_PI * mesh.coords[i * 3]) * std::sin(M_PI * mesh.coords[i * 3 + 1]) + 0.3;
    }
    const double mass0 = adv.integral(cf);
    const double dt = adv.stable_dt(0.3);
    for (int s = 0; s < 20; ++s) adv.step(cf, dt);
    const double mass1 = adv.integral(cf);
    // Affine periodic mesh with hanging faces: conservative to roundoff.
    EXPECT_NEAR(mass1, mass0, 1e-10 * std::abs(mass0) + 1e-12);
  });
}

TEST_P(AdvectionRanks, SolidBodyRotationOnAnnulus) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::ring(8);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 4, annulus_map(8));
    // Rigid rotation: u = omega x r (divergence-free, tangential at the
    // inner/outer boundaries).
    const double omega = 1.0;
    Advection<2> adv(&mesh, [omega](const std::array<double, 3>& x) {
      return std::array<double, 3>{-omega * x[1], omega * x[0], 0.0};
    });
    const auto gauss = [](double x, double y, double cx, double cy) {
      const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
      return std::exp(-40.0 * r2);
    };
    std::vector<double> cf(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
    for (std::size_t i = 0; i < cf.size(); ++i) {
      cf[i] = gauss(mesh.coords[i * 3], mesh.coords[i * 3 + 1], 0.775, 0.0);
    }
    // Rotate by a quarter turn; compare against the rotated profile.
    const double tfinal = M_PI / 2.0;
    const double dt0 = adv.stable_dt(0.4);
    const int nsteps = static_cast<int>(std::ceil(tfinal / dt0));
    const double dt = tfinal / nsteps;
    for (int s = 0; s < nsteps; ++s) adv.step(cf, dt);
    const double err = adv.l2_error(cf, [&](const std::array<double, 3>& x) {
      return gauss(x[0], x[1], 0.0, 0.775);
    });
    EXPECT_LT(err, 0.02);
  });
}

TEST_P(AdvectionRanks, AmrDriverTracksAMovingFront) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    AmrAdvectionDriver<2> driver(
        c, &conn, vertex_map<2>(conn),
        [](const std::array<double, 3>&) {
          return std::array<double, 3>{0.9, 0.4, 0.0};
        },
        /*degree=*/2, /*initial_level=*/2, /*max_level=*/4);
    const auto blob = [](const std::array<double, 3>& x) {
      const double r2 = (x[0] - 1.0) * (x[0] - 1.0) + (x[1] - 1.0) * (x[1] - 1.0);
      return std::exp(-30.0 * r2);
    };
    driver.initialize(blob, 2, 0.05, 0.01);
    const auto n0 = driver.forest().num_global();
    // The adapted mesh is finer than uniform level 2 but much coarser than
    // uniform level 4.
    EXPECT_GT(n0, 4 * 16);
    EXPECT_LT(n0, 4 * 256);
    const double mass0 = driver.advection().integral(driver.solution());
    driver.run(/*nsteps=*/24, /*adapt_every=*/8, /*cfl=*/0.35, 0.05, 0.01);
    const double mass1 = driver.advection().integral(driver.solution());
    EXPECT_NEAR(mass1, mass0, 1e-6 * std::abs(mass0) + 1e-10);
    EXPECT_TRUE(driver.forest().is_valid_local());
    EXPECT_GT(driver.amr_seconds() + driver.solve_seconds(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdvectionRanks, ::testing::Values(1, 2, 4));

namespace {

/// The Fig. 5 benchmark setup: degree-3 solid-body rotation of four Gaussian
/// fronts on the shell, levels 1-3, two initial adapt rounds, then 33 steps
/// with an adapt every 16 (two adapts, transfer and repartition included).
std::uint64_t shell_fronts_digest(par::Comm& c) {
  const auto conn = Connectivity<3>::shell();
  AmrAdvectionDriver<3> driver(
      c, &conn, shell_map(),
      [](const std::array<double, 3>& x) { return std::array<double, 3>{-x[1], x[0], 0.0}; },
      /*degree=*/3, /*initial_level=*/1, /*max_level=*/3);
  const auto fronts = [](const std::array<double, 3>& x) {
    double v = 0.0;
    for (int k = 0; k < 4; ++k) {
      const double phi = 2.0 * M_PI * k / 4.0;
      const double cx = 0.78 * std::cos(phi), cy = 0.78 * std::sin(phi);
      const double d2 = (x[0] - cx) * (x[0] - cx) + (x[1] - cy) * (x[1] - cy) + x[2] * x[2];
      v += std::exp(-60.0 * d2);
    }
    return v;
  };
  driver.initialize(fronts, 2, 0.05, 0.015);
  driver.run(/*nsteps=*/33, /*adapt_every=*/16, /*cfl=*/0.35, 0.05, 0.015);
  return field_digest<double>(c, driver.solution());
}

/// Degree 4 on two unit squares joined with a 180-degree rotation, refined
/// so that coarse and fine faces cross the rotated join; 20 steps of a
/// sheared flow through the join.
std::uint64_t rotated_join_digest(par::Comm& c) {
  MacroMesh<2> mm;
  mm.vertex_coords = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0}};
  mm.tree_to_vertex = {{0, 1, 2, 3}, {5, 3, 4, 1}};
  const auto conn = Connectivity<2>::build(mm);
  auto f = Forest<2>::new_uniform(c, &conn, 1);
  // The low half of each tree's own frame is finer. The trees' y axes point
  // opposite ways, so each half of the join is fine on one side only.
  f.refine(3, true, [&](int, const Octant<2>& o) {
    const auto half = Octant<2>::root_len / 2;
    return o.coord(1) < half ? o.level < 3 : o.level < 2 && o.coord(0) < half;
  });
  f.balance();
  f.partition();
  const auto g = GhostLayer<2>::build(f);
  const auto mesh = DgMesh<2>::build(f, g, 4, vertex_map<2>(conn));
  // Both trees meet through their face 1; count hanging faces on that join.
  std::int64_t join_coarse = 0, join_fine = 0;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    const auto& side = mesh.face(e, 1);
    if (side.nbr_face != 1) continue;
    join_coarse += side.kind == DgMesh<2>::FaceKind::coarse;
    join_fine += side.kind == DgMesh<2>::FaceKind::fine;
  }
  EXPECT_GT(c.allreduce(join_coarse, par::ReduceOp::sum), 0);
  EXPECT_GT(c.allreduce(join_fine, par::ReduceOp::sum), 0);

  Advection<2> adv(&mesh, [](const std::array<double, 3>& x) {
    return std::array<double, 3>{0.9 + 0.2 * x[1], 0.3 * std::sin(M_PI * x[0]), 0.0};
  });
  std::vector<double> cf(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
  for (std::size_t i = 0; i < cf.size(); ++i) {
    const double dx = mesh.coords[i * 3] - 0.8, dy = mesh.coords[i * 3 + 1] - 0.5;
    cf[i] = std::exp(-12.0 * (dx * dx + dy * dy));
  }
  const double dt = adv.stable_dt(0.35);
  for (int s = 0; s < 20; ++s) adv.step(cf, dt);
  return field_digest<double>(c, cf);
}

}  // namespace

/// The solver is bitwise P-invariant, so each input has one recorded digest
/// for every rank count. Kernel, mortar and halo-exchange changes must keep
/// these bit for bit.
class AdvectionGolden : public ::testing::TestWithParam<int> {};

TEST_P(AdvectionGolden, ShellFrontsMatchRecordedDigest) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::uint64_t d = shell_fronts_digest(c);
    if (c.rank() == 0) {
      EXPECT_EQ(d, 0x0cccc2065e32b096ull) << std::hex << d;
    }
  });
}

TEST_P(AdvectionGolden, RotatedJoinMatchesRecordedDigest) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::uint64_t d = rotated_join_digest(c);
    if (c.rank() == 0) {
      EXPECT_EQ(d, 0xdef6c7f336498553ull) << std::hex << d;
    }
  });
}

// 2 and 7 come after 1, 3, 4 so each earlier case name keeps its rank count.
INSTANTIATE_TEST_SUITE_P(Sizes, AdvectionGolden, ::testing::Values(1, 3, 4, 2, 7));
