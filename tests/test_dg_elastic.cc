// Tests for the velocity-strain dG elastic/acoustic wave solver: plane-wave
// propagation at the correct speeds, energy behavior (decaying with upwind
// fluxes, nearly conserved for resolved solutions), free-surface boundaries,
// heterogeneous (acoustic-elastic) interfaces, hanging faces, and agreement
// between the double and single-precision ("accelerated") kernels, and
// recorded digests of both kernels' fields (ElasticGolden).
#include <gtest/gtest.h>

#include <cmath>

#include "digest.h"
#include "sfem/dg_elastic.h"

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

/// Periodic 2D box [0,2]^2 with a plane wave along x. Returns the L2 error
/// of the velocity after time tf against the exact translated profile.
template <typename Real>
double plane_wave_error(par::Comm& c, int degree, int level, double tf, bool shear) {
  const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
  auto f = Forest<2>::new_uniform(c, &conn, level);
  const auto g = GhostLayer<2>::build(f);
  const auto mesh = DgMesh<2>::build(f, g, degree, vertex_map<2>(conn));
  const Material mat{1.2, 2.0, 1.0};  // rho, lambda, mu
  ElasticWave<2, Real> wave(&mesh, [&](const std::array<double, 3>&) { return mat; });
  const double cp = std::sqrt((mat.lambda + 2.0 * mat.mu) / mat.rho);
  const double cs = std::sqrt(mat.mu / mat.rho);
  const double cc = shear ? cs : cp;
  // Displacement u = A d g(x - c t), with d = x-hat (P) or y-hat (S):
  // v = -c A d g', E = sym(A d g' n-hat) with n-hat = x-hat.
  const auto gp = [](double x) { return std::sin(M_PI * x); };  // period 2
  auto q = wave.zero_state();
  const int nv = mesh.nv;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    for (int node = 0; node < nv; ++node) {
      const double x = mesh.coords[(static_cast<std::size_t>(e) * nv + node) * 3];
      const double gpx = gp(x);
      Real* qe = q.data() + static_cast<std::size_t>(e) * 5 * nv;
      if (!shear) {
        qe[0 * nv + node] = static_cast<Real>(-cc * gpx);  // vx
        qe[2 * nv + node] = static_cast<Real>(gpx);        // Exx
      } else {
        qe[1 * nv + node] = static_cast<Real>(-cc * gpx);        // vy
        qe[4 * nv + node] = static_cast<Real>(0.5 * gpx);        // Exy
      }
    }
  }
  const double dt0 = wave.stable_dt(0.3);
  const int nsteps = std::max(1, static_cast<int>(std::ceil(tf / dt0)));
  const double dt = tf / nsteps;
  for (int s = 0; s < nsteps; ++s) wave.step(q, dt);
  // Velocity error.
  double err = 0.0;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    for (int node = 0; node < nv; ++node) {
      const std::size_t nb = static_cast<std::size_t>(e) * nv + static_cast<std::size_t>(node);
      const double x = mesh.coords[nb * 3];
      const double exact = -cc * gp(x - cc * tf);
      const Real* qe = q.data() + static_cast<std::size_t>(e) * 5 * nv;
      const double d = static_cast<double>(qe[(shear ? 1 : 0) * nv + node]) - exact;
      err += mesh.mass[nb] * d * d;
    }
  }
  return std::sqrt(c.allreduce(err, par::ReduceOp::sum));
}

}  // namespace

class ElasticRanks : public ::testing::TestWithParam<int> {};

TEST_P(ElasticRanks, PWavePropagatesAtCp) {
  par::run(GetParam(), [&](par::Comm& c) {
    const double e1 = plane_wave_error<double>(c, 3, 2, 0.25, false);
    EXPECT_LT(e1, 5e-3);
  });
}

TEST_P(ElasticRanks, SWavePropagatesAtCs) {
  par::run(GetParam(), [&](par::Comm& c) {
    const double e1 = plane_wave_error<double>(c, 3, 2, 0.25, true);
    EXPECT_LT(e1, 5e-3);
  });
}

TEST_P(ElasticRanks, ConvergesWithResolution) {
  par::run(GetParam(), [&](par::Comm& c) {
    const double e1 = plane_wave_error<double>(c, 2, 2, 0.2, false);
    const double e2 = plane_wave_error<double>(c, 2, 3, 0.2, false);
    EXPECT_GT(std::log2(e1 / e2), 2.0);
  });
}

TEST_P(ElasticRanks, SinglePrecisionKernelAgrees) {
  par::run(GetParam(), [&](par::Comm& c) {
    const double ed = plane_wave_error<double>(c, 3, 2, 0.2, false);
    const double ef = plane_wave_error<float>(c, 3, 2, 0.2, false);
    // The float path solves the same problem to single precision.
    EXPECT_LT(std::abs(ed - ef), 5e-4);
  });
}

TEST_P(ElasticRanks, EnergyDecaysOnHangingMesh) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 3, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    ElasticWave<2> wave(&mesh, [](const std::array<double, 3>& x) {
      // Heterogeneous: stiffer in the left half.
      return x[0] < 1.0 ? Material{1.0, 3.0, 1.5} : Material{2.0, 1.0, 0.5};
    });
    auto q = wave.zero_state();
    const int nv = mesh.nv;
    for (std::int64_t e = 0; e < mesh.n_local; ++e) {
      for (int node = 0; node < nv; ++node) {
        const std::size_t nb = static_cast<std::size_t>(e) * nv + static_cast<std::size_t>(node);
        const double x = mesh.coords[nb * 3], y = mesh.coords[nb * 3 + 1];
        const double r2 = (x - 1.0) * (x - 1.0) + (y - 1.0) * (y - 1.0);
        q[static_cast<std::size_t>(e) * 5 * nv + node] = std::exp(-30.0 * r2);  // vx blob
      }
    }
    const double en0 = wave.energy(q);
    EXPECT_GT(en0, 0.0);
    const double dt = wave.stable_dt(0.3);
    double prev = en0;
    for (int s = 0; s < 30; ++s) {
      wave.step(q, dt);
      const double en = wave.energy(q);
      EXPECT_LE(en, prev * (1.0 + 1e-10));  // monotone decay (upwind)
      prev = en;
    }
    EXPECT_GT(prev, 0.1 * en0);  // but not absurdly dissipative
  });
}

TEST_P(ElasticRanks, FreeSurfaceReflectsWithoutLeaking) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    ElasticWave<2> wave(&mesh, [](const std::array<double, 3>&) {
      return Material{1.0, 1.0, 1.0};
    });
    auto q = wave.zero_state();
    const int nv = mesh.nv;
    for (std::int64_t e = 0; e < mesh.n_local; ++e) {
      for (int node = 0; node < nv; ++node) {
        const std::size_t nb = static_cast<std::size_t>(e) * nv + static_cast<std::size_t>(node);
        const double x = mesh.coords[nb * 3], y = mesh.coords[nb * 3 + 1];
        const double r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5);
        q[static_cast<std::size_t>(e) * 5 * nv + node] = std::exp(-60.0 * r2);
      }
    }
    const double en0 = wave.energy(q);
    const double dt = wave.stable_dt(0.3);
    for (int s = 0; s < 40; ++s) wave.step(q, dt);
    const double en = wave.energy(q);
    // Free surfaces reflect: energy stays bounded and mostly retained
    // (only upwind dissipation, no radiation).
    EXPECT_LE(en, en0 * (1.0 + 1e-9));
    EXPECT_GT(en, 0.2 * en0);
  });
}

TEST_P(ElasticRanks, AcousticLayerCarriesPWavesOnly) {
  par::run(GetParam(), [&](par::Comm& c) {
    // Fluid (mu = 0) occupying the whole domain: S impedance vanishes; the
    // solver must remain stable and propagate the acoustic wave.
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto mesh = DgMesh<2>::build(f, g, 3, vertex_map<2>(conn));
    const Material fluid{1.0, 2.25, 0.0};
    ElasticWave<2> wave(&mesh, [&](const std::array<double, 3>&) { return fluid; });
    const double cp = std::sqrt(fluid.lambda / fluid.rho);
    auto q = wave.zero_state();
    const int nv = mesh.nv;
    for (std::int64_t e = 0; e < mesh.n_local; ++e) {
      for (int node = 0; node < nv; ++node) {
        const double x = mesh.coords[(static_cast<std::size_t>(e) * nv + node) * 3];
        q[static_cast<std::size_t>(e) * 5 * nv + 0 * nv + node] = -cp * std::sin(M_PI * x);
        q[static_cast<std::size_t>(e) * 5 * nv + 2 * nv + node] = std::sin(M_PI * x);
      }
    }
    const double dt = wave.stable_dt(0.3);
    const double en0 = wave.energy(q);
    for (int s = 0; s < 25; ++s) wave.step(q, dt);
    const double en = wave.energy(q);
    EXPECT_TRUE(std::isfinite(en));
    EXPECT_LE(en, en0 * (1.0 + 1e-9));
    EXPECT_GT(en, 0.5 * en0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElasticRanks, ::testing::Values(1, 2, 3));

namespace {

/// 10 steps of a velocity blob on a randomly refined, balanced 2x1x1 brick
/// (periodic in x, free surfaces elsewhere) with three media: two solids and
/// an acoustic (mu = 0) layer, so same, coarse, fine and boundary faces all
/// carry both the elastic and the fluid Riemann branches.
template <typename Real>
std::uint64_t elastic_brick_digest(par::Comm& c) {
  const auto conn = Connectivity<3>::brick({2, 1, 1}, {true, false, false});
  auto f = Forest<3>::new_uniform(c, &conn, 1);
  // A splitmix64 pick: random_mark keys on bits that coarse octants share.
  f.refine(2, true, [&](int t, const Octant<3>& o) {
    std::uint64_t h = o.key() ^ static_cast<std::uint64_t>(t) << 40 ^ 0x5eedull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return o.level < 2 && (h ^ (h >> 31)) % 3 == 0;
  });
  f.balance();
  f.partition();
  const auto g = GhostLayer<3>::build(f);
  const auto mesh = DgMesh<3>::build(f, g, 3, vertex_map<3>(conn));
  ElasticWave<3, Real> wave(&mesh, [](const std::array<double, 3>& x) {
    if (x[2] > 0.75) return Material{1.0, 2.0, 0.0};
    return x[0] < 1.0 ? Material{1.0, 3.0, 1.5} : Material{2.0, 1.0, 0.5};
  });
  auto q = wave.zero_state();
  const int nv = mesh.nv;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    for (int node = 0; node < nv; ++node) {
      const std::size_t nb = static_cast<std::size_t>(e) * nv + static_cast<std::size_t>(node);
      const double dx = mesh.coords[nb * 3] - 0.9, dy = mesh.coords[nb * 3 + 1] - 0.5,
                   dz = mesh.coords[nb * 3 + 2] - 0.6;
      const double blob = std::exp(-20.0 * (dx * dx + dy * dy + dz * dz));
      Real* qe = q.data() + static_cast<std::size_t>(e) * ElasticWave<3, Real>::ncomp * nv;
      qe[0 * nv + node] = static_cast<Real>(blob);         // vx
      qe[2 * nv + node] = static_cast<Real>(-0.5 * blob);  // vz
      qe[6 * nv + node] = static_cast<Real>(0.25 * blob);  // Eyz
    }
  }
  const double dt = wave.stable_dt(0.3);
  for (int s = 0; s < 10; ++s) wave.step(q, dt);
  return field_digest<Real>(c, q);
}

}  // namespace

/// Both kernels are bitwise P-invariant, so each has one recorded digest for
/// every rank count. Kernel changes must keep these bit for bit.
class ElasticGolden : public ::testing::TestWithParam<int> {};

TEST_P(ElasticGolden, DoubleKernelMatchesRecordedDigest) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::uint64_t d = elastic_brick_digest<double>(c);
    if (c.rank() == 0) {
      EXPECT_EQ(d, 0x00a32c84cdb48d3cull) << std::hex << d;
    }
  });
}

TEST_P(ElasticGolden, FloatKernelMatchesRecordedDigest) {
  par::run(GetParam(), [&](par::Comm& c) {
    const std::uint64_t d = elastic_brick_digest<float>(c);
    if (c.rank() == 0) {
      EXPECT_EQ(d, 0x1cf460873d906d5bull) << std::hex << d;
    }
  });
}

// 2 and 7 come after 1, 3, 4 so each earlier case name keeps its rank count.
INSTANTIATE_TEST_SUITE_P(Sizes, ElasticGolden, ::testing::Values(1, 3, 4, 2, 7));

namespace {

/// stable_dt on a 2x1x1 brick whose fast medium (x < 0.9) is coarse (tree 0,
/// level 1) and whose fine elements (tree 1, level 2) are slow: a rank that
/// holds only fine elements must still bound the speed by the fast medium.
double mixed_media_dt(par::Comm& c) {
  const auto conn = Connectivity<3>::brick({2, 1, 1}, {false, false, false});
  auto f = Forest<3>::new_uniform(c, &conn, 1);
  f.refine(2, true, [](int t, const Octant<3>& o) { return t == 1 && o.level < 2; });
  f.balance();
  f.partition();
  const auto g = GhostLayer<3>::build(f);
  const auto mesh = DgMesh<3>::build(f, g, 3, vertex_map<3>(conn));
  const ElasticWave<3> wave(&mesh, [](const std::array<double, 3>& x) {
    return x[0] < 0.9 ? Material{1.0, 8.0, 4.0} : Material{1.0, 1.0, 0.5};
  });
  return wave.stable_dt(0.3);
}

}  // namespace

/// The step is a global bound, so every rank count returns the P = 1 bits.
class ElasticStableDt : public ::testing::TestWithParam<int> {};

TEST_P(ElasticStableDt, MatchesOneRankBitForBit) {
  double serial = 0.0;
  par::run(1, [&](par::Comm& c) { serial = mixed_media_dt(c); });
  // cfl * h / (c_p * N^2) with h = 1/4, c_p = 4, N = 3.
  EXPECT_NEAR(serial, 0.3 * 0.25 / (4.0 * 9.0), 1e-15);
  par::run(GetParam(), [&](par::Comm& c) { EXPECT_EQ(mixed_media_dt(c), serial); });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElasticStableDt, ::testing::Values(4, 8, 9));
