// Cross-cutting integration tests: end-to-end pipelines, cross-rank
// determinism, and output sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "forest/nodes.h"
#include "io/vtk.h"
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

/// The refined + balanced forest must be identical (as a set of leaves)
/// regardless of the rank count. (Coarsen is deliberately excluded: like
/// p4est, it skips families that straddle a rank boundary, so its outcome
/// legitimately depends on the partition.)
template <int Dim>
std::uint64_t pipeline_checksum(int nranks, const Connectivity<Dim>& conn) {
  std::uint64_t sum = 0;
  par::run(nranks, [&](par::Comm& c) {
    auto f = Forest<Dim>::new_uniform(c, &conn, 1);
    f.refine(4, true, [&](int t, const Octant<Dim>& o) {
      return o.level < 4 && random_mark(t, o, 7, 3);
    });
    f.balance();
    f.partition();
    f.refine(5, false, [&](int t, const Octant<Dim>& o) { return random_mark(t, o, 9, 5); });
    f.balance();
    const auto cs = f.checksum();
    if (c.rank() == 0) sum = cs;
  });
  return sum;
}

}  // namespace

TEST(Integration, PipelineDeterministicAcrossRankCounts2D) {
  const auto conn = Connectivity<2>::brick({2, 2}, {true, false});
  const auto ref = pipeline_checksum<2>(1, conn);
  EXPECT_EQ(pipeline_checksum<2>(2, conn), ref);
  EXPECT_EQ(pipeline_checksum<2>(5, conn), ref);
}

TEST(Integration, PipelineDeterministicAcrossRankCounts3D) {
  const auto conn = Connectivity<3>::rotcubes();
  const auto ref = pipeline_checksum<3>(1, conn);
  EXPECT_EQ(pipeline_checksum<3>(3, conn), ref);
  EXPECT_EQ(pipeline_checksum<3>(4, conn), ref);
}

TEST(Integration, ShellAdvectionKeepsElementCountRoughlyConstant) {
  // Paper §III-B: the adaptivity keeps the overall number of elements
  // roughly constant while the fronts advect.
  par::run(2, [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    sfem::AmrAdvectionDriver<3> driver(
        c, &conn, sfem::shell_map(),
        [](const std::array<double, 3>& x) {
          return std::array<double, 3>{-x[1], x[0], 0.0};
        },
        2, 1, 3);
    const auto blob = [](const std::array<double, 3>& x) {
      const double d2 = (x[0] - 0.78) * (x[0] - 0.78) + x[1] * x[1] + x[2] * x[2];
      return std::exp(-60.0 * d2);
    };
    driver.initialize(blob, 2, 0.06, 0.02);
    const auto n0 = driver.forest().num_global();
    driver.run(18, 6, 0.35, 0.06, 0.02);
    const auto n1 = driver.forest().num_global();
    EXPECT_GT(n1, n0 / 2);
    EXPECT_LT(n1, n0 * 2);
    // Counts stay balanced across ranks after repartitioning.
    const auto& counts = driver.forest().global_counts();
    std::int64_t lo = counts[0], hi = counts[0];
    for (const auto n : counts) {
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_LE(hi - lo, 1);
  });
}

TEST(Integration, VtkOutputIsWellFormed) {
  par::run(1, [&](par::Comm& c) {
    const auto conn = Connectivity<2>::ring(6);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(3, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 4, 3); });
    f.balance();
    std::vector<double> field;
    f.for_each_local([&](int, const Octant<2>& o) { field.push_back(o.level); });
    const std::string path = "/tmp/esamr_vtk_test.vtk";
    io::write_forest_vtk<2>(f, io::vertex_geometry<2>(conn), path, {{"lvl", field}});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "# vtk DataFile Version 3.0");
    // Point count on the POINTS line matches 4 corners per element.
    std::size_t npoints = 0, ncells = 0;
    while (std::getline(in, line)) {
      if (line.rfind("POINTS ", 0) == 0) npoints = std::stoul(line.substr(7));
      if (line.rfind("CELLS ", 0) == 0) ncells = std::stoul(line.substr(6));
    }
    EXPECT_EQ(npoints, static_cast<std::size_t>(f.num_local()) * 4);
    EXPECT_EQ(ncells, static_cast<std::size_t>(f.num_local()));
    std::remove(path.c_str());
  });
}

TEST(Integration, GhostNodesStableUnderRepartition) {
  // Node count and slot expansions must be invariant under a weighted
  // repartition that moves most elements.
  par::run(4, [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 2, 3);
    });
    f.balance();
    const auto g1 = GhostLayer<2>::build(f);
    const auto n1 = NodeNumbering<2>::build(f, g1);
    f.partition([](int, const Octant<2>& o) { return o.level == 4 ? 10.0 : 1.0; });
    const auto g2 = GhostLayer<2>::build(f);
    const auto n2 = NodeNumbering<2>::build(f, g2);
    EXPECT_EQ(n1.num_global, n2.num_global);
    // Partition-of-unity still holds everywhere after the move.
    ASSERT_EQ(n2.num_elements(), static_cast<std::size_t>(f.num_local()));
    for (std::size_t e = 0; e < n2.num_elements(); ++e) {
      for (int c = 0; c < 4; ++c) {
        double w = 0.0;
        for (const auto& cc : n2.slot(e, c)) w += cc.weight;
        EXPECT_NEAR(w, 1.0, 1e-12);
      }
    }
  });
}

TEST(Integration, EmptyRanksSurviveWholePipeline) {
  // More ranks than octants: New with level 0 leaves most ranks empty; the
  // whole pipeline must still work.
  par::run(7, [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 0);
    EXPECT_EQ(f.num_global(), 1);
    f.refine(2, true, [](int, const Octant<2>&) { return true; });
    f.balance();
    f.partition();
    EXPECT_EQ(f.num_global(), 16);
    const auto g = GhostLayer<2>::build(f);
    const auto n = NodeNumbering<2>::build(f, g);
    EXPECT_EQ(n.num_global, 25);
  });
}
