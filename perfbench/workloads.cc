// The benchmark workloads and the solver probe, composed from the library's
// public API so that every call into a layer can be timed (and traced) from
// outside.
//
//   fractal_build   Fig. 4 pipeline New -> Refine -> Partition -> Balance ->
//                   Ghost -> Nodes on the six-tree rotcubes forest.
//   front_adapt     small-delta incremental adapt of a spherical front on a
//                   closed orbit, with a delta checkpoint every step.
//   advect_shell    Fig. 5 degree-3 dG advection on the 24-tree shell,
//                   re-adapting every 16 steps as AmrAdvectionDriver does.
//   mantle_annulus  Fig. 7 MantleSimulation on the 8-tree annulus; run.py
//                   uses it as the solver probe of traced runs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/mantle.h"
#include "bench.h"
#include "forest/delta.h"
#include "forest/ghost.h"
#include "forest/nodes.h"
#include "resil/checkpoint.h"
#include "sfem/dg_advection.h"
#include "sfem/transfer.h"

namespace esamr::perfbench {

namespace {

using F3 = forest::Forest<3>;
using Oct3 = forest::Octant<3>;

/// Seed-derived pseudo-random stream (splitmix64).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<double>(mix64(seed * 0x100000001b3ull + stream) >> 11) * 0x1.0p-53;
}

constexpr const char* kSpanNames[] = {
    "step",          "adapt",          "forest.new",        "forest.refine",
    "forest.coarsen", "forest.partition", "forest.balance",  "forest.ghost",
    "forest.nodes",  "forest.balance_incr", "forest.ghost_incr", "forest.nodes_incr",
    "sfem.step",     "sfem.mesh",      "sfem.transfer",     "resil.delta",
    "apps.mantle.run"};

constexpr const char* kOpFieldNames[n_op_fields] = {
    "balance_seed_octants", "balance_closure_kept", "balance_octants_sent",
    "balance_exchange_rounds", "nodes_requests_sent", "nodes_rounds", "ghost_octants_sent",
    "delta_octants", "nodes_reused", "nodes_patched", "ckpt_delta_bytes"};

std::array<std::int64_t, n_op_fields> read_ops() {
  const forest::OpStats& s = forest::op_stats();
  return {s.balance_seed_octants, s.balance_closure_kept, s.balance_octants_sent,
          s.balance_exchange_rounds, s.nodes_requests_sent, s.nodes_rounds,
          s.ghost_octants_sent, s.delta_octants, s.nodes_reused, s.nodes_patched,
          s.ckpt_delta_bytes};
}

/// Rank-local digest of a node numbering built from the gid <-> key map
/// (num_global and owned_keys), independent of the per-element layout.
std::uint64_t local_nodes_digest(const forest::NodeNumbering<3>& n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  fold(n.num_global);
  fold(n.owned_offset);
  for (std::size_t i = 0; i < n.owned_keys.size(); ++i) {
    fold(n.owned_offset + static_cast<std::int64_t>(i));
    for (const std::int32_t v : n.owned_keys[i]) fold(v);
  }
  return h;
}

/// Fold every rank's local digests (one per entry) in rank order (collective).
std::vector<std::uint64_t> combine_digests(par::Comm& comm,
                                           const std::vector<std::uint64_t>& mine) {
  const auto all = comm.allgatherv(mine);
  std::vector<std::uint64_t> out(mine.size(), 0);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    for (const auto& r : all) {
      if (r.size() != mine.size()) throw std::runtime_error("digest count differs across ranks");
      out[i] = mix64(out[i] ^ r[i]);
    }
  }
  return out;
}

int steps_of(const Options& opt, int fallback) {
  return opt.loop_steps > 0 ? opt.loop_steps : fallback;
}

// ---------------------------------------------------------------------------
// fractal_build

/// Child sets for the fractal refinement. Entry 0 is the paper's (and
/// bench_fig4's) set, entry 1 its mirror image. Of all 70 four-child sets
/// only these two build forests of the same size after Balance (130,535 and
/// 130,577 octants; the other 68 give 59k-107k), so every seed costs alike.
constexpr std::array<std::array<int, 4>, 2> kChildSets = {{{0, 3, 5, 6}, {1, 2, 4, 7}}};

std::array<int, 4> fractal_children(std::uint64_t seed) {
  if (seed == 0) return kChildSets[0];
  return kChildSets[mix64(seed) % kChildSets.size()];
}

constexpr std::int64_t kFractalTargetPerRank4 = 6000 * 4;  // bench_fig4 at P = 4

struct FractalOut {
  std::optional<F3> forest;
  std::uint64_t digest = 0;
};

/// One whole Fig. 4 pipeline. `adapt_t0` receives the clock read after New.
FractalOut fractal_pipeline(par::Comm& comm, const forest::Connectivity<3>& conn,
                            const std::array<int, 4>& kids, Tracer& tr, double* adapt_t0) {
  FractalOut out;
  out.forest.emplace(tr.span("forest.new", [&] { return F3::new_uniform(comm, &conn, 1); }));
  F3& f = *out.forest;
  if (adapt_t0 != nullptr) *adapt_t0 = par::wall_seconds();
  int level = 1;
  while (f.num_global() < kFractalTargetPerRank4 && level < 12) {
    tr.span("forest.refine", [&] {
      f.refine(level + 1, false, [&](int, const Oct3& o) {
        const int id = o.child_id();
        return o.level == level &&
               (id == kids[0] || id == kids[1] || id == kids[2] || id == kids[3]);
      });
    });
    ++level;
  }
  tr.span("forest.partition", [&] { f.partition(); });
  tr.span("forest.balance", [&] { f.balance(); });
  const auto g = tr.span("forest.ghost", [&] { return forest::GhostLayer<3>::build(f); });
  const auto n = tr.span("forest.nodes", [&] { return forest::NodeNumbering<3>::build(f, g); });
  out.digest = local_nodes_digest(n);
  return out;
}

void fractal_loop(par::Comm& comm, const Options& opt, int /*loop*/, RankLog& log) {
  const auto conn = forest::Connectivity<3>::rotcubes();
  const auto kids = fractal_children(opt.seed);
  Tracer off(comm, log, false);
  // Set-up: one untimed reference build whose checksum and node digest every
  // timed step must repeat.
  const FractalOut ref = fractal_pipeline(comm, conn, kids, off, nullptr);
  const std::uint64_t ref_sum = ref.forest->checksum();
  const std::uint64_t ref_digest = combine_digests(comm, {ref.digest})[0];
  log.check(forest::check_balanced(*ref.forest), "fractal_build: reference forest not balanced");
  log.sample("octants", static_cast<double>(ref.forest->num_global()));

  Tracer tr(comm, log, opt.trace);
  LoopClock clock(comm, log);
  std::vector<F3> built;
  std::vector<std::uint64_t> digests;
  const int nsteps = steps_of(opt, 6);
  clock.begin();
  for (int s = 0; s < nsteps; ++s) {
    const double t0 = par::wall_seconds();
    double ta = t0;
    FractalOut out = tr.span("step", [&] { return fractal_pipeline(comm, conn, kids, tr, &ta); });
    const double t1 = par::wall_seconds();
    log.step_s.push_back(t1 - t0);
    log.adapt_s.push_back(t1 - ta);
    built.push_back(std::move(*out.forest));
    digests.push_back(out.digest);
  }
  clock.end();

  const auto global = combine_digests(comm, digests);
  for (std::size_t s = 0; s < built.size(); ++s) {
    log.check(forest::check_balanced(built[s]), "fractal_build: step not 2:1 balanced");
    log.check(built[s].checksum() == ref_sum, "fractal_build: forest checksum changed");
    log.check(global[s] == ref_digest, "fractal_build: node digest changed");
  }
}

// ---------------------------------------------------------------------------
// front_adapt

constexpr int kFrontBase = 4;
constexpr int kOrbitSteps = 120;  ///< steps per closed orbit of the front

struct Front {
  double phase;  ///< orbit angle at step 0
  double radius;
  std::array<double, 3> at(int s) const {
    constexpr double root = static_cast<double>(Oct3::root_len);
    const double a = phase + 2.0 * M_PI * s / kOrbitSteps;
    // Phase 0 starts at bench_fig4's front position (0.2, 0.35, 0.55).
    return {root * (0.35 + 0.15 * std::cos(M_PI + a)), root * (0.35 + 0.15 * std::sin(M_PI + a)),
            0.55 * root};
  }
  static double dist(const Oct3& o, const std::array<double, 3>& c) {
    const double half = 0.5 * static_cast<double>(o.size());
    const double dx = (static_cast<double>(o.x) + half) - c[0];
    const double dy = (static_cast<double>(o.y) + half) - c[1];
    const double dz = (static_cast<double>(o.z) + half) - c[2];
    return std::sqrt(dx * dx + dy * dy + dz * dz);
  }
  auto refine_mark(int s) const {
    return [this, c = at(s)](int t, const Oct3& o) {
      return t == 0 && o.level <= kFrontBase + 1 && dist(o, c) < radius;
    };
  }
  auto coarsen_mark(int s) const {
    return [this, c = at(s)](int t, const Oct3& o) {
      return t == 0 && o.level > kFrontBase && dist(o, c) > 2.2 * radius;
    };
  }
};

/// The partition is cut once, around the front's starting position, so the
/// phase decides how the orbit crosses rank boundaries; a seeded phase is
/// drawn from a 30-degree window to keep the work per orbit alike.
Front make_front(std::uint64_t seed) {
  return {seed == 0 ? 0.0 : (M_PI / 6.0) * unit_double(seed, 2),
          1.6 * static_cast<double>(Oct3::root_len >> kFrontBase)};
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void front_loop(par::Comm& comm, const Options& opt, int loop, RankLog& log) {
  const auto conn = forest::Connectivity<3>::rotcubes();
  const Front front = make_front(opt.seed);
  const std::uint64_t conn_id = resil::connectivity_id(conn);
  const std::string dir = opt.out_dir + "/front-ring-" + std::to_string(loop);
  if (comm.rank() == 0) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  resil::CheckpointRing ring(dir, 3);

  auto f = F3::new_uniform(comm, &conn, kFrontBase);
  f.partition();
  for (int w = 0; w < 2; ++w) {
    f.refine(kFrontBase + 2, false, front.refine_mark(0));
    f.balance();
  }
  f.partition();
  forest::GhostScanCache<3> gc;
  auto g = forest::GhostLayer<3>::build_cached(f, gc);
  forest::NodesCache<3> nc;
  {
    forest::DeltaSet<3> d0(f.num_trees());
    forest::NodeNumbering<3>::build_incremental(f, g, d0, nc);
  }
  const double tw = par::wall_seconds();
  resil::write_checkpoint_ring(f, conn_id, 0, {}, ring);
  log.sample("resil.full.write_s", par::wall_seconds() - tw);
  if (comm.rank() == 0) {
    log.sample("resil.full.bytes", static_cast<double>(file_bytes(ring.newest())));
  }
  log.sample("octants", static_cast<double>(f.num_global()));
  const resil::DiskFaultStats disk0 = resil::disk_fault_stats();

  Tracer tr(comm, log, opt.trace);
  LoopClock clock(comm, log);
  const int nsteps = steps_of(opt, kOrbitSteps);
  clock.begin();
  for (int s = 1; s <= nsteps; ++s) {
    const double t0 = par::wall_seconds();
    double ta = t0;
    tr.span("step", [&] {
      forest::DeltaSet<3> delta(f.num_trees());
      tr.span("forest.refine",
              [&] { f.refine(kFrontBase + 2, false, front.refine_mark(s), &delta); });
      tr.span("forest.coarsen", [&] { f.coarsen(false, front.coarsen_mark(s), &delta); });
      tr.span("forest.balance_incr", [&] { f.balance_incremental(delta); });
      tr.span("forest.ghost_incr",
              [&] { g = forest::GhostLayer<3>::build_incremental(f, g, gc); });
      tr.span("forest.nodes_incr",
              [&] { forest::NodeNumbering<3>::build_incremental(f, g, delta, nc); });
      ta = par::wall_seconds();
      tr.span("resil.delta", [&] {
        resil::write_delta_checkpoint_ring(f, conn_id, static_cast<std::uint64_t>(s), {}, delta,
                                           ring);
      });
    });
    const double t1 = par::wall_seconds();
    log.step_s.push_back(t1 - t0);
    log.adapt_s.push_back(ta - t0);
  }
  clock.end();
  if (comm.rank() == 0) {
    log.sample("resil.disk_retries",
               static_cast<double>(resil::disk_fault_stats().write_retries - disk0.write_retries));
  }

  // End-of-loop checks against full rebuilds and the checkpoint chain.
  const std::uint64_t sum = f.checksum();
  {
    F3 full = f;
    full.balance();
    log.check(full.checksum() == sum, "front_adapt: full balance changed the forest");
  }
  {
    const auto gf = forest::GhostLayer<3>::build(f);
    const auto nf = forest::NodeNumbering<3>::build(f, gf);
    const auto d =
        combine_digests(comm, {local_nodes_digest(nf), local_nodes_digest(nc.numbering)});
    log.check(d[0] == d[1], "front_adapt: incremental nodes differ from a fresh build");
  }
  const double tr0 = par::wall_seconds();
  const auto restored = resil::restore_latest_chain<3>(comm, conn, conn_id, ring);
  log.sample("resil.restore_s", par::wall_seconds() - tr0);
  log.check(restored.forest.checksum() == sum, "front_adapt: restored chain differs");
  if (comm.rank() == 0) std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// advect_shell

constexpr int kAdvectDegree = 3;
constexpr int kAdvectInitialLevel = 1;
constexpr int kAdvectMaxLevel = 3;
constexpr int kAdvectInitRounds = 2;
constexpr int kAdaptEvery = 16;
constexpr double kRefineTol = 0.05, kCoarsenTol = 0.015, kCfl = 0.35;

std::array<double, 3> rotation_velocity(const std::array<double, 3>& x) {
  return {-x[1], x[0], 0.0};
}

/// Four Gaussian fronts on the equator, 90 degrees apart, turned by `phase`.
std::function<double(const std::array<double, 3>&)> advect_fronts(double phase) {
  return [phase](const std::array<double, 3>& x) {
    double v = 0.0;
    for (int k = 0; k < 4; ++k) {
      const double phi = 2.0 * M_PI * k / 4.0 + phase;
      const double cx = 0.78 * std::cos(phi), cy = 0.78 * std::sin(phi);
      const double d2 = (x[0] - cx) * (x[0] - cx) + (x[1] - cy) * (x[1] - cy) + x[2] * x[2];
      v += std::exp(-60.0 * d2);
    }
    return v;
  };
}

/// Common phase of the fronts. A 160-step loop turns them by ~0.24 rad, and
/// phases in [0, 0.15) rad refine to within 1.5% of the same element-steps
/// (0.6-0.8 rad would add 7%), so the seed draws from that window.
double advect_phase(std::uint64_t seed) {
  return seed == 0 ? 0.0 : 0.15 * unit_double(seed, 3);
}

/// The state AmrAdvectionDriver keeps, composed here so each layer call can
/// be timed from outside. Same operations in the same order as the class.
struct AdvectState {
  F3 forest;
  sfem::GeomFn<3> geom = sfem::shell_map();
  std::unique_ptr<forest::GhostLayer<3>> ghost;
  std::unique_ptr<sfem::DgMesh<3>> mesh;
  std::unique_ptr<sfem::Advection<3>> adv;
  std::vector<double> c;
  int max_level;

  AdvectState(par::Comm& comm, const forest::Connectivity<3>* conn, int max_lvl, Tracer& tr)
      : forest(F3::new_uniform(comm, conn, kAdvectInitialLevel)), max_level(max_lvl) {
    rebuild(tr);
  }

  void rebuild(Tracer& tr) {
    ghost = tr.span("forest.ghost", [&] {
      return std::make_unique<forest::GhostLayer<3>>(forest::GhostLayer<3>::build(forest));
    });
    tr.span("sfem.mesh", [&] {
      mesh = std::make_unique<sfem::DgMesh<3>>(
          sfem::DgMesh<3>::build(forest, *ghost, kAdvectDegree, geom));
      adv = std::make_unique<sfem::Advection<3>>(mesh.get(), rotation_velocity);
    });
  }

  void sample(const std::function<double(const std::array<double, 3>&)>& c0) {
    c.resize(static_cast<std::size_t>(mesh->n_local) * mesh->nv);
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = c0({mesh->coords[i * 3], mesh->coords[i * 3 + 1], mesh->coords[i * 3 + 2]});
    }
  }

  void initialize(const std::function<double(const std::array<double, 3>&)>& c0, Tracer& tr) {
    sample(c0);
    for (int r = 0; r < kAdvectInitRounds; ++r) {
      adapt(tr);
      sample(c0);
    }
  }

  /// Mark by the elementwise nodal range, Refine + Coarsen + Balance,
  /// transfer, Partition with payload, rebuild (AmrAdvectionDriver::adapt).
  void adapt(Tracer& tr) {
    const int nv = mesh->nv;
    const auto key_of = [](const Oct3& o) {
      return o.key() ^ static_cast<std::uint64_t>(o.level) << 58;
    };
    std::map<std::pair<int, std::uint64_t>, double> range;
    {
      std::size_t e = 0;
      forest.for_each_local([&](int t, const Oct3& o) {
        double lo = 1e300, hi = -1e300;
        for (int node = 0; node < nv; ++node) {
          const double v = c[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        range[{t, key_of(o)}] = hi - lo;
        ++e;
      });
    }
    std::vector<std::vector<Oct3>> old_trees;
    old_trees.reserve(static_cast<std::size_t>(forest.num_trees()));
    for (int t = 0; t < forest.num_trees(); ++t) old_trees.push_back(forest.tree(t));

    tr.span("forest.refine", [&] {
      forest.refine(max_level, false, [&](int t, const Oct3& o) {
        const auto it = range.find({t, key_of(o)});
        return it != range.end() && it->second > kRefineTol;
      });
    });
    tr.span("forest.coarsen", [&] {
      forest.coarsen(false, [&](int t, const Oct3& parent) {
        if (parent.level < kAdvectInitialLevel) return false;
        for (int ch = 0; ch < forest::Topo<3>::num_children; ++ch) {
          const auto it = range.find({t, key_of(parent.child(ch))});
          if (it == range.end() || it->second > kCoarsenTol) return false;
        }
        return true;
      });
    });
    tr.span("forest.balance", [&] { forest.balance(); });
    c = tr.span("sfem.transfer",
                [&] { return sfem::transfer_fields<3>(old_trees, forest, c, 1, mesh->basis); });
    tr.span("forest.partition", [&] { forest.partition_payload(nullptr, nv, c); });
    rebuild(tr);
  }

  void step(Tracer& tr) {
    tr.span("sfem.step", [&] {
      const double dt = adv->stable_dt(kCfl);
      adv->step(c, dt);
    });
  }
};

void advect_loop(par::Comm& comm, const Options& opt, int /*loop*/, RankLog& log) {
  const auto conn = forest::Connectivity<3>::shell();
  Tracer off(comm, log, false);
  AdvectState st(comm, &conn, kAdvectMaxLevel, off);
  st.initialize(advect_fronts(advect_phase(opt.seed)), off);
  const double mass0 = st.adv->integral(st.c);

  Tracer tr(comm, log, opt.trace);
  LoopClock clock(comm, log);
  const int nsteps = steps_of(opt, 160);
  clock.begin();
  for (int s = 0; s < nsteps; ++s) {
    if (s > 0 && s % kAdaptEvery == 0) {
      const double t0 = par::wall_seconds();
      tr.span("adapt", [&] { st.adapt(tr); });
      log.adapt_s.push_back(par::wall_seconds() - t0);
    }
    const double t0 = par::wall_seconds();
    tr.span("step", [&] { st.step(tr); });
    log.step_s.push_back(par::wall_seconds() - t0);
    log.sample("elements", static_cast<double>(st.forest.num_global()));
  }
  clock.end();
  const double mass1 = st.adv->integral(st.c);
  const double drift = std::abs(mass1 - mass0) / std::abs(mass0);
  log.sample("mass_drift", drift);
  log.check(drift < 1e-6, "advect_shell: relative mass drift " + std::to_string(drift));
}

// ---------------------------------------------------------------------------
// mantle_annulus

/// Seeded plate/slab rotations with the max_velocity() each one gives at
/// P = 4 on the seed commit. The solve is chaotic in the rotation beyond
/// ~5e-4 rad: turns of 1e-3 to 3e-2 rad move MINRES between ~1.9k and ~12.4k
/// iterations, the element count between 1.2k and 1.4k and the flow speed
/// between 1 and 12.6. Inside [-1e-4, 2.5e-4] rad the response is smooth
/// (5.4k-5.5k iterations, 1,268 elements, speed 11.9-12.4), so the seed picks
/// one of these rotations. Entry 0 is bench_fig7's unrotated input.
struct MantleInput {
  double rotation;      ///< radians added to every plate boundary and slab
  double max_velocity;  ///< recorded MantleSimulation::max_velocity() at P = 4
};
constexpr std::array<MantleInput, 8> kMantleInputs = {{
    {0.0, 12.11590491789757},
    {4e-5, 12.191513154179873},
    {8e-5, 12.259352212299698},
    {1.4e-4, 12.341493756007113},
    {2.5e-4, 12.44335276230199},
    {-4e-5, 12.028394306122134},
    {-8e-5, 11.92912858161752},
    {-1e-4, 11.875960209081935},
}};
/// MINRES stops at rtol 1e-7; the recorded speed must repeat to 1e3 * rtol.
constexpr double kMantleTolerance = 1e-4;

const MantleInput& mantle_input(std::uint64_t seed) {
  return kMantleInputs[seed == 0 ? 0 : mix64(seed ^ 0x6d616e746c65ull) % kMantleInputs.size()];
}

apps::MantleOptions mantle_options(std::uint64_t seed) {
  apps::MantleOptions opt;
  opt.base_level = 2;
  opt.max_level = 6;
  opt.temperature_max_level = 4;
  opt.static_adapt_rounds = 4;
  opt.picard_iterations = 4;
  opt.adapt_every = 2;
  opt.minres_rtol = 1e-7;
  const double rot = mantle_input(seed).rotation;
  const auto turn = [rot](double a) { return a + rot; };
  for (const double a : {0.7, 2.2, 3.9, 5.3}) opt.rheology.plate_boundaries.push_back(turn(a));
  for (const double a : {0.7, 3.9}) opt.temperature.slab_angles.push_back(turn(a));
  return opt;
}

void mantle_loop(par::Comm& comm, const Options& opt, int /*loop*/, RankLog& log) {
  const apps::MantleOptions mopt = mantle_options(opt.seed);
  {
    // Set-up: the static AMR alone (no Picard iteration) builds the initial
    // forest, adapts it and builds the CG space; it is the adapt cycle.
    apps::MantleOptions amr_only = mopt;
    amr_only.picard_iterations = 0;
    const double t0 = par::wall_seconds();
    apps::MantleSimulation warm(comm, amr_only);
    warm.run();
    log.adapt_s.push_back(par::wall_seconds() - t0);
  }
  Tracer tr(comm, log, opt.trace);
  LoopClock clock(comm, log);
  const int nsteps = steps_of(opt, 1);
  std::vector<double> vmax;
  clock.begin();
  for (int s = 0; s < nsteps; ++s) {
    const double t0 = par::wall_seconds();
    tr.span("step", [&] {
      tr.span("apps.mantle.run", [&] {
        apps::MantleSimulation sim(comm, mopt);
        sim.run();
        vmax.push_back(sim.max_velocity());
        log.sample("solver.minres.iters", sim.total_minres_iterations());
        log.sample("solver.solve.busy_s", sim.solve_seconds());
        log.sample("solver.vcycle.busy_s", sim.vcycle_seconds());
        log.sample("apps.mantle.amr.busy_s", sim.amr_seconds());
        log.sample("elements", static_cast<double>(sim.num_elements()));
      });
    });
    log.step_s.push_back(par::wall_seconds() - t0);
  }
  clock.end();
  // The recorded speeds hold for P = 4 only: iterations depend on P.
  const double expect = mantle_input(opt.seed).max_velocity;
  for (const double v : vmax) {
    log.sample("max_velocity", v);
    if (comm.size() == 4) {
      const double rel = std::abs(v - expect) / expect;
      log.check(rel <= kMantleTolerance,
                "mantle_annulus: max_velocity off by " + std::to_string(rel) + " (relative)");
    }
  }
}

const std::vector<Workload> kWorkloads = {
    {"fractal_build", fractal_loop},
    {"front_adapt", front_loop},
    {"advect_shell", advect_loop},
    {"mantle_annulus", mantle_loop},
};

}  // namespace

// ---------------------------------------------------------------------------
// Shared machinery

const char* op_field_name(int f) { return kOpFieldNames[f]; }

namespace {
int span_id(const char* name) {
  for (std::size_t i = 0; i < std::size(kSpanNames); ++i) {
    if (std::strcmp(kSpanNames[i], name) == 0) return static_cast<int>(i);
  }
  throw std::logic_error(std::string("unregistered span name ") + name);
}
}  // namespace

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names(std::begin(kSpanNames), std::end(kSpanNames));
  return names;
}

Tracer::Open Tracer::open(const char* name) {
  const par::CommStats& cs = comm_->stats();
  SpanRec rec;
  rec.name = span_id(name);
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.t0 = par::wall_seconds();
  log_->spans.push_back(rec);
  const int index = static_cast<int>(log_->spans.size()) - 1;
  stack_.push_back(index);
  return {index, par::thread_cpu_seconds(), cs.recv_blocked_s + cs.barrier_blocked_s,
          cs.total_msgs(), cs.total_bytes(), read_ops()};
}

void Tracer::close(const Open& o) {
  const par::CommStats& cs = comm_->stats();
  const auto ops = read_ops();
  SpanRec& rec = log_->spans[static_cast<std::size_t>(o.index)];
  rec.t1 = par::wall_seconds();
  rec.busy = par::thread_cpu_seconds() - o.busy0;
  rec.wait = cs.recv_blocked_s + cs.barrier_blocked_s - o.wait0;
  rec.msgs = cs.total_msgs() - o.msgs0;
  rec.bytes = cs.total_bytes() - o.bytes0;
  for (int f = 0; f < n_op_fields; ++f) {
    rec.ops[static_cast<std::size_t>(f)] =
        ops[static_cast<std::size_t>(f)] - o.ops0[static_cast<std::size_t>(f)];
  }
  stack_.pop_back();
}

void LoopClock::begin() {
  comm0_ = comm_->stats();
  cpu0_ = par::thread_cpu_seconds();
  log_->loop_t0 = par::wall_seconds();
}

void LoopClock::end() {
  log_->loop_t1 = par::wall_seconds();
  log_->core_s = par::thread_cpu_seconds() - cpu0_;
  log_->comm = comm_->stats();
  log_->comm -= comm0_;
}

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string describe_inputs(const std::string& workload, std::uint64_t seed) {
  char buf[200];
  if (workload == "fractal_build") {
    const auto k = fractal_children(seed);
    std::snprintf(buf, sizeof(buf), "rotcubes, fractal children {%d,%d,%d,%d}", k[0], k[1], k[2],
                  k[3]);
  } else if (workload == "front_adapt") {
    std::snprintf(buf, sizeof(buf), "rotcubes level %d, front orbit phase %.6f rad, %d steps/orbit",
                  kFrontBase, make_front(seed).phase, kOrbitSteps);
  } else if (workload == "advect_shell") {
    std::snprintf(buf, sizeof(buf), "shell, degree %d, max_level %d, front phase %.6f rad",
                  kAdvectDegree, kAdvectMaxLevel, advect_phase(seed));
  } else {
    std::snprintf(buf, sizeof(buf), "annulus 8 trees, plate/slab rotation %.5f rad",
                  mantle_input(seed).rotation);
  }
  return buf;
}

bool selftest_advection(std::string* detail) {
  constexpr int nsteps = 40;
  constexpr int max_level = 2;
  bool ok = true;
  par::run(2, [&](par::Comm& comm) {
    const auto conn = forest::Connectivity<3>::shell();
    const auto c0 = advect_fronts(0.0);
    sfem::AmrAdvectionDriver<3> driver(comm, &conn, sfem::shell_map(), rotation_velocity,
                                       kAdvectDegree, kAdvectInitialLevel, max_level);
    driver.initialize(c0, kAdvectInitRounds, kRefineTol, kCoarsenTol);
    driver.run(nsteps, kAdaptEvery, kCfl, kRefineTol, kCoarsenTol);

    RankLog scratch;
    Tracer off(comm, scratch, false);
    AdvectState st(comm, &conn, max_level, off);
    st.initialize(c0, off);
    for (int s = 0; s < nsteps; ++s) {
      if (s > 0 && s % kAdaptEvery == 0) st.adapt(off);
      st.step(off);
    }
    const bool same_c = st.c.size() == driver.solution().size() &&
                        std::memcmp(st.c.data(), driver.solution().data(),
                                    st.c.size() * sizeof(double)) == 0;
    const bool same = comm.allreduce(static_cast<int>(same_c), par::ReduceOp::logical_and) != 0;
    const bool same_forest = st.forest.checksum() == driver.forest().checksum();
    if (comm.rank() == 0) {
      ok = same && same_forest;
      *detail = std::string("solution ") + (same ? "identical" : "DIFFERS") + ", forest " +
                (same_forest ? "identical" : "DIFFERS");
    }
  });
  return ok;
}

}  // namespace esamr::perfbench
