// Checkpoint/restart benchmark driver: snapshot write / restore bandwidth as
// a function of rank count and snapshot size, and the end-to-end recovery
// overhead of a supervised mantle run with an injected mid-run rank kill as a
// function of the checkpoint interval.
//
// Unlike the figure drivers (busy time), these tables use wall clock: the
// interesting cost is file I/O plus the gather/scatter around it, and the
// recovery overhead is an elapsed-time question by definition.
//
// Usage: bench_resil [--json out.json]
#include <unistd.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/mantle.h"
#include "par/inject.h"
#include "resil/checkpoint.h"
#include "resil/supervisor.h"

using namespace esamr;

namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string scratch_dir(const std::string& name) {
  // Pid-suffixed so concurrent bench runs (e.g. CI shards on one box) never
  // race on each other's snapshot rings.
  const auto d = std::filesystem::temp_directory_path() /
                 ("esamr_bench_resil_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d.string();
}

std::uint64_t ops_of(const par::CommStats& st) {
  std::int64_t n = st.p2p_sends + st.p2p_recvs;
  for (const auto calls : st.coll_calls) n += calls;
  return static_cast<std::uint64_t>(n);
}

std::uint64_t pick_kill_seed(int nranks, int stride, int* victim) {
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    par::InjectConfig cfg;
    cfg.seed = seed;
    cfg.kill_rank_stride = stride;
    cfg.kill_after_ops = 1;
    int count = 0, v = -1;
    for (int r = 0; r < nranks; ++r) {
      if (par::detail::is_kill_rank(cfg, r)) {
        ++count;
        v = r;
      }
    }
    if (count == 1) {
      *victim = v;
      return seed;
    }
  }
  return 0;
}

struct BandwidthRow {
  int ranks;
  int level;
  std::int64_t octants;
  std::int64_t bytes;
  double write_s;
  double restore_s;
};

struct RecoveryRow {
  int interval;
  double wall_s;
  double overhead;  // fraction over the fault-free baseline
  int attempts;
  std::uint64_t steps_replayed;
  std::int64_t bytes_reread;
};

struct MttrRow {
  const char* fault;
  const char* layer;  // which rung of the recovery ladder healed it
  int heals;
  double detect_s;  // silent-before-detection time (heartbeat rows)
  double mttr_s;    // mean fault -> repaired interval at that layer
};

std::vector<BandwidthRow> bandwidth_table() {
  std::printf("=== snapshot write / restore bandwidth (wall clock) ===\n");
  std::printf("%4s %6s %9s %11s %12s %13s\n", "P", "level", "octants", "bytes",
              "write MB/s", "restore MB/s");
  const auto conn = forest::Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string dir = scratch_dir("bw");
  std::vector<BandwidthRow> rows;
  for (const int p : {1, 4, 8}) {
    for (const int level : {5, 7}) {
      const std::string path = dir + "/snap.esnap";
      double write_s = 0.0, restore_s = 0.0;
      std::int64_t bytes = 0, octs = 0;
      par::run(p, [&](par::Comm& c) {
        auto f = forest::Forest<2>::new_uniform(c, &conn, level);
        resil::NamedField u{"u", 4, {}};
        f.for_each_local([&](int t, const forest::Octant<2>& o) {
          for (int k = 0; k < 4; ++k) {
            u.data.push_back(static_cast<double>(t + o.x + o.y + o.level + k));
          }
        });
        c.barrier();
        const double t0 = wall_s();
        resil::write_checkpoint(f, cid, 0, {u}, path);
        const double t1 = wall_s();
        auto r = resil::restore_checkpoint<2>(c, conn, cid, path);
        const double t2 = wall_s();
        if (c.rank() == 0) {
          write_s = t1 - t0;
          restore_s = t2 - t1;
          bytes = r.bytes_read;
          octs = f.num_global();
        }
      });
      const double mb = static_cast<double>(bytes) / 1.0e6;
      rows.push_back(BandwidthRow{p, level, octs, bytes, write_s, restore_s});
      std::printf("%4d %6d %9" PRId64 " %11" PRId64 " %12.1f %13.1f\n", p, level, octs,
                  bytes, mb / write_s, mb / restore_s);
    }
  }
  std::printf("(one file per snapshot: rank-0 gather -> CRC32C per section -> tmp+rename;\n");
  std::printf(" restore is read + CRC check + elastic SFC repartition)\n\n");
  return rows;
}

std::vector<RecoveryRow> recovery_table() {
  constexpr int P = 4;
  apps::MantleOptions mopt;
  mopt.base_level = 2;
  mopt.max_level = 4;
  mopt.temperature_max_level = 3;
  mopt.static_adapt_rounds = 2;
  mopt.picard_iterations = 6;
  mopt.adapt_every = 2;
  mopt.minres_rtol = 1e-6;
  mopt.rheology.plate_boundaries = {0.5, 2.5, 4.5};
  mopt.temperature.slab_angles = {0.5, 2.5};

  // Fault-free baseline (no checkpoints) and per-rank comm-op counts.
  std::vector<std::uint64_t> base_ops(P, 0);
  double t0 = wall_s();
  par::run(P, [&](par::Comm& c) {
    apps::MantleSimulation sim(c, mopt);
    sim.run();
    base_ops[static_cast<std::size_t>(c.rank())] = ops_of(c.stats());
  });
  const double base_s = wall_s() - t0;

  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(P, P, &victim);
  std::printf("=== mantle recovery overhead vs checkpoint interval ===\n");
  std::printf("P=%d, %d Picard iterations, rank %d killed at ~3/4 of its baseline ops;\n", P,
              mopt.picard_iterations, victim);
  std::printf("fault-free baseline (no checkpoints): %.2f s\n", base_s);
  std::printf("%9s %8s %10s %9s %9s %10s\n", "interval", "wall s", "overhead", "attempts",
              "replayed", "reread KB");
  std::vector<RecoveryRow> rows;
  for (const int interval : {1, 2, 3}) {
    auto m = mopt;
    m.checkpoint_every = interval;
    m.checkpoint_dir = scratch_dir("rec_" + std::to_string(interval));
    m.checkpoint_keep = 3;
    par::RunOptions opts;
    opts.inject.seed = seed;
    opts.inject.kill_rank_stride = P;
    opts.inject.kill_after_ops = base_ops[static_cast<std::size_t>(victim)] * 3 / 4;
    resil::SupervisorOptions sopt;
    sopt.backoff.initial_s = 0.0;
    t0 = wall_s();
    const auto stats = resil::supervise(
        P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
          apps::MantleSimulation sim(c, m);
          sim.set_recovery_context(&ctx);
          sim.run();
        });
    const double dt = wall_s() - t0;
    rows.push_back(RecoveryRow{interval, dt, (dt - base_s) / base_s, stats.attempts,
                               stats.steps_replayed, stats.bytes_reread});
    std::printf("%9d %8.2f %9.1f%% %9d %9llu %10.1f\n", interval, dt,
                100.0 * (dt - base_s) / base_s, stats.attempts,
                static_cast<unsigned long long>(stats.steps_replayed),
                static_cast<double>(stats.bytes_reread) / 1.0e3);
  }
  std::printf("(overhead = checkpoint writes + lost work since the last snapshot + replay;\n");
  std::printf(" shorter intervals pay more write cost but replay fewer iterations)\n");
  return rows;
}

/// Checkpointed ring workload (cf. the chaos harness): per step a ring p2p
/// exchange, an allreduce, and a snapshot commit; on restart it resumes from
/// the newest valid snapshot and records the restore (which closes the
/// supervisor's MTTR interval).
void mttr_body(par::Comm& c, resil::RecoveryContext& ctx, const forest::Connectivity<2>& conn,
               std::uint64_t cid, const std::string& dir) {
  resil::CheckpointRing ring(dir, 2);
  // Level 7 (16384 octants): snapshots big enough that a restart pays a real
  // restore cost, the quantity the ladder's cheaper layers avoid.
  auto f = forest::Forest<2>::new_uniform(c, &conn, 7);
  std::vector<double> u;
  f.for_each_local([&](int t, const forest::Octant<2>& o) {
    u.push_back(1.0 + t + 1e-6 * o.x + 1e-7 * o.y);
  });
  int k0 = 0;
  if (resil::ring_probe(c, ring)) {
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    u = std::move(r.fields[0].data);
  }
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  for (int k = k0; k < 8; ++k) {
    double local = 0.0;
    for (const double v : u) local += v;
    c.send_value(next, /*tag=*/21, local);
    const double fp = c.recv(prev, 21).value<double>();
    const double g = c.allreduce(local, par::ReduceOp::sum);
    for (double& v : u) v = v * (1.0 + 1e-9) + 1e-12 * fp + 1e-15 * g;
    resil::write_checkpoint_ring(f, cid, static_cast<std::uint64_t>(k),
                                 {resil::NamedField{"u", 1, u}}, ring);
    if (c.rank() == 0) ctx.note_step();
  }
}

/// Mean time to repair per ladder layer: the same fault class healed at the
/// cheapest layer that can absorb it vs escalated to a full restart. The
/// headline comparison is corrupt messages: link-level retransmission (a
/// backoff-bounded in-place redelivery) vs supervisor restart-and-replay.
std::vector<MttrRow> mttr_table() {
  constexpr int P = 4;
  const auto conn = forest::Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  std::vector<MttrRow> rows;

  // Per-rank fault-free op counts, to place kills after the first snapshot.
  std::vector<std::uint64_t> base_ops(P, 0);
  par::run(P, [&](par::Comm& c) {
    resil::RecoveryContext ctx(0);
    mttr_body(c, ctx, conn, cid, scratch_dir("mttr_base"));
    base_ops[static_cast<std::size_t>(c.rank())] = ops_of(c.stats());
  });
  int victim = -1;
  const std::uint64_t kill_seed = pick_kill_seed(P, P, &victim);
  const std::uint64_t kill_at = base_ops[static_cast<std::size_t>(victim)] * 3 / 4;

  const auto run_cell = [&](const char* fault, const char* layer, par::RunOptions opts,
                            resil::SupervisorOptions sopt, bool link_layer) {
    // One ring per cell, created up front: the retry must find the previous
    // attempt's snapshots (a fresh scratch per attempt would defeat restore).
    const std::string dir = scratch_dir(std::string("mttr_") + fault + "_" + layer);
    par::CommSum link;  // every rank of every attempt, faulted ones included
    const auto stats = resil::supervise(
        P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
          const par::CommSum::Tally tally(link, c.stats());
          mttr_body(c, ctx, conn, cid, dir);
        });
    MttrRow row{fault, layer, 0, stats.detect_s, 0.0};
    if (link_layer) {
      const par::CommStats t = link.total();
      row.heals = static_cast<int>(t.arq_healed);
      row.mttr_s = row.heals > 0 ? t.arq_heal_s / row.heals : 0.0;
    } else {
      row.heals = stats.repairs;
      row.mttr_s = stats.mttr_s();
    }
    rows.push_back(row);
  };

  // Corrupt messages: healed in place by ARQ vs escalated to a restart.
  {
    par::RunOptions opts;
    opts.inject.seed = 4242;
    opts.inject.corrupt_msg_stride = 16;
    resil::SupervisorOptions sopt;
    sopt.backoff.initial_s = 0.0;
    run_cell("corrupt_msg", "link_arq", opts, sopt, /*link_layer=*/true);
    opts.arq.enabled = false;
    run_cell("corrupt_msg", "full_restart", opts, sopt, /*link_layer=*/false);
  }
  // Rank kill: in-place shrink vs classic full restart.
  {
    par::RunOptions opts;
    opts.inject.seed = kill_seed;
    opts.inject.kill_rank_stride = P;
    opts.inject.kill_after_ops = kill_at;
    resil::SupervisorOptions sopt;
    sopt.backoff.initial_s = 0.0;
    sopt.clear_kill_on_retry = false;
    sopt.policy.on_rank_failure = resil::RecoveryMode::shrink;
    run_cell("rank_kill", "shrink", opts, sopt, /*link_layer=*/false);
    sopt.clear_kill_on_retry = true;
    sopt.policy.on_rank_failure = resil::RecoveryMode::full_restart;
    run_cell("rank_kill", "full_restart", opts, sopt, /*link_layer=*/false);
  }
  // Silent death: the heartbeat detector names the victim, shrink repairs it.
  {
    par::RunOptions opts;
    opts.inject.seed = kill_seed;
    opts.inject.kill_rank_stride = P;
    opts.inject.kill_after_ops = kill_at;
    opts.inject.kill_silent = true;
    opts.heartbeat_timeout_s = 0.2;
    resil::SupervisorOptions sopt;
    sopt.backoff.initial_s = 0.0;
    sopt.clear_kill_on_retry = false;
    sopt.policy.on_rank_failure = resil::RecoveryMode::shrink;
    run_cell("silent_death", "heartbeat_shrink", opts, sopt, /*link_layer=*/false);
  }

  std::printf("\n=== mean time to repair per recovery-ladder layer ===\n");
  std::printf("%-13s %-17s %6s %10s %12s\n", "fault", "healing layer", "heals", "detect s",
              "mttr s");
  for (const auto& r : rows) {
    std::printf("%-13s %-17s %6d %10.4f %12.6f\n", r.fault, r.layer, r.heals, r.detect_s,
                r.mttr_s);
  }
  double arq = 0.0, restart = 0.0;
  for (const auto& r : rows) {
    if (std::strcmp(r.fault, "corrupt_msg") == 0) {
      if (std::strcmp(r.layer, "link_arq") == 0) arq = r.mttr_s;
      if (std::strcmp(r.layer, "full_restart") == 0) restart = r.mttr_s;
    }
  }
  if (arq > 0.0 && restart > 0.0) {
    std::printf("(corrupt-message MTTR: restart / link-ARQ = %.1fx — healing at the link\n"
                " layer avoids the world teardown + restore + replay a restart pays)\n",
                restart / arq);
  }
  return rows;
}

struct DeltaRow {
  int ranks;
  int steps;
  std::int64_t full_bytes;   // mean per-step full snapshot of the same state
  std::int64_t delta_bytes;  // mean per-step delta checkpoint file
  double ratio;              // delta_bytes / full_bytes
  int chain_len;             // delta entries replayed by the chain restore
  double restore_chain_s;    // newest full snapshot + chain replay, wall clock
  int identical;             // chain restore reproduces the live forest+field
};

/// Differential checkpoints under a slow adapt front: each step writes both a
/// delta checkpoint (ring) and a full snapshot of the same state (throwaway)
/// and compares bytes; the ring is then restored through the delta chain and
/// checked bit-identical against the live state.
std::vector<DeltaRow> delta_table() {
  std::printf("\n=== delta checkpoints vs full snapshots (moving adapt front) ===\n");
  std::printf("%4s %6s %12s %12s %7s %6s %11s %s\n", "P", "steps", "full B/step",
              "delta B/step", "ratio", "chain", "restore s", "identical");
  const auto conn = forest::Connectivity<3>::rotcubes();
  const std::uint64_t cid = resil::connectivity_id(conn);
  std::vector<DeltaRow> rows;
  for (const int p : {1, 4}) {
    DeltaRow row{};
    row.ranks = p;
    const std::string dir = scratch_dir("delta_p" + std::to_string(p));
    const std::string full_ref = dir + "/full_ref.esnap";
    par::run(p, [&](par::Comm& c) {
      const int base = 3;
      const int steps = 6;
      const double root = static_cast<double>(forest::Octant<3>::root_len);
      const double radius = 1.6 * static_cast<double>(forest::Octant<3>::root_len >> base);
      const auto front = [&](int s) {
        const double fx = 0.2 + 0.02 * static_cast<double>(s) / steps;
        return std::array<double, 3>{fx * root, 0.35 * root, 0.55 * root};
      };
      const auto dist = [&](const forest::Octant<3>& o, const std::array<double, 3>& ctr) {
        const double half = 0.5 * static_cast<double>(o.size());
        const double dx = (static_cast<double>(o.x) + half) - ctr[0];
        const double dy = (static_cast<double>(o.y) + half) - ctr[1];
        const double dz = (static_cast<double>(o.z) + half) - ctr[2];
        return std::sqrt(dx * dx + dy * dy + dz * dz);
      };
      const auto refine_mark = [&](int s) {
        return [&, s](int t, const forest::Octant<3>& o) {
          return t == 0 && o.level <= base + 1 && dist(o, front(s)) < radius;
        };
      };
      const auto coarsen_mark = [&](int s) {
        return [&, s](int t, const forest::Octant<3>& o) {
          return t == 0 && o.level > base && dist(o, front(s)) > 2.2 * radius;
        };
      };
      // The payload is a pure function of the octant, so values outside the
      // delta regions are unchanged between ring writes — the contract
      // write_delta_checkpoint_ring requires.
      const auto val = [](int t, const forest::Octant<3>& o) {
        return static_cast<double>(t) + 1e-6 * o.x + 1e-7 * o.y + 1e-8 * o.z + 0.1 * o.level;
      };
      const auto field_of = [&](const forest::Forest<3>& f) {
        resil::NamedField u{"u", 1, {}};
        f.for_each_local([&](int t, const forest::Octant<3>& o) { u.data.push_back(val(t, o)); });
        return u;
      };

      auto f = forest::Forest<3>::new_uniform(c, &conn, base);
      f.partition();
      for (int w = 0; w < 2; ++w) {
        f.refine(base + 2, false, refine_mark(0));
        f.balance();
      }
      resil::CheckpointRing ring(dir, 4);
      resil::write_checkpoint_ring(f, cid, 0, {field_of(f)}, ring);
      std::int64_t dbytes = 0, fbytes = 0;
      int chain = 0;
      for (int s = 1; s <= steps; ++s) {
        forest::DeltaSet<3> delta(f.num_trees());
        f.refine(base + 2, false, refine_mark(s), &delta);
        f.coarsen(false, coarsen_mark(s), &delta);
        f.balance_incremental(delta);
        resil::write_delta_checkpoint_ring(f, cid, static_cast<std::uint64_t>(s), {field_of(f)},
                                           delta, ring);
        resil::write_checkpoint(f, cid, static_cast<std::uint64_t>(s), {field_of(f)}, full_ref);
        if (c.rank() == 0) {
          const std::string newest = ring.newest();
          dbytes += static_cast<std::int64_t>(std::filesystem::file_size(newest));
          if (resil::CheckpointRing::is_delta(newest)) ++chain;
          fbytes += static_cast<std::int64_t>(std::filesystem::file_size(full_ref));
        }
      }
      c.barrier();
      const double t0 = wall_s();
      auto r = resil::restore_latest_chain<3>(c, conn, cid, ring);
      const double t1 = wall_s();
      int same = r.step == static_cast<std::uint64_t>(steps) &&
                 r.forest.checksum() == f.checksum();
      if (same != 0) {
        const auto expect = field_of(r.forest);
        same = r.fields.size() == 1 && r.fields[0].data == expect.data;
      }
      same = c.allreduce(same, par::ReduceOp::logical_and);
      if (c.rank() == 0) {
        row.steps = steps;
        row.full_bytes = fbytes / steps;
        row.delta_bytes = dbytes / steps;
        row.ratio = static_cast<double>(dbytes) / static_cast<double>(fbytes);
        row.chain_len = chain;
        row.restore_chain_s = t1 - t0;
        row.identical = same;
      }
    });
    rows.push_back(row);
    std::printf("%4d %6d %12" PRId64 " %12" PRId64 " %6.1f%% %6d %11.4f %s\n", row.ranks,
                row.steps, row.full_bytes, row.delta_bytes, 100.0 * row.ratio, row.chain_len,
                row.restore_chain_s, row.identical != 0 ? "yes" : "NO");
  }
  std::printf("(a delta file stores only the replicated change regions, the leaves inside\n");
  std::printf(" them, and the field values on those leaves, CRC-chained to its base)\n");
  return rows;
}

void write_json(const char* path, const std::vector<BandwidthRow>& bw,
                const std::vector<RecoveryRow>& rec, const std::vector<MttrRow>& mttr,
                const std::vector<DeltaRow>& del) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_resil: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"resil\",\n  \"bandwidth\": [\n");
  for (std::size_t i = 0; i < bw.size(); ++i) {
    const auto& r = bw[i];
    std::fprintf(out,
                 "    {\"ranks\": %d, \"level\": %d, \"octants\": %" PRId64
                 ", \"bytes\": %" PRId64 ", \"write_s\": %.6f, \"restore_s\": %.6f}%s\n",
                 r.ranks, r.level, r.octants, r.bytes, r.write_s, r.restore_s,
                 i + 1 < bw.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"recovery\": [\n");
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const auto& r = rec[i];
    std::fprintf(out,
                 "    {\"interval\": %d, \"wall_s\": %.6f, \"overhead\": %.4f, \"attempts\": %d, "
                 "\"steps_replayed\": %llu, \"bytes_reread\": %" PRId64 "}%s\n",
                 r.interval, r.wall_s, r.overhead, r.attempts,
                 static_cast<unsigned long long>(r.steps_replayed), r.bytes_reread,
                 i + 1 < rec.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"mttr\": [\n");
  for (std::size_t i = 0; i < mttr.size(); ++i) {
    const auto& r = mttr[i];
    std::fprintf(out,
                 "    {\"fault\": \"%s\", \"layer\": \"%s\", \"heals\": %d, "
                 "\"detect_s\": %.6f, \"mttr_s\": %.6f}%s\n",
                 r.fault, r.layer, r.heals, r.detect_s, r.mttr_s,
                 i + 1 < mttr.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"delta\": [\n");
  for (std::size_t i = 0; i < del.size(); ++i) {
    const auto& r = del[i];
    std::fprintf(out,
                 "    {\"ranks\": %d, \"steps\": %d, \"full_bytes_per_step\": %" PRId64
                 ", \"delta_bytes_per_step\": %" PRId64
                 ", \"ratio\": %.4f, \"chain_len\": %d, \"restore_chain_s\": %.6f, "
                 "\"identical\": %s}%s\n",
                 r.ranks, r.steps, r.full_bytes, r.delta_bytes, r.ratio, r.chain_len,
                 r.restore_chain_s, r.identical != 0 ? "true" : "false",
                 i + 1 < del.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  const auto bw = bandwidth_table();
  const auto rec = recovery_table();
  const auto mttr = mttr_table();
  const auto del = delta_table();
  if (json_path != nullptr) write_json(json_path, bw, rec, mttr, del);
  return 0;
}
