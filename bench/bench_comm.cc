// Comm v2 benchmark driver: per-collective message count and byte volume of
// the tree/recursive-doubling/ring algorithms, a Figure-7-style per-phase
// breakdown of the AMR pipeline with real message counts and byte volume
// from CommStats, the runtime overhead of the dynamic correctness checker
// (src/par/check.h) on a comm-bound workload, and the cost of the CRC32C
// message-integrity envelopes (RunOptions::integrity) on the same workload.
//
// The paper's scalability analysis (§III) models collectives as O(log P)
// tree algorithms over O(P) partition metadata; this driver shows the
// runtime's collectives actually move tree-algorithm byte volumes, and shows
// where the AMR pipeline's communication goes phase by phase.
//
// Usage: bench_comm [P] [payload] [--json out.json]
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "forest/nodes.h"
#include "forest/stats.h"
#include "oracles.h"

using namespace esamr;

namespace {

struct VolumeRow {
  const char* collective;
  std::int64_t msgs;
  std::int64_t bytes;
};

struct PhaseRow {
  const char* phase;
  bench::PhaseCost cost;
};

struct CheckRow {
  int level;
  double busy_s;
};

struct IntegrityRow {
  bool on;
  double busy_s;
  std::int64_t bytes_verified;
};

/// Messages and bytes moved by one collective with a `payload`-byte per-rank
/// input, summed over ranks.
VolumeRow collective_volume(int p, par::Coll kind, std::size_t payload) {
  VolumeRow row{par::coll_name(kind), 0, 0};
  par::run(p, [&](par::Comm& c) {
    std::vector<std::byte> buf(payload, std::byte{1});
    c.stats().reset();
    switch (kind) {
      case par::Coll::bcast: c.bcast_bytes(buf, 0); break;
      case par::Coll::reduce: c.reduce_bytes(buf.data(), payload, 0, [](void*, const void*) {}); break;
      case par::Coll::allreduce:
        c.allreduce_bytes(buf.data(), payload, [](void*, const void*) {});
        break;
      case par::Coll::allgather: c.allgather_bytes(buf.data(), payload); break;
      case par::Coll::allgatherv: c.allgatherv_bytes(buf.data(), payload); break;
      case par::Coll::alltoall: {
        std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
        for (auto& b : send) b.assign(payload / static_cast<std::size_t>(p) + 1, std::byte{2});
        c.alltoall_bytes(std::move(send));
        break;
      }
      default: break;
    }
    const auto snap = c.stats_snapshot();
    if (c.rank() == 0) {
      row.msgs = snap.total.coll_msgs;
      row.bytes = snap.total.coll_bytes;
    }
  });
  return row;
}

std::vector<VolumeRow> volume_table(int p, std::size_t payload) {
  std::printf("=== collective message volume (P=%d, %zu B/rank) ===\n", p, payload);
  std::printf("%-11s %10s %14s\n", "collective", "msgs", "bytes");
  const par::Coll kinds[] = {par::Coll::bcast,     par::Coll::reduce,     par::Coll::allreduce,
                             par::Coll::allgather, par::Coll::allgatherv, par::Coll::alltoall};
  std::vector<VolumeRow> rows;
  for (const auto kind : kinds) {
    rows.push_back(collective_volume(p, kind, payload));
    std::printf("%-11s %10" PRId64 " %14" PRId64 "\n", rows.back().collective, rows.back().msgs,
                rows.back().bytes);
  }
  std::printf("(summed over ranks, each message counted once at its sender; alltoall\n");
  std::printf(" sends payload/P + 1 bytes to every peer)\n\n");
  return rows;
}

std::vector<PhaseRow> phase_table(int p) {
  std::printf("=== AMR pipeline comm volume per phase (P=%d) ===\n", p);
  std::printf("%-10s %10s %10s %12s %10s\n", "phase", "busy ms", "msgs", "bytes", "blocked ms");
  std::vector<PhaseRow> rows;
  par::run(p, [&](par::Comm& comm) {
    const auto conn = forest::Connectivity<3>::rotcubes();
    auto f = forest::Forest<3>::new_uniform(comm, &conn, 1);
    forest::GhostLayer<3> g;
    const auto report = [&](const char* name, const bench::PhaseCost& c) {
      if (comm.rank() == 0) {
        rows.push_back(PhaseRow{name, c});
        std::printf("%-10s %10.2f %10" PRId64 " %12" PRId64 " %10.2f\n", name,
                    1e3 * c.busy_max_s, c.msgs, c.bytes, 1e3 * c.blocked_s);
      }
    };
    report("refine", bench::timed_phase(comm, [&] {
             f.refine(4, true, [](int, const forest::Octant<3>& o) {
               const int id = o.child_id();
               return id == 0 || id == 3 || id == 5;
             });
           }));
    report("balance", bench::timed_phase(comm, [&] { f.balance(); }));
    report("partition", bench::timed_phase(comm, [&] { f.partition(); }));
    report("ghost", bench::timed_phase(comm, [&] { g = forest::GhostLayer<3>::build(f); }));
    report("nodes", bench::timed_phase(comm, [&] {
             const auto n = forest::NodeNumbering<3>::build(f, g);
             volatile auto keep = n.num_global;
             (void)keep;
           }));
    const auto stats = forest::ForestStats<3>::compute(f);
    if (comm.rank() == 0) {
      std::printf("\nforest: %" PRId64 " octants; cumulative comm (ForestStats.comm_total):\n",
                  stats.global_octants);
      std::printf("%s", par::summary(stats.comm_total).c_str());
    }
  });
  return rows;
}

/// Comm-bound workload for the checker-overhead measurement: a neighbor
/// ping-pong plus one of each tree collective per iteration, under region
/// guards so every detector hook is on the hot path.
double checked_workload_busy_s(int p, int check_level, int iters) {
  par::RunOptions opts;
  opts.check = check_level;
  double busy = 0.0;
  par::run(p, opts, [&](par::Comm& c) {
    std::vector<int> mine(64, c.rank());
    const par::check::RegionGuard guard(c, mine.data(), mine.size() * sizeof(int), "bench field");
    busy = bench::timed_max(c, [&] {
      for (int it = 0; it < iters; ++it) {
        c.send_value((c.rank() + 1) % p, 1, it);
        (void)c.recv((c.rank() + p - 1) % p, 1);
        c.allreduce(1, par::ReduceOp::sum);
        c.allgatherv(mine);
        c.bcast(it, it % p);
        c.barrier();
      }
    });
  });
  return busy;
}

/// The checker workload rerun with the integrity envelopes toggled; returns
/// busy seconds and the verified-byte volume the integrity layer covered.
IntegrityRow integrity_workload(int p, bool integrity, int iters) {
  par::RunOptions opts;
  opts.integrity = integrity;
  IntegrityRow row{integrity, 0.0, 0};
  par::run(p, opts, [&](par::Comm& c) {
    std::vector<int> mine(64, c.rank());
    const double busy = bench::timed_max(c, [&] {
      for (int it = 0; it < iters; ++it) {
        c.send_value((c.rank() + 1) % p, 1, it);
        (void)c.recv((c.rank() + p - 1) % p, 1);
        c.allreduce(1, par::ReduceOp::sum);
        c.allgatherv(mine);
        c.bcast(it, it % p);
        c.barrier();
      }
    });
    const auto snap = c.stats_snapshot();
    if (c.rank() == 0) {
      row.busy_s = busy;
      row.bytes_verified = snap.total.bytes_verified;
    }
  });
  return row;
}

std::vector<IntegrityRow> integrity_table(int p, int iters) {
  std::printf("\n=== message-integrity envelope overhead (P=%d, same workload) ===\n", p);
  std::printf("%-22s %12s %14s %10s\n", "configuration", "busy s", "verified B", "overhead");
  std::vector<IntegrityRow> rows;
  rows.push_back(integrity_workload(p, false, iters));
  rows.push_back(integrity_workload(p, true, iters));
  const double base = rows[0].busy_s;
  for (const auto& r : rows) {
    std::printf("%-22s %12.4f %14" PRId64 " %9.1f%%\n",
                r.on ? "integrity on (default)" : "integrity off", r.busy_s, r.bytes_verified,
                100.0 * (r.busy_s - base) / base);
  }
  std::printf("(CRC32C stamped at the sender, verified at every receiver;\n");
  std::printf(" off = RunOptions::integrity false, the unprotected fast path)\n");
  return rows;
}

std::vector<CheckRow> checker_table(int p, int iters) {
  std::printf("\n=== dynamic checker overhead (P=%d, %d iterations of ping-pong + "
              "allreduce/allgatherv/bcast/barrier) ===\n",
              p, iters);
  std::printf("%-22s %12s %10s\n", "configuration", "busy s", "overhead");
  std::vector<CheckRow> rows;
  for (const int level : {0, 1, 2}) {
    rows.push_back(CheckRow{level, checked_workload_busy_s(p, level, iters)});
  }
  const double base = rows[0].busy_s;
  for (const auto& r : rows) {
    const char* name = r.level == 0   ? "check off"
                       : r.level == 1 ? "check on  (level 1)"
                                      : "check on  (level 2)";
    std::printf("%-22s %12.4f %9.1f%%\n", name, r.busy_s, 100.0 * (r.busy_s - base) / base);
  }
  std::printf("(level 1: vector clocks + fingerprint ledger + deadlock watch;\n");
  std::printf(" level 2 adds result-CRC verification of collective outputs)\n");
  return rows;
}

struct OverlapRow {
  const char* mode;
  bench::PhaseCost cost;
  std::int64_t copies = 0;
  std::int64_t bytes_copied = 0;
  std::int64_t adoptions = 0;
};

/// Blocking vs async ghost-value exchange on the same forest: busy time,
/// blocked time, and — the zero-copy story — the payload copies the Buffer
/// layer performed (the blocking alltoallv copies every packed buffer into
/// the collective; the async path adopts the same buffers and the receivers
/// read them in place).
std::vector<OverlapRow> overlap_table(int p, int iters) {
  std::printf("\n=== async overlap: ghost exchange, blocking vs async (P=%d, %d iters) ===\n", p,
              iters);
  std::printf("%-16s %10s %10s %12s %10s %10s %12s\n", "mode", "busy ms", "msgs", "bytes",
              "blocked ms", "copies", "copied B");
  std::vector<OverlapRow> rows;
  par::run(p, [&](par::Comm& comm) {
    const auto conn = forest::Connectivity<3>::rotcubes();
    auto f = forest::Forest<3>::new_uniform(comm, &conn, 1);
    f.refine(4, true, [](int, const forest::Octant<3>& o) {
      const int id = o.child_id();
      return id == 0 || id == 3 || id == 5;
    });
    f.balance();
    f.partition();
    const auto g = forest::GhostLayer<3>::build(f);
    constexpr int per_elem = 8;
    std::vector<double> fields(static_cast<std::size_t>(f.num_local()) * per_elem);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      fields[i] = comm.rank() + 1e-3 * static_cast<double>(i);
    }
    volatile double keep = 0.0;
    const auto measure = [&](const char* mode, const std::function<void()>& body) {
      const auto run_iters = [&] {
        for (int i = 0; i < iters; ++i) body();
      };
      const auto cost = bench::timed_phase(comm, run_iters);
      // Separate untimed pass for the BufferStats delta: timed_phase's own
      // reductions copy small payloads, which would pollute the count.
      comm.barrier();
      if (comm.rank() == 0) par::buffer_stats_reset();
      comm.barrier();
      run_iters();
      comm.barrier();
      if (comm.rank() == 0) {
        const auto bs = par::buffer_stats();
        rows.push_back(OverlapRow{mode, cost, bs.copies, bs.bytes_copied, bs.adoptions});
        std::printf("%-16s %10.2f %10" PRId64 " %12" PRId64 " %10.2f %10" PRId64 " %12" PRId64
                    "\n",
                    mode, 1e3 * cost.busy_max_s, cost.msgs, cost.bytes, 1e3 * cost.blocked_s,
                    bs.copies, bs.bytes_copied);
      }
    };
    measure("ghost blocking", [&] {
      const auto out =
          oracles::exchange_blocking(g, comm, std::span<const double>(fields), per_elem);
      double acc = 0.0;
      for (const double v : out) acc += v;
      keep = keep + acc;
    });
    measure("ghost async", [&] {
      const auto out = g.exchange(comm, std::span<const double>(fields), per_elem);
      double acc = 0.0;
      for (const double v : out) acc += v;
      keep = keep + acc;
    });
  });
  std::printf("(async = post-all-then-overlap isend/irecv with adopted buffers, read in\n");
  std::printf(" place at the receiver; copies counts Buffer-layer payload copies)\n");
  return rows;
}

void write_json(const char* path, int p, std::size_t payload, const std::vector<VolumeRow>& vols,
                const std::vector<PhaseRow>& phases, const std::vector<CheckRow>& checks,
                const std::vector<IntegrityRow>& integ, const std::vector<OverlapRow>& overlap) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_comm: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"comm\",\n  \"ranks\": %d,\n  \"payload\": %zu,\n", p,
               payload);
  std::fprintf(out, "  \"collective_volume\": [\n");
  for (std::size_t i = 0; i < vols.size(); ++i) {
    std::fprintf(out,
                 "    {\"collective\": \"%s\", \"msgs\": %" PRId64 ", \"bytes\": %" PRId64
                 "}%s\n",
                 vols[i].collective, vols[i].msgs, vols[i].bytes, i + 1 < vols.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& c = phases[i].cost;
    std::fprintf(out,
                 "    {\"phase\": \"%s\", \"busy_s\": %.6f, \"msgs\": %" PRId64
                 ", \"bytes\": %" PRId64 ", \"blocked_s\": %.6f}%s\n",
                 phases[i].phase, c.busy_max_s, c.msgs, c.bytes, c.blocked_s,
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"checker_overhead\": [\n");
  const double base = checks.empty() ? 1.0 : checks[0].busy_s;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::fprintf(out,
                 "    {\"check_level\": %d, \"busy_s\": %.6f, \"overhead\": %.4f}%s\n",
                 checks[i].level, checks[i].busy_s, (checks[i].busy_s - base) / base,
                 i + 1 < checks.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"integrity_overhead\": [\n");
  const double ibase = integ.empty() ? 1.0 : integ[0].busy_s;
  for (std::size_t i = 0; i < integ.size(); ++i) {
    std::fprintf(out,
                 "    {\"integrity\": %s, \"busy_s\": %.6f, \"bytes_verified\": %" PRId64
                 ", \"overhead\": %.4f}%s\n",
                 integ[i].on ? "true" : "false", integ[i].busy_s, integ[i].bytes_verified,
                 (integ[i].busy_s - ibase) / ibase, i + 1 < integ.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"overlap\": [\n");
  for (std::size_t i = 0; i < overlap.size(); ++i) {
    const auto& r = overlap[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"busy_s\": %.6f, \"msgs\": %" PRId64
                 ", \"bytes\": %" PRId64 ", \"blocked_s\": %.6f, \"copies\": %" PRId64
                 ", \"bytes_copied\": %" PRId64 ", \"adoptions\": %" PRId64 "}%s\n",
                 r.mode, r.cost.busy_max_s, r.cost.msgs, r.cost.bytes, r.cost.blocked_s, r.copies,
                 r.bytes_copied, r.adoptions, i + 1 < overlap.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: bench_comm [P] [payload] [--json out.json]\n");
  std::exit(2);
}

/// Parse a positive decimal integer no larger than `max`, or exit via usage().
long long positive_arg(const char* s, long long max) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v <= 0 || v > max) usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  int p = 16;
  std::size_t payload = 4096;
  const char* json_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (positional == 0) {
      p = static_cast<int>(positive_arg(argv[i], INT_MAX));
      ++positional;
    } else if (positional == 1) {
      payload = static_cast<std::size_t>(positive_arg(argv[i], LLONG_MAX));
      ++positional;
    } else {
      usage();
    }
  }
  std::printf("=== Comm v2: instrumented collectives (src/par) ===\n\n");
  const auto vols = volume_table(p, payload);
  const auto phases = phase_table(std::min(p, 8));
  const auto checks = checker_table(std::min(p, 8), 200);
  const auto integ = integrity_table(std::min(p, 8), 200);
  const auto overlap = overlap_table(std::min(p, 8), 20);
  if (json_path != nullptr) {
    write_json(json_path, p, payload, vols, phases, checks, integ, overlap);
  }
  return 0;
}
