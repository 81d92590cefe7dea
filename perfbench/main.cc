// esamr_perfbench: the measurement program behind perfbench/run.py.
//
//   esamr_perfbench --workload NAME --seed N --seconds S [--ranks P]
//                   [--trace 0|1] [--min-loops K] [--loop-steps N] [--out-dir D]
//   esamr_perfbench --probe [--ranks P]
//   esamr_perfbench --self-test
//
// Prints one JSON object on stdout holding the raw measurements (per-step
// times, per-loop set-up / wall / core seconds, named samples, checks and,
// with --trace 1, every span). run.py turns it into the benchmark's metrics.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "par/buffer.h"

using namespace esamr;
using namespace esamr::perfbench;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: esamr_perfbench --workload NAME --seed N --seconds S [--ranks P]\n"
               "                       [--trace 0|1] [--min-loops K] [--loop-steps N]\n"
               "                       [--out-dir DIR]\n"
               "       esamr_perfbench --probe [--ranks P]\n"
               "       esamr_perfbench --self-test\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(out, " %s", w.name);
  std::fprintf(out, "\n");
}

[[noreturn]] void bad_usage(const std::string& why) {
  std::fprintf(stderr, "esamr_perfbench: %s\n", why.c_str());
  usage(stderr);
  std::exit(2);
}

/// Whole-string integer parse; rejects signs where unsigned, junk and overflow.
std::int64_t parse_int(const std::string& flag, const char* s, std::int64_t lo, std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    bad_usage(flag + " expects an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
              "], got '" + s + "'");
  }
  return v;
}

double parse_double(const std::string& flag, const char* s, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v) || v < lo || v > hi) {
    bad_usage(flag + " expects a number in [" + std::to_string(lo) + ", " + std::to_string(hi) +
              "], got '" + s + "'");
  }
  return v;
}

void put_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

void put_str(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void put_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    put_num(out, v[i]);
  }
  out += ']';
}

/// Start a fresh peak-RSS window: reset the kernel's high-water mark (VmHWM)
/// so each loop reports its own peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM of this process in KiB (0 when /proc is unavailable).
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// CPU time the hypervisor has stolen from this VM so far, in seconds (the
/// steal column of /proc/stat; 0 when unavailable).
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (long long& x : v) in >> x;  // user nice system idle iowait irq softirq steal
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A loop counts as clean when less than this share of the VM's CPU time was
/// stolen while it ran. Quiet periods on the reference VM steal ~0.4%;
/// contention episodes 5-20% and stretch MINRES-bound steps up to 4x.
constexpr double kCleanStealFrac = 0.02;

/// Everything one invocation measured, combined across ranks and loops.
struct RunRecord {
  std::vector<double> setup_s, loop_wall_s, loop_core_s, step_s, adapt_s, peak_rss_kb;
  std::vector<double> loop_steal_frac, loop_clean, loop_steps, loop_adapts;
  // samples[key][rank] = concatenated values over loops
  std::map<std::string, std::vector<std::vector<double>>> samples;
  par::CommStats comm;  ///< timed-loop CommStats, summed over ranks and loops
  std::int64_t buffer_copies = 0, buffer_zero_copy = 0;
  int checks = 0, failed = 0;
  std::vector<std::string> failures;
  std::string spans;  ///< pre-serialized span rows
  std::size_t span_count = 0;
};

void absorb(RunRecord& rec, std::vector<RankLog>& logs, double t_launch, double t_origin,
            int loop) {
  const int p = static_cast<int>(logs.size());
  double t0_max = logs[0].loop_t0, t0_min = logs[0].loop_t0, t1_max = logs[0].loop_t1;
  double core = 0.0;
  for (const RankLog& l : logs) {
    t0_max = std::max(t0_max, l.loop_t0);
    t0_min = std::min(t0_min, l.loop_t0);
    t1_max = std::max(t1_max, l.loop_t1);
    core += l.core_s;
    rec.comm += l.comm;
    rec.checks += l.checks;
    rec.failed += l.failed;
    rec.failures.insert(rec.failures.end(), l.failures.begin(), l.failures.end());
  }
  rec.setup_s.push_back(t0_max - t_launch);
  rec.loop_wall_s.push_back(t1_max - t0_min);
  rec.loop_core_s.push_back(core);
  // A step's time is the maximum over ranks of that rank's clock reads.
  const std::size_t nsteps = logs[0].step_s.size();
  const std::size_t nadapt = logs[0].adapt_s.size();
  for (const RankLog& l : logs) {
    if (l.step_s.size() != nsteps || l.adapt_s.size() != nadapt) {
      throw std::runtime_error("ranks recorded different step counts");
    }
  }
  for (std::size_t s = 0; s < nsteps; ++s) {
    double m = 0.0;
    for (const RankLog& l : logs) m = std::max(m, l.step_s[s]);
    rec.step_s.push_back(m);
  }
  for (std::size_t s = 0; s < nadapt; ++s) {
    double m = 0.0;
    for (const RankLog& l : logs) m = std::max(m, l.adapt_s[s]);
    rec.adapt_s.push_back(m);
  }
  for (int r = 0; r < p; ++r) {
    for (auto& [key, vals] : logs[static_cast<std::size_t>(r)].samples) {
      auto& slot = rec.samples[key];
      slot.resize(static_cast<std::size_t>(p));
      auto& dst = slot[static_cast<std::size_t>(r)];
      dst.insert(dst.end(), vals.begin(), vals.end());
    }
  }
  // Span rows: [name, rank, loop, parent, t0, t1, busy, wait, msgs, bytes, ops...]
  for (int r = 0; r < p; ++r) {
    const auto& spans = logs[static_cast<std::size_t>(r)].spans;
    const std::size_t base = rec.span_count;
    for (const SpanRec& sp : spans) {
      std::string& o = rec.spans;
      if (rec.span_count > 0) o += ",\n";
      o += '[';
      put_num(o, sp.name);
      o += ',';
      put_num(o, r);
      o += ',';
      put_num(o, loop);
      o += ',';
      put_num(o, sp.parent < 0 ? -1.0
                               : static_cast<double>(base + static_cast<std::size_t>(sp.parent)));
      for (const double v : {sp.t0 - t_origin, sp.t1 - t_origin, sp.busy, sp.wait}) {
        o += ',';
        put_num(o, v);
      }
      o += ',';
      put_num(o, static_cast<double>(sp.msgs));
      o += ',';
      put_num(o, static_cast<double>(sp.bytes));
      for (const std::int64_t v : sp.ops) {
        o += ',';
        put_num(o, static_cast<double>(v));
      }
      o += ']';
      ++rec.span_count;
    }
  }
}

std::string emit(const Options& opt, const Workload& w, const RunRecord& rec) {
  std::string o = "{\"workload\":";
  put_str(o, w.name);
  o += ",\"seed\":" + std::to_string(opt.seed);
  o += ",\"ranks\":" + std::to_string(opt.ranks);
  o += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
  o += ",\"inputs\":";
  put_str(o, describe_inputs(w.name, opt.seed));
  o += ",\"build\":{\"compiler\":";
  put_str(o, ESAMR_COMPILER);
  o += ",\"build_type\":";
  put_str(o, ESAMR_BUILD_TYPE);
  o += "}";
  o += ",\"setup_s\":";
  put_array(o, rec.setup_s);
  o += ",\"loop_wall_s\":";
  put_array(o, rec.loop_wall_s);
  o += ",\"loop_core_s\":";
  put_array(o, rec.loop_core_s);
  o += ",\"step_s\":";
  put_array(o, rec.step_s);
  o += ",\"adapt_s\":";
  put_array(o, rec.adapt_s);
  o += ",\"loop_steps\":";
  put_array(o, rec.loop_steps);
  o += ",\"loop_adapts\":";
  put_array(o, rec.loop_adapts);
  o += ",\"loop_steal_frac\":";
  put_array(o, rec.loop_steal_frac);
  o += ",\"loop_clean\":";
  put_array(o, rec.loop_clean);
  o += ",\"samples\":{";
  bool first = true;
  for (const auto& [key, per_rank] : rec.samples) {
    if (!first) o += ',';
    first = false;
    put_str(o, key);
    o += ":[";
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      if (r > 0) o += ',';
      put_array(o, per_rank[r]);
    }
    o += ']';
  }
  o += "},\"comm\":{";
  const par::CommStats& c = rec.comm;
  std::int64_t coll_calls = 0;
  for (const std::int64_t v : c.coll_calls) coll_calls += v;
  o += "\"msgs\":" + std::to_string(c.total_msgs());
  o += ",\"bytes\":" + std::to_string(c.total_bytes());
  o += ",\"coll_calls\":" + std::to_string(coll_calls);
  o += ",\"bytes_verified\":" + std::to_string(c.bytes_verified);
  o += ",\"retransmits\":" + std::to_string(c.retransmits);
  o += ",\"wait_s\":";
  put_num(o, c.recv_blocked_s + c.barrier_blocked_s);
  o += ",\"buffer_copies\":" + std::to_string(rec.buffer_copies);
  o += ",\"buffer_zero_copy_takes\":" + std::to_string(rec.buffer_zero_copy);
  o += "},\"checks\":{\"attempted\":" + std::to_string(rec.checks);
  o += ",\"failed\":" + std::to_string(rec.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < rec.failures.size() && i < 20; ++i) {
    if (i > 0) o += ',';
    put_str(o, rec.failures[i]);
  }
  o += "]},\"peak_rss_kb\":";
  put_array(o, rec.peak_rss_kb);
  o += ",\"span_names\":[";
  for (std::size_t i = 0; i < span_names().size(); ++i) {
    if (i > 0) o += ',';
    put_str(o, span_names()[i]);
  }
  o += "],\"op_fields\":[";
  for (int f = 0; f < n_op_fields; ++f) {
    if (f > 0) o += ',';
    put_str(o, op_field_name(f));
  }
  o += "],\"spans\":[\n" + rec.spans + "\n]}";
  return o;
}

int run_workload(const Options& opt, int min_loops) {
  const Workload* w = find_workload(opt.workload);
  RunRecord rec;
  const double t_origin = par::wall_seconds();
  const double vcpus = std::max(1u, std::thread::hardware_concurrency());
  int clean = 0;
  for (int loop = 0;; ++loop) {
    std::vector<RankLog> logs(static_cast<std::size_t>(opt.ranks));
    const par::BufferStats b0 = par::buffer_stats();
    reset_peak_rss();
    const double steal0 = steal_seconds();
    const double t_launch = par::wall_seconds();
    par::run(opt.ranks, [&](par::Comm& comm) {
      w->loop(comm, opt, loop, logs[static_cast<std::size_t>(comm.rank())]);
    });
    const double elapsed = par::wall_seconds() - t_launch;
    const double steal_frac = (steal_seconds() - steal0) / (elapsed * vcpus);
    rec.loop_steal_frac.push_back(steal_frac);
    rec.loop_clean.push_back(steal_frac <= kCleanStealFrac ? 1.0 : 0.0);
    clean += steal_frac <= kCleanStealFrac;
    rec.peak_rss_kb.push_back(peak_rss_kb());
    const par::BufferStats b1 = par::buffer_stats();
    rec.buffer_copies += b1.copies - b0.copies;
    rec.buffer_zero_copy += b1.zero_copy_takes - b0.zero_copy_takes;
    rec.loop_steps.push_back(static_cast<double>(logs[0].step_s.size()));
    rec.loop_adapts.push_back(static_cast<double>(logs[0].adapt_s.size()));
    absorb(rec, logs, t_launch, t_origin, loop);
    const double spent = par::wall_seconds() - t_origin;
    const double per_loop = spent / (loop + 1);
    // Start another loop only when it is expected to end inside the budget,
    // but allow up to half the budget again to collect `min_loops` loops
    // that the hypervisor did not steal from.
    const double budget = clean >= min_loops ? opt.seconds : 1.5 * opt.seconds;
    if (loop + 1 >= min_loops && spent + per_loop > budget) break;
  }
  std::printf("%s\n", emit(opt, *w, rec).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool probe = false, selftest = false, have_workload = false, have_seed = false,
       have_seconds = false;
  int min_loops = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) bad_usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      if (find_workload(opt.workload) == nullptr) {
        bad_usage("unknown workload '" + opt.workload + "'");
      }
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int(a, value(), 0, INT64_MAX));
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = parse_double(a, value(), 0.0, 3600.0);
      have_seconds = true;
    } else if (a == "--ranks") {
      opt.ranks = static_cast<int>(parse_int(a, value(), 1, 64));
    } else if (a == "--trace") {
      opt.trace = parse_int(a, value(), 0, 1) == 1;
    } else if (a == "--min-loops") {
      min_loops = static_cast<int>(parse_int(a, value(), 1, 1000));
    } else if (a == "--loop-steps") {
      opt.loop_steps = static_cast<int>(parse_int(a, value(), 1, 100000));
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else if (a == "--probe") {
      probe = true;
    } else if (a == "--self-test") {
      selftest = true;
    } else {
      bad_usage(a == "--help" || a == "-h" ? std::string("help requested")
                                           : "unknown argument '" + a + "'");
    }
  }
  try {
    if (selftest) {
      std::string detail;
      const bool ok = selftest_advection(&detail);
      std::printf("{\"selftest\":\"advect_composed_loop\",\"ok\":%s,\"detail\":\"%s\"}\n",
                  ok ? "true" : "false", detail.c_str());
      return ok ? 0 : 1;
    }
    if (probe) {
      const ProbeResult pr = run_probe(opt.ranks);
      std::printf(
          "{\"triad_GBps\":%.17g,\"fma_GFlops\":%.17g,\"array_bytes\":%zu,\"llc_bytes\":%zu}\n",
          pr.triad_gbps, pr.fma_gflops, pr.array_bytes, pr.llc_bytes);
      return 0;
    }
    if (!have_workload || !have_seed || !have_seconds) {
      bad_usage("--workload, --seed and --seconds are required");
    }
    if (opt.out_dir.empty()) bad_usage("--out-dir is required for workload runs");
    return run_workload(opt, min_loops);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esamr_perfbench: %s\n", e.what());
    return 1;
  }
}
