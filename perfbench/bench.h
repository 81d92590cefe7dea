// Measurement core of the esamr benchmark.
//
// A run repeats *loops*: each loop is one par::run section that sets the
// workload up and then runs a fixed number of closed-loop steps (the next
// step starts when the previous one returns). Every rank reads its own clocks
// at step boundaries and keeps them in its RankLog; nothing is combined
// across ranks inside the timed loop. The main thread combines the logs after
// the section has joined. With tracing on, every call the benchmark makes
// into a library layer is wrapped in a span that records wall, busy (thread
// CPU) and counter deltas on the calling rank.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "forest/stats.h"
#include "par/comm.h"

namespace esamr::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;   ///< budget for the loops of this invocation
  int ranks = 4;
  bool trace = false;
  int loop_steps = 0;      ///< 0 = the workload's default loop length
  std::string out_dir;     ///< scratch directory for checkpoint rings
};

/// Number of OpStats fields a span carries (names: op_field_name()).
constexpr int n_op_fields = 11;
const char* op_field_name(int f);

struct SpanRec {
  int name = 0;     ///< index into span_names()
  int parent = -1;  ///< index of the enclosing span on the same rank
  double t0 = 0.0, t1 = 0.0;  ///< wall seconds
  double busy = 0.0, wait = 0.0;
  std::int64_t msgs = 0, bytes = 0;
  std::array<std::int64_t, n_op_fields> ops{};
};

/// Span names, indexed by SpanRec::name (the same on every rank).
const std::vector<std::string>& span_names();

/// Per-rank record of one loop. Only the owning rank writes it.
struct RankLog {
  std::vector<double> step_s;   ///< wall seconds of each timed step
  std::vector<double> adapt_s;  ///< wall seconds of each adapt cycle
  double loop_t0 = 0.0, loop_t1 = 0.0;  ///< wall clock at loop start / end
  double core_s = 0.0;                  ///< thread CPU seconds of the timed loop
  par::CommStats comm;                  ///< CommStats delta of the timed loop
  std::vector<SpanRec> spans;
  /// Named samples (octant counts, solver accessors, checkpoint sizes...).
  std::map<std::string, std::vector<double>> samples;
  int checks = 0, failed = 0;
  std::vector<std::string> failures;

  void sample(const std::string& key, double v) { samples[key].push_back(v); }
  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Span recorder of one rank; a no-op when tracing is off.
class Tracer {
 public:
  Tracer(par::Comm& comm, RankLog& log, bool on) : comm_(&comm), log_(&log), on_(on) {}

  template <typename F>
  decltype(auto) span(const char* name, F&& fn) {
    if (!on_) return fn();
    Open o = open(name);
    struct Closer {
      Tracer* t;
      Open o;
      ~Closer() { t->close(o); }
    } closer{this, o};
    return fn();
  }

 private:
  struct Open {
    int index;
    double busy0, wait0;
    std::int64_t msgs0, bytes0;
    std::array<std::int64_t, n_op_fields> ops0;
  };
  Open open(const char* name);
  void close(const Open& o);

  par::Comm* comm_;
  RankLog* log_;
  bool on_;
  std::vector<int> stack_;
};

/// Timed-loop bookkeeping of one rank: clock reads only, no communication.
class LoopClock {
 public:
  LoopClock(par::Comm& comm, RankLog& log) : comm_(&comm), log_(&log) {}
  void begin();  ///< start of the timed loop
  void end();    ///< end of the timed loop

 private:
  par::Comm* comm_;
  RankLog* log_;
  double cpu0_ = 0.0;
  par::CommStats comm0_;
};

/// Workload entry: one loop (set-up plus timed steps) on one rank.
using LoopFn = void (*)(par::Comm& comm, const Options& opt, int loop, RankLog& log);

struct Workload {
  const char* name;
  LoopFn loop;
};
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();
/// Human-readable description of the seeded inputs of a workload.
std::string describe_inputs(const std::string& workload, std::uint64_t seed);

/// Composed advection loop against sfem::AmrAdvectionDriver on the same
/// inputs; true when solutions and forests are bit-identical.
bool selftest_advection(std::string* detail);

struct ProbeResult {
  double triad_gbps = 0.0;
  double fma_gflops = 0.0;
  std::size_t array_bytes = 0;  ///< bytes per triad array
  std::size_t llc_bytes = 0;    ///< last-level cache size the arrays are sized against
};
/// STREAM-triad and FMA probe on `threads` threads.
ProbeResult run_probe(int threads);

}  // namespace esamr::perfbench
