// Machine probe for the traced run: STREAM-style triad bandwidth and a
// multiply-add throughput loop, both on the same number of threads as the
// benchmark's ranks. Each triad array is four times the last-level cache, so
// the triad measures memory, not cache, bandwidth.
#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace esamr::perfbench {

namespace {

/// Keeps the multiply-add results observable so the loop is not elided.
volatile double g_sink = 0.0;

/// Largest cache size the kernel reports for cpu0 (bytes), 0 if unknown.
std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::size_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    if (mult != 1) s.pop_back();
    best = std::max(best, static_cast<std::size_t>(std::stoull(s)) * mult);
  }
  return best;
}

template <typename F>
void on_threads(int threads, F&& fn) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back([&fn, t] { fn(t); });
  for (auto& th : pool) th.join();
}

}  // namespace

ProbeResult run_probe(int threads) {
  ProbeResult res;
  res.llc_bytes = last_level_cache_bytes();
  const std::size_t llc = res.llc_bytes > 0 ? res.llc_bytes : std::size_t{64} << 20;
  const std::size_t n = 4 * llc / sizeof(double);
  res.array_bytes = n * sizeof(double);
  // Uninitialized storage, first touched by the thread that later streams it.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto chunk = [&](int t) {
    const std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };
  on_threads(threads, [&](int t) {
    const auto [lo, hi] = chunk(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 2.0 - static_cast<double>(i % 5);
    }
  });
  const double s = 0.5 + 1e-9 * static_cast<double>(threads);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = par::wall_seconds();
    on_threads(threads, [&](int t) {
      const auto [lo, hi] = chunk(t);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, par::wall_seconds() - t0);
  }
  // STREAM counts 3 words per triad element (two loads, one store).
  res.triad_gbps = 3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9;

  // Multiply-add throughput: 16 independent chains per thread.
  constexpr int chains = 16;
  const long iters = 20'000'000;
  std::vector<double> sink(static_cast<std::size_t>(threads));
  const double t0 = par::wall_seconds();
  on_threads(threads, [&](int t) {
    double acc[chains];
    for (int j = 0; j < chains; ++j) acc[j] = 1.0 + 1e-3 * (j + t);
    const double x = 0.999999, y = 1e-7 * (a[0] + 1.0);
    for (long i = 0; i < iters; ++i) {
      for (int j = 0; j < chains; ++j) acc[j] = acc[j] * x + y;
    }
    double total = 0.0;
    for (const double v : acc) total += v;
    sink[static_cast<std::size_t>(t)] = total;
  });
  const double dt = par::wall_seconds() - t0;
  for (const double v : sink) g_sink = g_sink + v;
  res.fma_gflops = 2.0 * chains * static_cast<double>(iters) * threads / dt / 1e9;
  return res;
}

}  // namespace esamr::perfbench
