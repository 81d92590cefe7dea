// Aggregate forest statistics (load balance and refinement structure),
// gathered with one allgather — the kind of summary the paper's runs log.
#pragma once

#include <array>

#include "forest/forest.h"
#include "par/stats.h"

namespace esamr::forest {

/// Per-rank algorithmic operation counters for the forest hot paths
/// (Balance, Nodes, Ghost). These make algorithmic cost observable in op
/// space — octants sent, merge passes, request batches — so perf regressions
/// are caught by counting, not by flaky wall-clock thresholds (the `perf`
/// ctest label asserts budgets on them). Ranks are threads in this runtime,
/// so the counters live in a thread-local slot: op_stats() returns the
/// calling rank's counters.
struct OpStats {
  // Balance.
  std::int64_t balance_merge_passes = 0;     ///< level buckets sorted+merged
  std::int64_t balance_seed_octants = 0;     ///< insulation octants generated
  std::int64_t balance_closure_kept = 0;     ///< constraints kept after pruning
  std::int64_t balance_octants_sent = 0;     ///< boundary constraints sent
  std::int64_t balance_exchange_rounds = 0;  ///< alltoallv rounds (1 = single-pass)
  std::int64_t balance_leaves_created = 0;   ///< leaves after minus before

  // Nodes.
  std::int64_t nodes_rounds = 0;             ///< resolution rounds (1 = one-shot)
  std::int64_t nodes_request_batches = 0;    ///< non-empty request batches sent
  std::int64_t nodes_requests_sent = 0;      ///< total keys asked of other ranks
  std::int64_t nodes_leaf_lookups = 0;       ///< leaf-directory searches classifying points

  // Ghost.
  std::int64_t ghost_octants_sent = 0;
  std::int64_t ghost_interior_skipped = 0;   ///< leaves skipped by the insulation fast path

  // Incremental adapt (delta balance / node-table patching / delta ckpts).
  std::int64_t delta_octants = 0;            ///< delta regions driving an incremental step
  std::int64_t nodes_patched = 0;            ///< elements reclassified by the patch path
  std::int64_t nodes_reused = 0;             ///< elements spliced from the cached numbering
  std::int64_t ckpt_delta_bytes = 0;         ///< bytes committed as delta checkpoints

  OpStats& operator+=(const OpStats& o);
  void reset() { *this = OpStats{}; }
};

/// The calling rank's (thread's) counters. Reset between phases to measure.
OpStats& op_stats();

/// Element-wise sum over all ranks (collective).
OpStats op_stats_total(par::Comm& comm);

template <int Dim>
struct ForestStats {
  std::int64_t global_octants = 0;
  std::int64_t min_per_rank = 0;
  std::int64_t max_per_rank = 0;
  double avg_per_rank = 0.0;
  int min_level = 0;  ///< over all leaves, globally
  int max_level = 0;
  /// Global leaf count per refinement level.
  std::array<std::int64_t, Octant<Dim>::max_level + 1> level_counts{};
  /// Communication counters summed over all ranks at snapshot time
  /// (cumulative since the SPMD section started, or since the caller last
  /// reset per-rank stats). See par/stats.h for the accounting rule.
  par::CommStats comm_total{};

  static ForestStats compute(const Forest<Dim>& f);
};

extern template struct ForestStats<2>;
extern template struct ForestStats<3>;

}  // namespace esamr::forest
