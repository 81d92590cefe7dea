#include "forest/stats.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace esamr::forest {

OpStats& OpStats::operator+=(const OpStats& o) {
  balance_merge_passes += o.balance_merge_passes;
  balance_seed_octants += o.balance_seed_octants;
  balance_closure_kept += o.balance_closure_kept;
  balance_octants_sent += o.balance_octants_sent;
  balance_exchange_rounds += o.balance_exchange_rounds;
  balance_leaves_created += o.balance_leaves_created;
  nodes_rounds += o.nodes_rounds;
  nodes_request_batches += o.nodes_request_batches;
  nodes_requests_sent += o.nodes_requests_sent;
  nodes_leaf_lookups += o.nodes_leaf_lookups;
  ghost_octants_sent += o.ghost_octants_sent;
  ghost_interior_skipped += o.ghost_interior_skipped;
  delta_octants += o.delta_octants;
  nodes_patched += o.nodes_patched;
  nodes_reused += o.nodes_reused;
  ckpt_delta_bytes += o.ckpt_delta_bytes;
  return *this;
}

OpStats& op_stats() {
  thread_local OpStats stats;
  return stats;
}

OpStats op_stats_total(par::Comm& comm) {
  static_assert(std::is_trivially_copyable_v<OpStats>);
  OpStats total = op_stats();
  comm.allreduce_bytes(&total, sizeof(OpStats), [](void* acc_p, const void* in_p) {
    OpStats acc, in;
    std::memcpy(&acc, acc_p, sizeof(OpStats));
    std::memcpy(&in, in_p, sizeof(OpStats));
    acc += in;
    std::memcpy(acc_p, &acc, sizeof(OpStats));
  });
  return total;
}

template <int Dim>
ForestStats<Dim> ForestStats<Dim>::compute(const Forest<Dim>& f) {
  ForestStats s;
  std::array<std::int64_t, Octant<Dim>::max_level + 1> local{};
  f.for_each_local([&](int, const Octant<Dim>& o) {
    ++local[static_cast<std::size_t>(o.level)];
  });
  const auto all = f.comm().allgatherv(
      std::vector<std::int64_t>(local.begin(), local.end()));
  for (const auto& from : all) {
    for (std::size_t l = 0; l < from.size(); ++l) s.level_counts[l] += from[l];
  }
  s.min_per_rank = f.global_counts().front();
  for (const auto c : f.global_counts()) {
    s.global_octants += c;
    s.min_per_rank = std::min(s.min_per_rank, c);
    s.max_per_rank = std::max(s.max_per_rank, c);
  }
  s.avg_per_rank = static_cast<double>(s.global_octants) / f.comm().size();
  s.min_level = -1;
  for (int l = 0; l <= Octant<Dim>::max_level; ++l) {
    if (s.level_counts[static_cast<std::size_t>(l)] > 0) {
      if (s.min_level < 0) s.min_level = l;
      s.max_level = l;
    }
  }
  if (s.min_level < 0) s.min_level = 0;
  s.comm_total = f.comm().stats_snapshot().total;
  return s;
}

template struct ForestStats<2>;
template struct ForestStats<3>;

}  // namespace esamr::forest
