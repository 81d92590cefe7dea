// CommStats — per-rank communication observability for the SPMD runtime.
//
// Every Comm carries a CommStats: point-to-point message/byte counters,
// per-collective invocation counts and payloads, the wire traffic generated
// *inside* the collective algorithms, and the wall time a rank spent blocked
// in recv/barrier. Each collective-internal message is counted once, at the
// sender, so coll_bytes is exactly the wire volume of the algorithms
// (closed-form pins in tests/test_collectives.cc; see DESIGN.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace esamr::par {

/// Collective kinds tracked by CommStats.
enum class Coll : int {
  barrier = 0,
  bcast,
  reduce,
  allreduce,
  allgather,
  allgatherv,
  exscan,
  alltoall,
  n_kinds
};
inline constexpr int n_coll_kinds = static_cast<int>(Coll::n_kinds);

const char* coll_name(Coll k);

/// Per-rank counters. Trivially copyable so snapshots can gather it raw.
struct CommStats {
  // User point-to-point traffic (Comm::send* / Comm::recv). Nonblocking ops
  // count here too (an isend is a p2p_send, an irecv completion a p2p_recv),
  // so blocking and async forms of the same exchange report identical byte
  // counts — the differential suite asserts exactly that.
  std::int64_t p2p_sends = 0;
  std::int64_t p2p_send_bytes = 0;
  std::int64_t p2p_recvs = 0;
  std::int64_t p2p_recv_bytes = 0;

  // Async-runtime observability: how many of the p2p ops above were posted
  // nonblocking, and how many pending requests were drained uncompleted
  // (destroyed mid-flight, e.g. during a fault unwind).
  std::int64_t isends = 0;
  std::int64_t irecvs = 0;
  std::int64_t requests_drained = 0;

  // Traffic generated inside collective algorithms, counted at the sender.
  std::int64_t coll_msgs = 0;
  std::int64_t coll_bytes = 0;

  // Per-collective invocation counts and payload bytes contributed by this
  // rank (the payload the caller handed in, not the wire traffic).
  std::array<std::int64_t, n_coll_kinds> coll_calls{};
  std::array<std::int64_t, n_coll_kinds> coll_payload_bytes{};

  // Message-integrity layer (CRC32C envelopes; see DESIGN.md "Fault model").
  // bytes_verified counts payload bytes whose envelope CRC was recomputed at
  // the receiver; corrupt_detected counts envelopes that failed verification
  // (when link-level ARQ is off, each such failure also raised CorruptMessage;
  // with ARQ on, failed retransmission draws count here too).
  std::int64_t corrupt_detected = 0;
  std::int64_t bytes_verified = 0;

  // Link-level ARQ (the cheapest rung of the recovery ladder; see DESIGN.md
  // "Recovery ladder"). retransmits counts retransmission requests this rank
  // issued as a receiver; arq_healed counts corrupt envelopes repaired from
  // the sender's retained payload without escalating; arq_escalations counts
  // corruptions that exhausted the retransmission budget and escalated to
  // CorruptMessage (the supervisor layer).
  std::int64_t retransmits = 0;
  std::int64_t arq_healed = 0;
  std::int64_t arq_escalations = 0;

  // Wall time this rank spent blocked (includes blocking inside collectives).
  double recv_blocked_s = 0.0;
  double barrier_blocked_s = 0.0;

  std::int64_t total_msgs() const { return p2p_sends + coll_msgs; }
  std::int64_t total_bytes() const { return p2p_send_bytes + coll_bytes; }

  CommStats& operator+=(const CommStats& o);
  CommStats& operator-=(const CommStats& o);
  void reset() { *this = CommStats{}; }
};

/// Aggregated view gathered from every rank (Comm::stats_snapshot).
struct CommStatsSnapshot {
  CommStats total;                  ///< element-wise sum over ranks
  std::vector<CommStats> per_rank;  ///< per_rank[r] is rank r's counters
};

/// Multi-line human-readable summary (used by the bench drivers).
std::string summary(const CommStats& s);

/// Process-wide counters for the link-level ARQ layer, following the
/// BufferStats pattern (par/buffer.h): atomics aggregated across every World
/// so resil::supervise and the benches can observe link-layer heals that, by
/// design, never surface as exceptions out of par::run.
struct ArqStats {
  std::int64_t retained = 0;     ///< sealed payloads retained for retransmission
  std::int64_t acked = 0;        ///< retained payloads released by a verified recv
  std::int64_t retransmits = 0;  ///< retransmission requests served
  std::int64_t healed = 0;       ///< corrupt envelopes repaired at the link layer
  std::int64_t escalated = 0;    ///< corruptions that exhausted the ARQ budget
  double heal_s = 0.0;           ///< total detect-to-heal latency over `healed`
};

/// Snapshot of the process-wide ARQ counters.
ArqStats arq_stats();
/// Reset the process-wide ARQ counters (bench/test phase boundaries).
void arq_stats_reset();

/// Caller-scoped ARQ accounting (RunOptions::arq_scope): the same counters as
/// the process-wide ArqStats, but owned by one caller and bumped only by the
/// world(s) whose RunOptions point at it. resil::supervise installs one per
/// supervised run (unless the caller provided its own), so concurrent
/// supervisors — the multi-tenant serving layer runs hundreds — observe only
/// their *own* link-layer heals instead of reading each other's out of the
/// process-wide totals. The globals keep accumulating the cross-world sum.
struct ArqScope {
  std::atomic<std::int64_t> retained{0};
  std::atomic<std::int64_t> acked{0};
  std::atomic<std::int64_t> retransmits{0};
  std::atomic<std::int64_t> healed{0};
  std::atomic<std::int64_t> escalated{0};
  std::atomic<double> heal_s{0.0};

  /// Coherent plain-value copy of the counters.
  ArqStats snapshot() const;
};

namespace detail {
// Each note bumps the process-wide counter and, when `scope` is non-null, the
// caller's ArqScope (the World threads its RunOptions::arq_scope through).
void arq_note_retained(ArqScope* scope);
void arq_note_acked(ArqScope* scope);
void arq_note_retransmit(ArqScope* scope);
void arq_note_healed(ArqScope* scope, double heal_s);
void arq_note_escalated(ArqScope* scope);
}  // namespace detail

}  // namespace esamr::par
