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
#include <cstdint>
#include <mutex>
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
  // the message's clean payload without escalating, and arq_heal_s their
  // summed detect-to-heal latency; arq_escalations counts corruptions that
  // exhausted the retransmission budget and escalated to CorruptMessage (the
  // supervisor layer). These are the only ARQ counters: a heal is charged
  // to the receiving rank of the world it happened in, so tenants' counts
  // stay apart by construction.
  std::int64_t retransmits = 0;
  std::int64_t arq_healed = 0;
  std::int64_t arq_escalations = 0;
  double arq_heal_s = 0.0;

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

/// A CommStats sum over the ranks of one or more runs (thread-safe). A rank
/// body adds its counters through a Tally, which folds them in when the body
/// returns *or unwinds*, so an attempt that faulted still counts.
class CommSum {
 public:
  class Tally {
   public:
    Tally(CommSum& sum, const CommStats& rank) : sum_(sum), rank_(rank) {}
    ~Tally() { sum_.add(rank_); }
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

   private:
    CommSum& sum_;
    const CommStats& rank_;
  };

  CommStats total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }

 private:
  void add(const CommStats& s) {
    std::lock_guard<std::mutex> lock(mu_);
    sum_ += s;
  }

  mutable std::mutex mu_;
  CommStats sum_;
};

}  // namespace esamr::par
