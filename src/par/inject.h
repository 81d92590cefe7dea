// Deterministic fault/perturbation injection for the SPMD runtime.
//
// All perturbation is derived by hashing (seed, stream coordinates): the same
// seed always produces the same delivery delays, the same set of slowed
// ranks, the same corrupted messages, and the same disk faults, independent
// of thread scheduling. Timing injection perturbs *timing* only —
// per-(source, destination) message order is preserved (delivery times are
// clamped monotone per pair), so tag-matching semantics are unchanged and a
// correct deterministic algorithm must produce bit-identical results under
// every seed. That invariant is what tests/test_perturb.cc asserts.
//
// Payload injection models silent data corruption: the seq-th message from
// src to dst (selected by the same (seed, src, dst, seq) hashing as the
// delivery delays) has its bytes bit-flipped, truncated, or duplicated in
// flight. Disk injection models storage faults in the checkpoint commit path
// (torn tail, truncation, transient EIO), selected by (seed, step, attempt).
// Both are meant to be *caught* by the integrity layer (CRC32C message
// envelopes, write-then-reread-verify) rather than tolerated silently; the
// chaos campaign (tests/test_chaos.cc) asserts exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace esamr::par {

struct InjectConfig {
  /// Master seed; 0 disables all perturbation.
  std::uint64_t seed = 0;
  /// Per-message delivery delay, uniform in [0, max_delay_us) microseconds.
  double max_delay_us = 0.0;
  /// Every stride-th rank (selected by seeded hash) runs slowed; 0 = none.
  int slow_rank_stride = 0;
  /// Mean extra latency per comm operation on a slowed rank, microseconds.
  double slow_op_us = 0.0;
  /// Every stride-th rank (selected by seeded hash, independent of the slow
  /// set) is a kill victim; 0 = none. Victims throw RankFailure from their
  /// kill_after_ops-th comm operation, modelling a one-shot node failure.
  int kill_rank_stride = 0;
  /// Comm operation count (sends, recvs, collectives) after which a victim
  /// rank fails; 0 disables rank-kill even when a stride is set.
  std::uint64_t kill_after_ops = 0;
  /// When true a victim rank dies *silently* — it simply stops participating
  /// (no RankFailure thrown, no world poisoning, no diagnostic) — modelling a
  /// node that drops off the network. Only the heartbeat failure detector
  /// (RunOptions::heartbeat_timeout_s) or the recv/barrier timeouts can turn
  /// such a death into a diagnosed fault; par::run asserts one of them is
  /// armed so a silent kill cannot become a silent hang.
  bool kill_silent = false;
  /// Ranks exempted from rank-kill selection. resil::supervise appends the
  /// victim of a shrink/spare repair here: the failed node has been replaced
  /// or excluded, so its deterministic kill must not fire again (the
  /// rank-kill analogue of clear_kill_on_retry, but per-victim instead of
  /// global — later victims still die, enabling back-to-back failure tests).
  std::vector<int> kill_exempt;
  /// Every stride-th in-flight message (selected by seeded hash of
  /// (seed, src, dst, seq), the delay stream's coordinates) has its payload
  /// corrupted — bit-flip, tail truncation, or byte duplication, the kind
  /// drawn from the same hash; 0 = none.
  int corrupt_msg_stride = 0;
  /// Every stride-th checkpoint commit (selected by seeded hash of
  /// (seed, step, attempt)) suffers a disk fault — torn tail, truncation, or
  /// transient EIO — before the file is published; 0 = none. Faults are
  /// transient per write attempt, so a write-verify retry loop heals them.
  int disk_fault_stride = 0;

  bool delays_enabled() const { return seed != 0 && max_delay_us > 0.0; }
  bool slowdown_enabled() const {
    return seed != 0 && slow_rank_stride > 0 && slow_op_us > 0.0;
  }
  bool kill_enabled() const {
    return seed != 0 && kill_rank_stride > 0 && kill_after_ops > 0;
  }
  bool corrupt_enabled() const { return seed != 0 && corrupt_msg_stride > 0; }
  bool disk_enabled() const { return seed != 0 && disk_fault_stride > 0; }
};

namespace detail {

/// splitmix64 finalizer: a fast, well-mixed 64-bit hash.
std::uint64_t mix64(std::uint64_t x);

/// Uniform [0, 1) from a seed and two stream coordinates.
double unit_hash(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// True if `rank` is one of the seeded slow ranks.
bool is_slow_rank(const InjectConfig& cfg, int rank);

/// True if `rank` is one of the seeded kill victims.
bool is_kill_rank(const InjectConfig& cfg, int rank);

/// Delivery delay in microseconds for the seq-th message from src to dst.
double delay_us(const InjectConfig& cfg, int src, int dst, std::uint64_t seq);

/// Extra per-operation sleep in microseconds for a slow rank's op_seq-th op.
double slow_op_sleep_us(const InjectConfig& cfg, int rank, std::uint64_t op_seq);

/// How a selected message payload is corrupted in flight.
enum class PayloadFault { none, bitflip, truncate, duplicate };

const char* payload_fault_name(PayloadFault f);

/// The payload fault (or none) for the seq-th message from src to dst. Pure
/// function of (cfg.seed, src, dst, seq): identical victims for identical
/// seeds, independent of scheduling — the same contract as delay_us.
PayloadFault payload_fault(const InjectConfig& cfg, int src, int dst, std::uint64_t seq);

/// Apply the selected fault (if any) to `data` in place. Bit-flip inverts one
/// hashed bit; truncate drops 1..n hashed tail bytes; duplicate re-appends a
/// hashed-length prefix slice. An empty payload grows by one hashed byte.
/// Returns the fault applied (none when the message is not selected).
PayloadFault corrupt_payload(const InjectConfig& cfg, int src, int dst, std::uint64_t seq,
                             std::vector<std::byte>& data);

/// How a selected checkpoint commit fails.
enum class DiskFault { none, torn_tail, truncate, eio };

const char* disk_fault_name(DiskFault f);

/// The disk fault (or none) for write attempt `attempt` of checkpoint step
/// `step`. Pure function of (cfg.seed, step, attempt); the attempt coordinate
/// makes every fault transient, so bounded write-verify retries converge.
DiskFault disk_fault(const InjectConfig& cfg, std::uint64_t step, std::uint64_t attempt);

}  // namespace detail

}  // namespace esamr::par
