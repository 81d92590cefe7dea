// Supervised execution with checkpoint-based recovery.
//
// resil::supervise wraps par::run in a retry loop that treats four fault
// classes as recoverable:
//
//   par::RankFailure       injected one-shot node failure (par/inject.h)
//   par::TimeoutError      a configured recv/barrier timeout expired
//   par::CorruptMessage    a message envelope failed CRC32C verification
//   resil::CheckpointCorrupt  a snapshot failed CRC validation on restore
//
// State machine per attempt:
//
//   run body --ok--------------------------------> return stats
//      |                                             ^
//      +--recoverable fault--> retries left? --no--> rethrow
//                                   |yes
//                                   v
//              (RankFailure: clear the one-shot kill so the retry
//               does not deterministically die at the same op;
//               CorruptMessage: clear the payload-fault stride — a
//               detected corruption models a transient link fault;
//               CheckpointCorrupt: quarantine the ring's newest entry)
//                                   |
//                                   v
//               exponential backoff with seeded jitter, run again
//
// Any other exception is a bug, not a fault, and is rethrown immediately.
//
// Graded recovery ladder: the supervisor is the *top* rung only.
// Corrupt messages are first retried at the link layer (par::ArqConfig) and
// reach this loop only after the retransmission budget is exhausted; silent
// rank deaths are named by the heartbeat detector
// (par::RunOptions::heartbeat_timeout_s) and arrive here as RankFailure like
// injected kills. Confirmed rank failures are then repaired per
// RecoveryPolicy: substitute a pre-allocated spare (world size unchanged),
// re-form a smaller (P-1)-rank world in place, or fall back to the classic
// full restart — each retry restores the newest snapshot elastically, so a
// checkpoint written at P resumes bit-identically at P-1.
//
// Async runtime interaction: a fault can strike a rank with nonblocking
// requests still pending. Unwinding the rank destroys the Request handles,
// which drains them — each isend's payload reference is handed back to the
// runtime for disposal, the checker's in-flight buffer regions are retired,
// and CommStats::requests_drained counts the abandonments — so the retry
// starts from a clean world with no leaked buffer ownership. Unconsumed
// messages die with the World; every attempt constructs a fresh one.
//
// The body is an ordinary SPMD function; on every attempt it is expected to
// probe its CheckpointRing and resume from the newest valid snapshot (the
// mantle app does exactly this). The RecoveryContext passed alongside the
// Comm lets rank 0 report what recovery cost: snapshot bytes re-read and
// steps executed, from which the supervisor accounts the steps a failed
// attempt completed as replayed work.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "par/comm.h"

namespace esamr::resil {

class CheckpointRing;

/// Cooperative checkpoint-and-suspend handshake between a scheduler and a
/// supervised job (the serving layer's preemption primitive; see src/serve).
/// The scheduler calls request(); the job body observes the request at its
/// next step boundary — through a *collective* poll so every rank agrees on
/// the step it yields at — commits a checkpoint, and throws Suspended. The
/// supervisor returns with RecoveryStats::suspended = true instead of
/// treating the unwind as a fault. A later supervise call over the same
/// checkpoint ring resumes bit-identically, elastically at any world size
/// (that is checkpoint-based preemption / migration).
class SuspendToken {
 public:
  /// Ask the supervised job to checkpoint and yield (idempotent, thread-safe).
  void request() noexcept { flag_.store(true, std::memory_order_relaxed); }
  /// True once a suspend has been requested and not yet cleared.
  bool requested() const noexcept { return flag_.load(std::memory_order_relaxed); }
  /// Re-arm the token before resuming the job.
  void clear() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Thrown by a supervised body after committing a checkpoint in response to
/// SuspendToken::request(). Not a fault: supervise returns immediately with
/// RecoveryStats::suspended = true, burns no retry budget, and the job's
/// ring holds everything a later supervise call needs to resume.
class Suspended : public std::exception {
 public:
  const char* what() const noexcept override { return "esamr::resil job suspended"; }
};

/// How the supervisor repairs a confirmed rank failure (the top rung of the
/// recovery ladder; the two cheaper rungs — link-level ARQ and heartbeat
/// detection — live in par and need no supervisor involvement to *heal*,
/// only to be observed). Escalation order on a rank failure:
///   spare -> shrink -> full_restart
/// i.e. `spare` falls back to shrinking when the spare pool is empty, and
/// `shrink` falls back to a full restart at the floor world size.
enum class RecoveryMode { full_restart, shrink, spare };

const char* recovery_mode_name(RecoveryMode m);

/// Rank-failure repair policy (see RecoveryMode). In-place repairs (shrink /
/// spare) exempt the victim's rank from further kill selection
/// (par::InjectConfig::kill_exempt): the failed node has been excluded or
/// replaced by a fresh one, so its deterministic kill must not re-fire —
/// while later victims still die, so back-to-back failures stay testable.
struct RecoveryPolicy {
  RecoveryMode on_rank_failure = RecoveryMode::full_restart;
  /// Pre-allocated spare ranks available for RecoveryMode::spare. Each
  /// consumed spare keeps the world size unchanged.
  int spares = 0;
  /// Smallest world RecoveryMode::shrink may re-form; at the floor, a rank
  /// failure escalates to a full restart.
  int min_ranks = 1;
};

/// What a supervised run cost in recovery terms.
struct RecoveryStats {
  int attempts = 0;            ///< par::run launches (>= 1)
  int failures = 0;            ///< recoverable faults caught
  int corrupt_msgs = 0;        ///< failures that were CorruptMessage
  std::int64_t bytes_reread = 0;     ///< snapshot bytes read across restores
  std::uint64_t steps_replayed = 0;  ///< steps completed by failed attempts
  double backoff_s = 0.0;            ///< total time slept between attempts
  double backoff_min_s = 0.0;        ///< shortest jittered sleep taken (0 = none)
  double backoff_max_s = 0.0;        ///< longest jittered sleep taken (0 = none)

  // Recovery-ladder observability: how many faults each layer healed.
  int healed_link = 0;     ///< corrupt messages repaired by ARQ (never surfaced)
  int healed_spare = 0;    ///< rank failures repaired by consuming a spare
  int healed_shrink = 0;   ///< rank failures repaired by shrinking the world
  int healed_restart = 0;  ///< faults healed by a full restart-and-replay
  /// World size the run finished at (nranks minus successful shrinks).
  int ranks_final = 0;
  /// True when the run ended in a cooperative checkpoint-and-suspend (see
  /// SuspendToken) rather than completing; no retry budget was consumed.
  bool suspended = false;

  // Mean-time-to-repair accounting. A repair interval runs from catching a
  // fault to the next attempt's first successful snapshot restore (the world
  // is computing again); detect_s separately accumulates how long heartbeat
  // victims were silent before a peer named them (0 for self-thrown faults).
  int repairs = 0;        ///< completed fault -> restored intervals
  double repair_s = 0.0;  ///< total wall time across those intervals
  double detect_s = 0.0;  ///< total silent-before-detection time
  /// Mean time to repair at the supervisor layer (link-layer heal latency is
  /// counted per rank: par::CommStats::arq_heal_s / arq_healed).
  double mttr_s() const { return repairs > 0 ? repair_s / repairs : 0.0; }

  /// One message per caught fault, capped at SupervisorOptions::
  /// failure_log_max so a long-lived service job under sustained fault load
  /// cannot grow memory without bound; overflow is counted, not stored.
  std::vector<std::string> failure_log;
  int failures_dropped = 0;  ///< faults whose log line was dropped by the cap

  /// Fold a later supervise call's stats into this one: counters and times
  /// accumulate, ranks_final/suspended take the newer call's value, and the
  /// failure log appends (each call is individually capped). The serving
  /// layer uses this to account one job across suspend/resume cycles.
  void merge(const RecoveryStats& o);

  std::string summary() const;
};

struct SupervisorOptions {
  /// Retries after the first attempt; attempt count is at most 1 + max_retries.
  int max_retries = 3;
  /// Restart backoff between attempts (the same policy type ARQ uses): the
  /// nominal sleep starts at initial_s and grows by factor up to cap_s, and
  /// each sleep is scaled by (1 + jitter * u) with u drawn deterministically
  /// from (inject seed, attempt) in [-1, 1). Jitter decorrelates retry storms
  /// across concurrent supervisors while staying reproducible; the realised
  /// bounds are recorded in RecoveryStats::backoff_{min,max}_s. The schedule
  /// is drawn from par::SeededBackoff with key inject.seed ^ 0xbac0ff ^
  /// mix64(backoff_salt), one draw per caught fault.
  par::BackoffPolicy backoff{0.01, 2.0, 1.0, 0.5};
  /// Per-supervisor identity mixed into the backoff key so concurrent
  /// supervisors sharing an inject seed draw *decorrelated* jitter instead of
  /// retrying in lockstep (a retry storm). The serving layer passes the job
  /// id. The default 0 mixes to zero (mix64(0) == 0), keeping every
  /// single-job schedule bit-identical to the pre-salt ones.
  std::uint64_t backoff_salt = 0;
  /// Cap on RecoveryStats::failure_log entries per supervise call; further
  /// faults are still counted (failures / failures_dropped) but not stored.
  int failure_log_max = 64;
  /// Cooperative suspension channel (see SuspendToken). When set, a pending
  /// request observed between attempts returns suspended instead of
  /// retrying; a body-thrown Suspended always returns suspended. Not owned.
  SuspendToken* suspend = nullptr;
  /// Treat injected rank-kill as a one-shot node failure: the retry runs with
  /// kill_after_ops = 0 so the same deterministic kill cannot fire again.
  /// Only consulted on the full-restart path; shrink/spare repairs exempt the
  /// victim instead (see RecoveryPolicy).
  bool clear_kill_on_retry = true;
  /// Treat a detected message corruption as a transient link fault: the retry
  /// runs with corrupt_msg_stride = 0 so the same deterministic payload fault
  /// cannot fire again (mirrors clear_kill_on_retry).
  bool clear_corrupt_on_retry = true;
  /// How rank failures are repaired (full restart / in-place shrink / spare).
  RecoveryPolicy policy{};
};

/// Per-attempt reporting channel between the SPMD body and the supervisor.
/// Methods are thread-safe; by convention only rank 0 records (the counters
/// are global quantities, already replicated).
class RecoveryContext {
 public:
  explicit RecoveryContext(int attempt) : attempt_(attempt) {}

  /// 0 for the first attempt, incremented per retry.
  int attempt() const { return attempt_; }

  /// Rank 0: a checkpoint restore read `bytes` from disk. The first restore
  /// of an attempt also timestamps "the world is computing again", closing
  /// the supervisor's fault -> restored repair interval (MTTR).
  void record_restore(std::int64_t bytes) {
    bytes_reread_.fetch_add(bytes, std::memory_order_relaxed);
    double expect = 0.0;
    restore_wall_.compare_exchange_strong(expect, par::wall_seconds(),
                                          std::memory_order_relaxed);
  }
  /// Rank 0: one application step completed in this attempt.
  void note_step() { steps_.fetch_add(1, std::memory_order_relaxed); }

  std::int64_t bytes_reread() const { return bytes_reread_.load(std::memory_order_relaxed); }
  std::uint64_t steps_done() const { return steps_.load(std::memory_order_relaxed); }
  /// Wall time (par::wall_seconds) of this attempt's first restore; 0 = none.
  double first_restore_wall() const { return restore_wall_.load(std::memory_order_relaxed); }

 private:
  int attempt_;
  std::atomic<std::int64_t> bytes_reread_{0};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<double> restore_wall_{0.0};
};

using SupervisedBody = std::function<void(par::Comm&, RecoveryContext&)>;

/// Run `body` as an SPMD section under supervision (see file header).
/// `ring` may be null when the body manages its own snapshots (it is only
/// used to quarantine the newest entry after CheckpointCorrupt).
/// Throws the last caught fault when retries are exhausted.
RecoveryStats supervise(int nranks, par::RunOptions opts, const SupervisorOptions& sopts,
                        CheckpointRing* ring, const SupervisedBody& body);

}  // namespace esamr::resil
