#include "resil/supervisor.h"

#include <cstdio>

#include "par/backoff.h"
#include "par/inject.h"
#include "par/stats.h"
#include "resil/checkpoint.h"

namespace esamr::resil {

const char* recovery_mode_name(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::full_restart: return "full_restart";
    case RecoveryMode::shrink: return "shrink";
    case RecoveryMode::spare: return "spare";
  }
  return "?";
}

void RecoveryStats::merge(const RecoveryStats& o) {
  attempts += o.attempts;
  failures += o.failures;
  corrupt_msgs += o.corrupt_msgs;
  bytes_reread += o.bytes_reread;
  steps_replayed += o.steps_replayed;
  backoff_s += o.backoff_s;
  if (o.backoff_min_s > 0.0 && (backoff_min_s == 0.0 || o.backoff_min_s < backoff_min_s)) {
    backoff_min_s = o.backoff_min_s;
  }
  if (o.backoff_max_s > backoff_max_s) backoff_max_s = o.backoff_max_s;
  healed_link += o.healed_link;
  healed_spare += o.healed_spare;
  healed_shrink += o.healed_shrink;
  healed_restart += o.healed_restart;
  ranks_final = o.ranks_final;
  suspended = o.suspended;
  repairs += o.repairs;
  repair_s += o.repair_s;
  detect_s += o.detect_s;
  failure_log.insert(failure_log.end(), o.failure_log.begin(), o.failure_log.end());
  failures_dropped += o.failures_dropped;
}

std::string RecoveryStats::summary() const {
  char buf[288];
  std::snprintf(buf, sizeof(buf),
                "attempts=%d failures=%d corrupt_msgs=%d bytes_reread=%lld steps_replayed=%llu "
                "backoff_s=%.3f jitter=[%.4f, %.4f]",
                attempts, failures, corrupt_msgs, static_cast<long long>(bytes_reread),
                static_cast<unsigned long long>(steps_replayed), backoff_s, backoff_min_s,
                backoff_max_s);
  std::string out = buf;
  if (healed_link != 0 || healed_spare != 0 || healed_shrink != 0 || healed_restart != 0) {
    std::snprintf(buf, sizeof(buf),
                  "\nladder: link=%d spare=%d shrink=%d restart=%d ranks_final=%d",
                  healed_link, healed_spare, healed_shrink, healed_restart, ranks_final);
    out += buf;
  }
  if (repairs != 0) {
    std::snprintf(buf, sizeof(buf), "\nmttr=%.4f s over %d repair(s), detect_s=%.4f", mttr_s(),
                  repairs, detect_s);
    out += buf;
  }
  if (suspended) out += "\nsuspended (checkpoint committed, no budget consumed)";
  for (const std::string& f : failure_log) out += "\n  fault: " + f;
  if (failures_dropped > 0) {
    std::snprintf(buf, sizeof(buf), "\n  (+%d fault log line(s) dropped by the cap)",
                  failures_dropped);
    out += buf;
  }
  return out;
}

namespace {

enum class Fault { rank_failure, timeout, corrupt_msg, corrupt_ckpt };

}  // namespace

RecoveryStats supervise(int nranks, par::RunOptions opts, const SupervisorOptions& sopts,
                        CheckpointRing* ring, const SupervisedBody& body) {
  RecoveryStats stats;
  // Link-layer heals never surface as exceptions; every rank of every
  // attempt adds its CommStats here as its body returns or unwinds, so the
  // heals of failed attempts count too. Each World is this run's own, so
  // concurrent supervisors never see each other's heals.
  par::CommSum link;
  const auto healed_link = [&] { return static_cast<int>(link.total().arq_healed); };
  // The jittered-exponential restart schedule (one draw per caught fault).
  // backoff_salt decorrelates concurrent supervisors that share an inject
  // seed; the default salt of 0 mixes to 0, keeping single-job schedules
  // bit-identical.
  par::SeededBackoff backoff(
      sopts.backoff, opts.inject.seed ^ 0xbac0ffULL ^ par::detail::mix64(sopts.backoff_salt));
  int world_size = nranks;
  int spares_left = sopts.policy.spares;
  double fault_wall = 0.0;  // wall time of the currently-unrepaired fault

  for (int attempt = 0;; ++attempt) {
    // A suspend requested while no attempt is in flight (e.g. during the
    // backoff sleep between retries, or before the first launch) yields here
    // instead of starting another attempt the scheduler no longer wants.
    if (sopts.suspend != nullptr && sopts.suspend->requested()) {
      stats.suspended = true;
      stats.ranks_final = world_size;
      stats.healed_link = healed_link();
      return stats;
    }
    RecoveryContext ctx(attempt);

    // Close the previous fault's repair interval at this attempt's first
    // successful restore (the world was computing again from that moment).
    const auto settle_mttr = [&] {
      const double restored = ctx.first_restore_wall();
      if (fault_wall > 0.0 && restored > fault_wall) {
        stats.repair_s += restored - fault_wall;
        ++stats.repairs;
        fault_wall = 0.0;
      }
    };

    // Account a caught fault; returns false when retries are exhausted (the
    // caller then rethrows the original exception via bare `throw`).
    // `victim` >= 0 carries a RankFailure's failed rank for the policy ladder.
    const auto on_fault = [&](Fault fault, const char* what, int victim = -1) {
      settle_mttr();
      fault_wall = par::wall_seconds();
      ++stats.failures;
      if (fault == Fault::corrupt_msg) ++stats.corrupt_msgs;
      stats.bytes_reread += ctx.bytes_reread();
      stats.steps_replayed += ctx.steps_done();  // this attempt's work is discarded
      if (static_cast<int>(stats.failure_log.size()) < sopts.failure_log_max) {
        stats.failure_log.emplace_back(what);
      } else {
        ++stats.failures_dropped;  // bounded log under sustained fault load
      }
      if (attempt >= sopts.max_retries) return false;
      if (fault == Fault::rank_failure) {
        // The repair ladder: substitute a spare (size unchanged), else re-form
        // a smaller world in place, else fall back to a full restart. In-place
        // repairs exempt the victim from further kill selection — the failed
        // node is gone; its deterministic kill must not re-fire.
        const RecoveryMode mode = sopts.policy.on_rank_failure;
        if (mode == RecoveryMode::spare && spares_left > 0) {
          --spares_left;
          opts.inject.kill_exempt.push_back(victim);
          ++stats.healed_spare;
        } else if (mode != RecoveryMode::full_restart && world_size > sopts.policy.min_ranks) {
          --world_size;
          opts.inject.kill_exempt.push_back(victim);
          ++stats.healed_shrink;
        } else {
          if (sopts.clear_kill_on_retry) {
            opts.inject.kill_after_ops = 0;  // one-shot node failure model
          }
          ++stats.healed_restart;
        }
      } else {
        ++stats.healed_restart;
      }
      if (fault == Fault::corrupt_msg && sopts.clear_corrupt_on_retry) {
        opts.inject.corrupt_msg_stride = 0;  // transient link fault model
      }
      if (fault == Fault::corrupt_ckpt && ring != nullptr) ring->quarantine_newest();
      const double sleep_s = backoff.sleep();
      if (sleep_s > 0.0) {
        stats.backoff_s += sleep_s;
        if (stats.backoff_min_s == 0.0 || sleep_s < stats.backoff_min_s) {
          stats.backoff_min_s = sleep_s;
        }
        if (sleep_s > stats.backoff_max_s) stats.backoff_max_s = sleep_s;
      }
      return true;
    };

    ++stats.attempts;
    try {
      par::run(world_size, opts, [&](par::Comm& c) {
        const par::CommSum::Tally tally(link, c.stats());
        body(c, ctx);
      });
      settle_mttr();
      stats.bytes_reread += ctx.bytes_reread();
      stats.ranks_final = world_size;
      stats.healed_link = healed_link();
      return stats;
    } catch (const Suspended&) {
      // A cooperative checkpoint-and-suspend, not a fault: the body committed
      // a checkpoint and yielded the world. The steps this attempt completed
      // are preserved by that checkpoint (nothing is replayed), no retry
      // budget is consumed, and the caller resumes with a later supervise
      // call over the same ring — elastically, at any world size.
      settle_mttr();
      stats.bytes_reread += ctx.bytes_reread();
      stats.ranks_final = world_size;
      stats.suspended = true;
      stats.healed_link = healed_link();
      return stats;
    } catch (const par::RankFailure& e) {
      stats.detect_s += e.silent_s();
      if (!on_fault(Fault::rank_failure, e.what(), e.rank())) throw;
    } catch (const par::TimeoutError& e) {
      if (!on_fault(Fault::timeout, e.what())) throw;
    } catch (const par::CorruptMessage& e) {
      if (!on_fault(Fault::corrupt_msg, e.what())) throw;
    } catch (const par::check::CheckError& e) {
      // The dynamic checker diagnoses a stuck world long before the timeout
      // fires; treat its deadlock verdict as the same fault class. Races and
      // collective mismatches are program bugs, not faults — propagate them.
      if (e.kind() != par::check::Violation::deadlock) throw;
      if (!on_fault(Fault::timeout, e.what())) throw;
    } catch (const CheckpointCorrupt& e) {
      if (!on_fault(Fault::corrupt_ckpt, e.what())) throw;
    }
    // Anything else propagates out of the try untouched: a bug, not a fault.
  }
}

}  // namespace esamr::resil
