#include "serve/scheduler.h"

#include <algorithm>
#include <cstdio>

#include "par/check.h"
#include "resil/checkpoint.h"
#include "serve/workload.h"

namespace esamr::serve {

/// Scheduler-internal job record. Addresses are stable (unique_ptr in jobs_)
/// because the lease worker and the SPMD body hold references. Fields are
/// guarded by Scheduler::mu_ except: `spec`/`id` (immutable after admission)
/// and `control`/`comm` (internally synchronised, so body ranks never contend
/// on the scheduler lock).
struct Scheduler::Job {
  int id = -1;
  JobSpec spec;
  JobState state = JobState::queued;
  JobControl control;

  /// Job-scope fault environment: starts as spec.inject; one-shot faults are
  /// cleared after a lease that caught them (see run_lease).
  par::InjectConfig inject;

  std::thread worker;
  bool worker_done = true;

  std::vector<int> slots;                    ///< current/last lease
  std::vector<std::vector<int>> lease_slots;  ///< per-lease history
  int leases = 0;
  int preemptions = 0;
  int exhaustions = 0;

  resil::RecoveryStats recovery;
  par::CommSum comm;  ///< every rank of every attempt of every lease

  double queued_since = 0.0;
  double lease_start = 0.0;
  double wait_s = 0.0;
  double run_s = 0.0;

  std::uint64_t digest = 0;
  std::string note;
};

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(opts),
      pool_total_(opts.pool_ranks),
      t0_wall_(par::wall_seconds()),
      pool_(opts.pool_ranks) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
  for (auto& up : jobs_) {
    if (up->worker.joinable()) up->worker.join();
  }
}

AdmissionVerdict Scheduler::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  AdmissionVerdict v;
  v.job_id = static_cast<int>(jobs_.size());

  char buf[160];
  if (stopping_) {
    v.reason = "scheduler is draining";
  } else if (spec.ranks_min < 1 || spec.ranks_max < spec.ranks_min) {
    std::snprintf(buf, sizeof(buf), "invalid rank range [%d, %d]", spec.ranks_min,
                  spec.ranks_max);
    v.reason = buf;
  } else if (spec.ranks_min > pool_total_) {
    std::snprintf(buf, sizeof(buf), "infeasible: needs >= %d ranks, pool has %d",
                  spec.ranks_min, pool_total_);
    v.reason = buf;
  } else if (spec.steps <= 0 || spec.checkpoint_every < 1) {
    v.reason = "invalid workload extent";
  } else if (spec.ckpt_dir.empty()) {
    v.reason = "checkpoint ring directory required";
  } else if (unsettled_locked() >= opts_.queue_max) {
    std::snprintf(buf, sizeof(buf), "overloaded: admission queue at cap (%d unsettled jobs)",
                  opts_.queue_max);
    v.reason = buf;
  }

  auto job = std::make_unique<Job>();
  job->id = v.job_id;
  job->spec = std::move(spec);
  job->inject = job->spec.inject;
  job->queued_since = par::wall_seconds();
  if (v.reason.empty()) {
    v.admitted = true;
    job->state = JobState::queued;
    wake_ = true;
  } else {
    job->state = JobState::rejected;
    job->note = v.reason;
  }
  jobs_.push_back(std::move(job));
  if (v.admitted) cv_.notify_all();
  return v;
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_settle_.wait(lk, [&] { return unsettled_locked() == 0; });
}

int Scheduler::unsettled_locked() const {
  int n = 0;
  for (const auto& up : jobs_) {
    const JobState s = up->state;
    if (s == JobState::queued || s == JobState::running || s == JobState::suspended) ++n;
  }
  return n;
}

void Scheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return wake_ || stopping_; });
    if (stopping_) return;
    wake_ = false;
    dispatch_locked();
  }
}

void Scheduler::dispatch_locked() {
  // Leasable jobs, highest priority first, submission order within a tier.
  std::vector<Job*> waiting;
  for (auto& up : jobs_) {
    if (up->state == JobState::queued || up->state == JobState::suspended) {
      waiting.push_back(up.get());
    }
  }
  std::stable_sort(waiting.begin(), waiting.end(),
                   [](const Job* a, const Job* b) { return a->spec.priority > b->spec.priority; });

  for (Job* j : waiting) {
    const int want = std::min(j->spec.ranks_max, pool_.free_count());
    if (want >= j->spec.ranks_min) {
      launch_locked(*j, want, par::wall_seconds());
      continue;
    }

    // The head of the line cannot be leased. If suspending every running job
    // of strictly lower priority would free enough ranks, request cooperative
    // suspends on the cheapest victims (re-asserted each pass — the request
    // is idempotent and a victim may have completed meanwhile). Either way
    // stop dispatching: backfilling a lower-priority job past a waiting head
    // would be priority inversion and an avenue for starvation.
    std::vector<Job*> victims;
    int reclaimable = pool_.free_count();
    for (auto& up : jobs_) {
      Job& r = *up;
      if (r.state == JobState::running && r.spec.priority < j->spec.priority) {
        victims.push_back(&r);
        reclaimable += static_cast<int>(r.slots.size());
      }
    }
    if (reclaimable >= j->spec.ranks_min) {
      std::stable_sort(victims.begin(), victims.end(), [](const Job* a, const Job* b) {
        if (a->spec.priority != b->spec.priority) return a->spec.priority < b->spec.priority;
        return a->id > b->id;  // youngest of the cheapest tier yields first
      });
      int projected = pool_.free_count();
      for (Job* v : victims) {
        if (projected >= j->spec.ranks_min) break;
        v->control.token.request();
        projected += static_cast<int>(v->slots.size());
      }
    }
    break;
  }
}

void Scheduler::launch_locked(Job& j, int nranks, double now) {
  if (j.worker.joinable()) j.worker.join();  // previous lease's thread (finished)
  j.slots = pool_.acquire(nranks);
  j.lease_slots.push_back(j.slots);
  j.control.token.clear();
  j.control.lease_start_wall = now;
  j.control.deadline_s = j.spec.deadline_s;
  j.wait_s += now - j.queued_since;
  j.lease_start = now;
  ++j.leases;
  j.state = JobState::running;
  j.worker_done = false;
  Job* jp = &j;
  j.worker = std::thread([this, jp, nranks] { run_lease(*jp, nranks); });
}

void Scheduler::end_lease_locked(Job& j, JobState next, const std::string& note, double now) {
  pool_.release(j.slots);
  j.run_s += now - j.lease_start;
  j.state = next;
  if (!note.empty()) j.note = note;
  if (next == JobState::queued || next == JobState::suspended) j.queued_since = now;
  j.worker_done = true;
  wake_ = true;
  cv_.notify_all();
  cv_settle_.notify_all();
}

void Scheduler::run_lease(Job& j, int nranks) {
  par::RunOptions opts;
  {
    std::lock_guard<std::mutex> lk(mu_);
    opts.inject = j.inject;
  }
  opts.heartbeat_timeout_s = j.spec.heartbeat_timeout_s;
  opts.recv_timeout_s = j.spec.recv_timeout_s;
  opts.arq.enabled = j.spec.arq_enabled;

  resil::SupervisorOptions sopts;
  sopts.max_retries = j.spec.max_retries;
  sopts.backoff.initial_s = j.spec.backoff_initial_s;
  // Job identity decorrelates concurrent retry schedules (id 0 maps to a
  // nonzero salt on purpose: every served job is salted).
  sopts.backoff_salt = static_cast<std::uint64_t>(j.id) + 1;
  sopts.suspend = &j.control.token;
  sopts.policy = j.spec.policy;

  resil::CheckpointRing ring(j.spec.ckpt_dir, j.spec.ckpt_keep);
  std::uint64_t digest = 0;
  const auto inner = make_body(j.spec, &j.control, &digest);
  const resil::SupervisedBody body = [&](par::Comm& c, resil::RecoveryContext& ctx) {
    const par::CommSum::Tally tally(j.comm, c.stats());
    inner(c, ctx);
  };

  // A lease ends exactly one of four ways; every path releases the slots.
  const auto exhausted = [&](const char* what) {
    std::lock_guard<std::mutex> lk(mu_);
    ++j.exhaustions;
    j.inject.kill_after_ops = 0;  // the one-shot faults fired; a relaunch
    j.inject.corrupt_msg_stride = 0;  // replays state, not the faults
    const bool out_of_budget = j.exhaustions > j.spec.relaunches;
    const std::string note = std::string(out_of_budget ? "quarantined: " : "relaunched: ") +
                             "retry budget exhausted (" + what + ")";
    end_lease_locked(j, out_of_budget ? JobState::quarantined : JobState::queued, note,
                     par::wall_seconds());
  };
  const auto bug = [&](const char* what) {
    std::lock_guard<std::mutex> lk(mu_);
    end_lease_locked(j, JobState::quarantined, std::string("quarantined: tenant bug (") + what +
                     ")", par::wall_seconds());
  };

  try {
    const auto stats = resil::supervise(nranks, opts, sopts, &ring, body);
    std::lock_guard<std::mutex> lk(mu_);
    j.recovery.merge(stats);
    if (stats.failures > 0) {
      // Tenant faults fired and were healed inside this lease; clear the
      // one-shot classes at job scope so a later resume replays the *state*,
      // not the faults (cross-lease clear-on-retry).
      j.inject.kill_after_ops = 0;
      j.inject.corrupt_msg_stride = 0;
    }
    if (stats.suspended) {
      ++j.preemptions;
      end_lease_locked(j, JobState::suspended, "", par::wall_seconds());
    } else {
      j.digest = digest;
      end_lease_locked(j, JobState::completed, "", par::wall_seconds());
    }
  } catch (const par::RankFailure& e) {
    exhausted(e.what());
  } catch (const par::TimeoutError& e) {
    exhausted(e.what());
  } catch (const par::CorruptMessage& e) {
    exhausted(e.what());
  } catch (const resil::CheckpointCorrupt& e) {
    exhausted(e.what());
  } catch (const par::check::CheckError& e) {
    // Deadlock verdicts ride the fault path (the supervisor retried them);
    // races and collective mismatches are program bugs.
    if (e.kind() == par::check::Violation::deadlock) {
      exhausted(e.what());
    } else {
      bug(e.what());
    }
  } catch (const std::exception& e) {
    bug(e.what());
  } catch (...) {
    bug("unknown exception");
  }
}

JobReport Scheduler::report_locked(const Job& j) const {
  JobReport r;
  r.id = j.id;
  r.name = j.spec.name;
  r.kind = j.spec.kind;
  r.state = j.state;
  r.priority = j.spec.priority;
  r.leases = j.leases;
  r.preemptions = j.preemptions;
  r.exhaustions = j.exhaustions;
  r.recovery = j.recovery;
  r.comm = j.comm.total();
  r.wait_s = j.wait_s;
  r.run_s = j.run_s;
  r.lease_slots = j.lease_slots;
  r.digest = j.digest;
  r.note = j.note;
  return r;
}

std::vector<JobReport> Scheduler::reports() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobReport> out;
  out.reserve(jobs_.size());
  for (const auto& up : jobs_) out.push_back(report_locked(*up));
  return out;
}

JobReport Scheduler::report(int job_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_locked(*jobs_.at(static_cast<std::size_t>(job_id)));
}

double Scheduler::jobs_per_hour() const {
  std::lock_guard<std::mutex> lk(mu_);
  int completed = 0;
  for (const auto& up : jobs_) {
    if (up->state == JobState::completed) ++completed;
  }
  const double elapsed = par::wall_seconds() - t0_wall_;
  return elapsed > 0.0 ? completed * 3600.0 / elapsed : 0.0;
}

std::string Scheduler::summary() const {
  const auto reps = reports();
  int completed = 0, quarantined = 0, rejected = 0;
  for (const auto& r : reps) {
    completed += r.state == JobState::completed ? 1 : 0;
    quarantined += r.state == JobState::quarantined ? 1 : 0;
    rejected += r.state == JobState::rejected ? 1 : 0;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve: pool=%d jobs=%d completed=%d quarantined=%d rejected=%d "
                "jobs/hour=%.1f\n",
                pool_total_, static_cast<int>(reps.size()), completed, quarantined, rejected,
                jobs_per_hour());
  std::string out = line;
  std::snprintf(line, sizeof(line),
                "  %3s %-14s %4s %-11s %3s %3s %3s %8s %8s %8s %6s\n", "id", "name", "prio",
                "state", "lse", "pre", "exh", "wait_s", "run_s", "mttr_s", "replay");
  out += line;
  for (const auto& r : reps) {
    std::snprintf(line, sizeof(line),
                  "  %3d %-14s %4d %-11s %3d %3d %3d %8.3f %8.3f %8.4f %6llu\n", r.id,
                  r.name.c_str(), r.priority, job_state_name(r.state), r.leases, r.preemptions,
                  r.exhaustions, r.wait_s, r.run_s, r.recovery.mttr_s(),
                  static_cast<unsigned long long>(r.recovery.steps_replayed));
    out += line;
    if (!r.note.empty()) out += "      note: " + r.note + "\n";
  }
  return out;
}

}  // namespace esamr::serve
