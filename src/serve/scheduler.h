// Fault-isolated multi-tenant job scheduler over a shared rank pool.
//
// Lifecycle of a job (see DESIGN.md "Serving layer" for the full state
// machine):
//
//   submit --admission--> queued --lease--> running --+--> completed
//     |                     ^                         |
//     +--> rejected         +------ suspended <-------+   (cooperative
//                           |   (preempted: ring          checkpoint)
//                           |    holds the state)
//                           +------ queued    <-------+   (retries exhausted,
//                                                         relaunch budget left)
//                                              +------+--> quarantined
//
// Dispatch is strict-priority with head-of-line blocking: waiting jobs
// (queued or suspended) are scanned highest priority first; the head is
// leased as many free ranks as fit in its [ranks_min, ranks_max] range. When
// the head cannot be leased but preempting strictly-lower-priority running
// jobs would free enough ranks, the scheduler requests cooperative suspends
// (resil::SuspendToken) on the cheapest victims and stops dispatching — no
// lower-priority job is backfilled past a waiting head, so priority
// inversion and starvation are impossible by construction. Each victim
// commits a checkpoint at its next step boundary and yields; its next lease
// resumes bit-identically from its ring, possibly at a different size
// (elastic shrink) or on different pool slots (migration).
//
// Every lease runs under resil::supervise with the job's own retry budget,
// recovery policy, backoff salt (the job id — concurrent supervisors draw
// decorrelated jitter) and its own worlds, so recovery accounting and the
// link-layer heal counts in its CommStats are per-tenant. All throws are
// absorbed at the lease boundary: fault classes that exhausted the
// supervisor budget consume one relaunch (then quarantine); anything else is
// a tenant bug and quarantines immediately. Either way the pool slots come
// back and every other tenant is untouched.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "par/stats.h"
#include "resil/supervisor.h"
#include "serve/job.h"
#include "serve/lease.h"

namespace esamr::serve {

struct SchedulerOptions {
  /// Shared pool capacity (ranks the leases draw from).
  int pool_ranks = 8;
  /// Admission bound on unsettled (queued/running/suspended) jobs; beyond it
  /// submits are rejected with an overload verdict (graceful degradation).
  int queue_max = 64;
};

/// Point-in-time QoS and accounting view of one job (reports()).
struct JobReport {
  int id = -1;
  std::string name;
  WorkloadKind kind = WorkloadKind::ring_u64;
  JobState state = JobState::rejected;
  int priority = 0;

  int leases = 0;       ///< supervise calls launched (resumes included)
  int preemptions = 0;  ///< leases ended by a cooperative suspend
  int exhaustions = 0;  ///< leases ended with the retry budget exhausted

  /// Recovery accounting merged across this job's leases (a lease that
  /// exhausted its budget contributes only its exhaustion count — the
  /// supervisor throws instead of returning stats).
  resil::RecoveryStats recovery;
  /// Comm counters summed over every rank of every attempt of every lease,
  /// link-layer ARQ heals and retransmissions included.
  par::CommStats comm;

  double wait_s = 0.0;  ///< time spent queued or suspended
  double run_s = 0.0;   ///< time spent leased
  /// Pool slot ids of each lease, oldest first; a changed slot set between
  /// consecutive leases is a migration.
  std::vector<std::vector<int>> lease_slots;

  std::uint64_t digest = 0;  ///< rank 0's result (completed jobs only)
  std::string note;          ///< reject reason / quarantine cause

  bool settled() const {
    return state == JobState::completed || state == JobState::quarantined ||
           state == JobState::rejected;
  }
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opts);
  ~Scheduler();  // drains admitted jobs, then stops the dispatcher
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission-controlled submit (thread-safe). Rejected specs get a job id
  /// and a report carrying the reason, but consume no queue or pool capacity.
  AdmissionVerdict submit(JobSpec spec);

  /// Block until every admitted job settles (completed or quarantined).
  void drain();

  /// Reports for every submitted job, submission order (rejected included).
  std::vector<JobReport> reports() const;

  /// One report (id as returned by submit).
  JobReport report(int job_id) const;

  /// Completed jobs per hour of scheduler wall time so far.
  double jobs_per_hour() const;

  /// Human-readable per-job table plus pool/throughput totals.
  std::string summary() const;

  int pool_ranks() const { return pool_total_; }

 private:
  struct Job;

  void dispatcher_loop();
  void dispatch_locked();
  void launch_locked(Job& j, int nranks, double now);
  void run_lease(Job& j, int nranks);
  void end_lease_locked(Job& j, JobState next, const std::string& note, double now);
  JobReport report_locked(const Job& j) const;
  int unsettled_locked() const;

  const SchedulerOptions opts_;
  const int pool_total_;
  const double t0_wall_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< wakes the dispatcher
  std::condition_variable cv_settle_;  ///< wakes drain()
  RankPool pool_;
  std::vector<std::unique_ptr<Job>> jobs_;  ///< stable addresses; submit order
  bool stopping_ = false;
  bool wake_ = true;  ///< dispatcher has work to (re)examine

  std::thread dispatcher_;
};

}  // namespace esamr::serve
