// Multi-tenant serving layer: job descriptions and the
// scheduler <-> job control channel.
//
// A JobSpec describes one tenant's simulation: the workload kind, the rank
// range it can run at (the scheduler leases anywhere in [ranks_min,
// ranks_max] and may resume a preempted job at a different size — elastic
// restore makes that bit-identical), checkpoint cadence, retry/relaunch
// budgets, an optional per-lease deadline, a priority, and the tenant's own
// fault environment (par::InjectConfig). Each job owns a private checkpoint
// ring directory; that ring is the unit of preemption and migration.
//
// Fault isolation contract: everything a tenant does — injected kills,
// corrupted messages, disk faults, deadline overruns, outright bugs — burns
// only that tenant's budgets. Faults are retried by resil::supervise inside
// the job's own lease; budget exhaustion relaunches the job up to
// JobSpec::relaunches times and then quarantines it; a non-fault exception
// (a bug, e.g. a checker-diagnosed race) quarantines immediately. No path
// touches another job's state.
#pragma once

#include <cstdint>
#include <string>

#include "par/comm.h"
#include "resil/supervisor.h"

namespace esamr::serve {

/// Workload kinds the serving layer can run. ring_u64 is the P-invariant
/// supervised workload (see serve/workload.h): its digest is independent of
/// the rank count and of any suspend/resume or fault-recovery history, which
/// is exactly the property the serving tests and bench assert.
enum class WorkloadKind { ring_u64 };

const char* workload_kind_name(WorkloadKind k);

/// One tenant's job description (see file header).
struct JobSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::ring_u64;

  /// Rank range the job can run at. The scheduler leases as many free ranks
  /// as it can up to ranks_max and never fewer than ranks_min; admission
  /// rejects specs whose ranks_min exceeds the pool outright.
  int ranks_min = 2;
  int ranks_max = 4;

  /// Workload extent and checkpoint cadence (steps between ring commits; a
  /// cooperative suspend always commits one regardless of cadence).
  int steps = 4;
  int checkpoint_every = 1;

  /// Salt folded into the workload so distinct tenants compute distinct
  /// (still P-invariant) answers.
  std::uint64_t workload_seed = 0;

  /// Strict priority: higher runs first and may preempt lower. Ties dispatch
  /// in submission order.
  int priority = 0;

  /// Per-lease supervisor retry budget (resil::SupervisorOptions::max_retries).
  int max_retries = 3;
  /// Scheduler-level budget: how many times a job whose lease exhausted its
  /// retries is re-queued before being quarantined.
  int relaunches = 1;
  /// Per-lease wall-clock deadline observed collectively at step boundaries;
  /// an overrun is raised as par::TimeoutError inside the job's own world, so
  /// it burns the tenant's retry budget like any other fault. 0 = none.
  double deadline_s = 0.0;

  /// First backoff sleep of the per-lease supervisor retry schedule
  /// (resil::SupervisorOptions::backoff.initial_s).
  double backoff_initial_s = 0.002;

  /// How this job's supervisor repairs confirmed rank failures.
  resil::RecoveryPolicy policy{};

  /// The tenant's fault environment. One-shot faults (rank kill, message
  /// corruption) are cleared at job scope after a lease that caught a fault,
  /// mirroring the supervisor's clear-on-retry semantics across leases.
  par::InjectConfig inject{};
  /// Failure-detector windows forwarded to par::RunOptions (kill_silent
  /// requires one of them armed).
  double heartbeat_timeout_s = 0.0;
  double recv_timeout_s = 0.0;
  /// Link-level ARQ (par::ArqConfig::enabled). Default on — corrupt messages
  /// heal at the cheapest rung; disable to force them up to the supervisor.
  bool arq_enabled = true;

  /// Private checkpoint ring directory (required; the unit of preemption).
  std::string ckpt_dir;
  int ckpt_keep = 2;
};

/// Lifecycle of an admitted job. queued and suspended are the leasable
/// states; completed / quarantined / rejected are terminal.
enum class JobState { queued, running, suspended, completed, quarantined, rejected };

const char* job_state_name(JobState s);

/// Admission decision for one submit() call. Rejected jobs still get an id
/// (their report carries the reason), but consume no pool or queue capacity.
struct AdmissionVerdict {
  bool admitted = false;
  int job_id = -1;
  std::string reason;  ///< empty when admitted
};

/// Per-lease control block shared between the scheduler and the running SPMD
/// body. The scheduler writes the lease fields before spawning the lease
/// (publication ordered by thread creation); the body polls *collectively*
/// at step boundaries so every rank leaves the loop at the same step.
class JobControl {
 public:
  enum Verdict : int {
    keep_running = 0,
    yield = 1,    ///< suspend requested: commit a checkpoint, throw Suspended
    overrun = 2,  ///< deadline exceeded: throw par::TimeoutError
  };

  /// Collective: rank 0 reads the suspend token and the deadline clock and
  /// broadcasts one verdict. A rank-local read would let ranks observe the
  /// request at different steps and diverge the world.
  int poll(par::Comm& c) const;

  resil::SuspendToken token;
  double lease_start_wall = 0.0;
  double deadline_s = 0.0;
};

}  // namespace esamr::serve
