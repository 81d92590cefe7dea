// Tests for the multi-tenant serving layer (src/serve): admission control,
// priority dispatch with checkpoint-based preemption over a shared rank
// pool, per-tenant fault isolation, and the supervisor-side primitives it
// rides on (suspend tokens, backoff-salt decorrelation, capped failure
// logs, per-job ARQ scoping). The recurring oracle: every job that
// completes — however it was preempted, migrated, shrunk, or
// fault-recovered — must reproduce the digest of its solo fault-free run
// bit for bit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "par/comm.h"
#include "par/inject.h"
#include "resil/checkpoint.h"
#include "resil/supervisor.h"
#include "serve/job.h"
#include "serve/lease.h"
#include "serve/scheduler.h"
#include "serve/workload.h"

using namespace esamr;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test scratch directory (pid-suffixed: the plain binary and the
/// ESAMR_CHECK=1 rerun may execute the same test concurrently under ctest -j).
std::string test_dir(const std::string& name) {
  const std::string d =
      ::testing::TempDir() + "esamr_serve_" + name + "_" + std::to_string(::getpid());
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// Subdirectory of an existing scratch root.
std::string subdir(const std::string& root, const std::string& name) {
  const std::string d = root + "/" + name;
  fs::create_directories(d);
  return d;
}

serve::JobSpec base_spec(const std::string& name, const std::string& ckpt_dir,
                         std::uint64_t seed) {
  serve::JobSpec s;
  s.name = name;
  s.ranks_min = 2;
  s.ranks_max = 3;
  s.steps = 3;
  s.workload_seed = seed;
  s.ckpt_dir = ckpt_dir;
  return s;
}

/// Spin (no raw sleeps in tests) until `pred` holds or `timeout_s` passes.
template <typename Pred>
bool wait_until(Pred pred, double timeout_s = 30.0) {
  const double t0 = par::wall_seconds();
  while (!pred()) {
    if (par::wall_seconds() - t0 > timeout_s) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Configure `spec` as a kill tenant at fixed size P: a seeded single victim
/// dies ~3/4 through its fault-free op count (after the first checkpoint,
/// before the job can finish). Returns the solo digest.
std::uint64_t arm_kill_tenant(serve::JobSpec& spec, int P, const std::string& solo_dir,
                              bool silent) {
  spec.ranks_min = P;
  spec.ranks_max = P;
  const auto solo = serve::solo_run(spec, P, solo_dir);
  int victim = -1;
  const std::uint64_t seed = serve::pick_single_victim_seed(P, &victim);
  EXPECT_NE(seed, 0u);
  spec.inject.seed = seed;
  spec.inject.kill_rank_stride = P;
  spec.inject.kill_after_ops = solo.ops[static_cast<std::size_t>(victim)] * 3 / 4;
  EXPECT_GT(spec.inject.kill_after_ops, 0u);
  spec.inject.kill_silent = silent;
  if (silent) spec.heartbeat_timeout_s = 0.3;
  spec.policy.on_rank_failure = resil::RecoveryMode::shrink;
  spec.policy.min_ranks = 1;
  return solo.digest;
}

}  // namespace

// --- RankPool -----------------------------------------------------------

TEST(RankPool, LeasesLowestSlotsFirstAndTracksCapacity) {
  serve::RankPool pool(4);
  EXPECT_EQ(pool.total(), 4);
  EXPECT_EQ(pool.free_count(), 4);
  const auto a = pool.acquire(3);
  EXPECT_EQ(a, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pool.free_count(), 1);
  EXPECT_TRUE(pool.acquire(2).empty());  // insufficient: leases nothing
  EXPECT_EQ(pool.free_count(), 1);
  pool.release({1});
  const auto b = pool.acquire(2);
  EXPECT_EQ(b, (std::vector<int>{1, 3}));
  EXPECT_EQ(pool.free_count(), 0);
  pool.release({0, 2});  // what remains of the first lease after {1} went back
  pool.release(b);
  EXPECT_EQ(pool.free_count(), 4);
}

// --- Admission control --------------------------------------------------

TEST(Admission, RejectsInfeasibleInvalidAndOverloadedCleanly) {
  const std::string root = test_dir("admission");
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 4;
  sopts.queue_max = 0;  // every well-formed spec is an overload reject
  serve::Scheduler sched(sopts);

  auto infeasible = base_spec("too-big", subdir(root, "a"), 1);
  infeasible.ranks_min = infeasible.ranks_max = 8;
  const auto v1 = sched.submit(infeasible);
  EXPECT_FALSE(v1.admitted);
  EXPECT_NE(v1.reason.find("infeasible"), std::string::npos);

  auto invalid = base_spec("bad-range", subdir(root, "b"), 2);
  invalid.ranks_min = 3;
  invalid.ranks_max = 2;
  const auto v2 = sched.submit(invalid);
  EXPECT_FALSE(v2.admitted);
  EXPECT_NE(v2.reason.find("invalid rank range"), std::string::npos);

  auto no_ring = base_spec("no-ring", "", 3);
  const auto v3 = sched.submit(no_ring);
  EXPECT_FALSE(v3.admitted);
  EXPECT_NE(v3.reason.find("checkpoint ring"), std::string::npos);

  const auto v4 = sched.submit(base_spec("overload", subdir(root, "c"), 4));
  EXPECT_FALSE(v4.admitted);
  EXPECT_NE(v4.reason.find("overloaded"), std::string::npos);

  // Rejected jobs are reported cleanly and consume nothing.
  sched.drain();  // immediate: nothing was admitted
  const auto reps = sched.reports();
  ASSERT_EQ(reps.size(), 4u);
  for (const auto& r : reps) {
    EXPECT_EQ(r.state, serve::JobState::rejected);
    EXPECT_TRUE(r.settled());
    EXPECT_FALSE(r.note.empty());
    EXPECT_EQ(r.leases, 0);
  }
  EXPECT_NE(sched.summary().find("rejected=4"), std::string::npos);
}

// --- Digest identity ----------------------------------------------------

TEST(Serve, SingleJobMatchesItsSoloDigest) {
  const std::string root = test_dir("single");
  auto spec = base_spec("solo-check", subdir(root, "ring"), 11);
  const auto solo = serve::solo_run(spec, 3, subdir(root, "solo"));
  ASSERT_NE(solo.digest, 0u);

  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 4;
  serve::Scheduler sched(sopts);
  const auto v = sched.submit(spec);
  ASSERT_TRUE(v.admitted) << v.reason;
  sched.drain();
  const auto r = sched.report(v.job_id);
  EXPECT_EQ(r.state, serve::JobState::completed);
  EXPECT_EQ(r.digest, solo.digest);
  EXPECT_EQ(r.leases, 1);
  EXPECT_EQ(r.recovery.attempts, 1);
  EXPECT_EQ(r.recovery.failures, 0);
  ASSERT_EQ(r.lease_slots.size(), 1u);
  EXPECT_EQ(r.lease_slots[0].size(), 3u);  // leased up to ranks_max
  EXPECT_GT(r.comm.p2p_sends, 0);          // per-job comm accounting
}

TEST(Serve, ConcurrentTenantsStayIsolatedAndBitIdentical) {
  const std::string root = test_dir("tenants");
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 8;
  serve::Scheduler sched(sopts);

  std::vector<std::uint64_t> solos;
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    auto spec = base_spec("tenant-" + std::to_string(i),
                          subdir(root, "ring" + std::to_string(i)),
                          100 + static_cast<std::uint64_t>(i));
    spec.ranks_min = spec.ranks_max = 2;
    solos.push_back(serve::solo_run(spec, 2, subdir(root, "solo" + std::to_string(i))).digest);
    const auto v = sched.submit(spec);
    ASSERT_TRUE(v.admitted) << v.reason;
    ids.push_back(v.job_id);
  }
  sched.drain();
  for (int i = 0; i < 4; ++i) {
    const auto r = sched.report(ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.state, serve::JobState::completed) << r.note;
    EXPECT_EQ(r.digest, solos[static_cast<std::size_t>(i)]) << "tenant " << i;
    EXPECT_EQ(r.recovery.failures, 0);
  }
  // Distinct seeds compute distinct answers (the digests really are per-job).
  EXPECT_NE(solos[0], solos[1]);
}

// --- Fault isolation ----------------------------------------------------

TEST(Isolation, TenantFaultsBurnOnlyTheirOwnBudget) {
  const std::string root = test_dir("isolation");
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 6;
  serve::Scheduler sched(sopts);

  // Tenant 0: seeded rank kill, healed by shrink. Fixed size for placement.
  auto kill_spec = base_spec("killer", subdir(root, "ring-kill"), 500);
  const std::uint64_t kill_solo = arm_kill_tenant(kill_spec, 2, subdir(root, "solo-kill"), false);

  // Tenant 1: every message corrupted, ARQ disabled — the fault escalates to
  // the supervisor, which clears the transient stride and retries.
  auto corrupt_spec = base_spec("corruptor", subdir(root, "ring-corrupt"), 501);
  corrupt_spec.ranks_min = corrupt_spec.ranks_max = 2;
  corrupt_spec.arq_enabled = false;
  const auto corrupt_solo =
      serve::solo_run(corrupt_spec, 2, subdir(root, "solo-corrupt")).digest;
  corrupt_spec.inject.seed = 9;
  corrupt_spec.inject.corrupt_msg_stride = 1;

  // Tenant 2: clean bystander.
  auto clean_spec = base_spec("bystander", subdir(root, "ring-clean"), 502);
  clean_spec.ranks_min = clean_spec.ranks_max = 2;
  const auto clean_solo = serve::solo_run(clean_spec, 2, subdir(root, "solo-clean")).digest;

  const auto vk = sched.submit(kill_spec);
  const auto vc = sched.submit(corrupt_spec);
  const auto vb = sched.submit(clean_spec);
  ASSERT_TRUE(vk.admitted && vc.admitted && vb.admitted);
  sched.drain();

  const auto rk = sched.report(vk.job_id);
  EXPECT_EQ(rk.state, serve::JobState::completed) << rk.note;
  EXPECT_EQ(rk.digest, kill_solo);
  EXPECT_GE(rk.recovery.failures, 1);
  EXPECT_GE(rk.recovery.healed_shrink, 1);

  const auto rc = sched.report(vc.job_id);
  EXPECT_EQ(rc.state, serve::JobState::completed) << rc.note;
  EXPECT_EQ(rc.digest, corrupt_solo);
  EXPECT_GE(rc.recovery.corrupt_msgs, 1);

  // The bystander saw nothing: no faults, no replay, one attempt, and its
  // *own* comm counters never counted a heal (zero cross-job leakage).
  const auto rb = sched.report(vb.job_id);
  EXPECT_EQ(rb.state, serve::JobState::completed) << rb.note;
  EXPECT_EQ(rb.digest, clean_solo);
  EXPECT_EQ(rb.recovery.failures, 0);
  EXPECT_EQ(rb.recovery.attempts, 1);
  EXPECT_EQ(rb.recovery.steps_replayed, 0u);
  EXPECT_EQ(rb.comm.arq_healed, 0);
  EXPECT_EQ(rb.comm.retransmits, 0);
}

TEST(Isolation, DeadlineOverrunQuarantinesOnlyTheTenant) {
  const std::string root = test_dir("deadline");
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 4;
  serve::Scheduler sched(sopts);

  auto late = base_spec("laggard", subdir(root, "ring-late"), 600);
  late.ranks_min = late.ranks_max = 2;
  late.deadline_s = 1e-4;  // overruns at the first collective step poll
  late.max_retries = 0;
  late.relaunches = 0;

  auto clean = base_spec("punctual", subdir(root, "ring-clean"), 601);
  clean.ranks_min = clean.ranks_max = 2;
  const auto clean_solo = serve::solo_run(clean, 2, subdir(root, "solo-clean")).digest;

  const auto vl = sched.submit(late);
  const auto vc = sched.submit(clean);
  ASSERT_TRUE(vl.admitted && vc.admitted);
  sched.drain();

  const auto rl = sched.report(vl.job_id);
  EXPECT_EQ(rl.state, serve::JobState::quarantined);
  EXPECT_NE(rl.note.find("deadline exceeded"), std::string::npos) << rl.note;
  EXPECT_EQ(rl.exhaustions, 1);

  const auto rc = sched.report(vc.job_id);
  EXPECT_EQ(rc.state, serve::JobState::completed) << rc.note;
  EXPECT_EQ(rc.digest, clean_solo);
  EXPECT_EQ(rc.recovery.failures, 0);
}

TEST(Isolation, TenantBugQuarantinesImmediatelyWithoutCollateral) {
  // A non-fault exception out of a job is a tenant bug: quarantined on the
  // spot, no relaunch consumed, neighbours untouched. The bug here is real:
  // the tenant's checkpoint ring is pre-seeded with *another* spec's
  // snapshots, so the restore's forest cross-check throws std::runtime_error.
  const std::string root = test_dir("bugjob");
  const std::string shared_ring = subdir(root, "ring-shared");
  auto donor = base_spec("donor", shared_ring, 700);
  (void)serve::solo_run(donor, 2, shared_ring);  // leaves donor checkpoints

  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 4;
  serve::Scheduler sched(sopts);

  auto buggy = base_spec("buggy", shared_ring, 701);  // different forest
  buggy.ranks_min = buggy.ranks_max = 2;
  buggy.relaunches = 5;  // must NOT be consumed: bugs skip the relaunch path
  auto clean = base_spec("neighbour", subdir(root, "ring-clean"), 702);
  clean.ranks_min = clean.ranks_max = 2;
  const auto clean_solo = serve::solo_run(clean, 2, subdir(root, "solo-clean")).digest;

  const auto vb = sched.submit(buggy);
  const auto vc = sched.submit(clean);
  ASSERT_TRUE(vb.admitted && vc.admitted);
  sched.drain();

  const auto rb = sched.report(vb.job_id);
  EXPECT_EQ(rb.state, serve::JobState::quarantined);
  EXPECT_NE(rb.note.find("tenant bug"), std::string::npos) << rb.note;
  EXPECT_EQ(rb.exhaustions, 0);
  EXPECT_EQ(rb.leases, 1);

  const auto rc = sched.report(vc.job_id);
  EXPECT_EQ(rc.state, serve::JobState::completed) << rc.note;
  EXPECT_EQ(rc.digest, clean_solo);
}

// --- Preemption / elastic resume ---------------------------------------

TEST(Preemption, HigherPrioritySuspendsShrinksAndResumesBitIdentically) {
  const std::string root = test_dir("preempt");

  auto low = base_spec("background", subdir(root, "ring-low"), 800);
  low.ranks_min = 2;
  low.ranks_max = 4;
  low.steps = 40;  // long enough to still be running when the preemptor lands
  const auto low_solo = serve::solo_run(low, 4, subdir(root, "solo-low")).digest;

  auto high = base_spec("interactive", subdir(root, "ring-high"), 801);
  high.ranks_min = high.ranks_max = 2;
  high.priority = 5;
  const auto high_solo = serve::solo_run(high, 2, subdir(root, "solo-high")).digest;

  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 4;
  serve::Scheduler sched(sopts);

  const auto vlow = sched.submit(low);
  ASSERT_TRUE(vlow.admitted);
  ASSERT_TRUE(wait_until([&] {
    return sched.report(vlow.job_id).state == serve::JobState::running;
  })) << "low-priority job never started";

  const auto vhigh = sched.submit(high);
  ASSERT_TRUE(vhigh.admitted);
  sched.drain();

  const auto rl = sched.report(vlow.job_id);
  const auto rh = sched.report(vhigh.job_id);
  EXPECT_EQ(rh.state, serve::JobState::completed) << rh.note;
  EXPECT_EQ(rh.digest, high_solo);

  EXPECT_EQ(rl.state, serve::JobState::completed) << rl.note;
  EXPECT_EQ(rl.digest, low_solo) << "preempted job must resume bit-identically";
  EXPECT_GE(rl.preemptions, 1);
  EXPECT_GE(rl.leases, 2);
  ASSERT_GE(rl.lease_slots.size(), 2u);
  // First lease took the whole pool; the resume while the preemptor held
  // slots {0, 1} was an elastic shrink onto the remaining slots — a visible
  // migration.
  EXPECT_EQ(rl.lease_slots[0].size(), 4u);
  EXPECT_EQ(rl.lease_slots[1], (std::vector<int>{2, 3}));
  // The suspended lease burned no retry budget.
  EXPECT_EQ(rl.recovery.failures, 0);
  EXPECT_GT(rl.wait_s, 0.0);
}

// --- Chaos mix over a shared pool (ctest -L chaos -L serve) -------------

TEST(ServeChaos, MixedFaultClassesShareThePoolWithoutLeakage) {
  const std::string root = test_dir("chaosmix");
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = 8;
  serve::Scheduler sched(sopts);

  struct Tenant {
    serve::JobSpec spec;
    std::uint64_t solo = 0;
    int id = -1;
    bool faulty = false;
  };
  std::vector<Tenant> tenants;

  {  // killer (diagnosed kill, shrink repair)
    Tenant t;
    t.spec = base_spec("kill", subdir(root, "ring-kill"), 900);
    t.solo = arm_kill_tenant(t.spec, 2, subdir(root, "solo-kill"), false);
    t.faulty = true;
    tenants.push_back(t);
  }
  {  // silent death (heartbeat detection, shrink repair)
    Tenant t;
    t.spec = base_spec("silent", subdir(root, "ring-silent"), 901);
    t.solo = arm_kill_tenant(t.spec, 2, subdir(root, "solo-silent"), true);
    t.faulty = true;
    tenants.push_back(t);
  }
  {  // corrupt messages, supervisor rung
    Tenant t;
    t.spec = base_spec("corrupt", subdir(root, "ring-corrupt"), 902);
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.spec.arq_enabled = false;
    t.solo = serve::solo_run(t.spec, 2, subdir(root, "solo-corrupt")).digest;
    t.spec.inject.seed = 9;
    t.spec.inject.corrupt_msg_stride = 1;
    t.faulty = true;
    tenants.push_back(t);
  }
  {  // disk faults in the checkpoint commit path (healed by write-verify)
    Tenant t;
    t.spec = base_spec("disk", subdir(root, "ring-disk"), 903);
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.solo = serve::solo_run(t.spec, 2, subdir(root, "solo-disk")).digest;
    t.spec.inject.seed = 31;
    t.spec.inject.disk_fault_stride = 2;
    t.faulty = true;
    tenants.push_back(t);
  }
  for (int i = 0; i < 4; ++i) {  // clean tenants, mixed priorities
    Tenant t;
    t.spec = base_spec("clean-" + std::to_string(i),
                       subdir(root, "ring-c" + std::to_string(i)),
                       910 + static_cast<std::uint64_t>(i));
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.spec.priority = i % 2;
    t.solo = serve::solo_run(t.spec, 2, subdir(root, "solo-c" + std::to_string(i))).digest;
    tenants.push_back(t);
  }

  for (auto& t : tenants) {
    const auto v = sched.submit(t.spec);
    ASSERT_TRUE(v.admitted) << t.spec.name << ": " << v.reason;
    t.id = v.job_id;
  }
  sched.drain();

  for (const auto& t : tenants) {
    const auto r = sched.report(t.id);
    EXPECT_EQ(r.state, serve::JobState::completed) << t.spec.name << ": " << r.note;
    EXPECT_EQ(r.digest, t.solo) << t.spec.name << " digest drifted from its solo run";
    if (!t.faulty) {
      EXPECT_EQ(r.recovery.failures, 0) << t.spec.name << " absorbed someone else's fault";
      EXPECT_EQ(r.recovery.steps_replayed, 0u) << t.spec.name;
    }
  }
  EXPECT_GT(sched.jobs_per_hour(), 0.0);
  EXPECT_NE(sched.summary().find("completed=8"), std::string::npos) << sched.summary();
}

// --- Concurrent supervisors from raw threads (satellite: TSan coverage) --

TEST(Concurrency, ParallelSupervisorsMatchTheirSoloRuns) {
  const std::string root = test_dir("par_supervise");
  constexpr int kJobs = 4;

  struct Slot {
    serve::JobSpec spec;
    std::uint64_t solo = 0;
    std::uint64_t digest = 0;
    resil::RecoveryStats stats;
  };
  std::vector<Slot> slots(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    auto& s = slots[static_cast<std::size_t>(i)];
    s.spec = base_spec("thr-" + std::to_string(i), subdir(root, "ring" + std::to_string(i)),
                       1000 + static_cast<std::uint64_t>(i));
    s.spec.ranks_min = s.spec.ranks_max = 2;
    if (i == 0) {
      s.solo = arm_kill_tenant(s.spec, 2, subdir(root, "solo0"), false);
    } else {
      s.solo = serve::solo_run(s.spec, 2, subdir(root, "solo" + std::to_string(i))).digest;
      if (i == 1) {  // corrupt tenant, ARQ rung: heals silently at the link
        s.spec.inject.seed = 9;
        s.spec.inject.corrupt_msg_stride = 4;
      }
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    threads.emplace_back([&slots, i] {
      auto& s = slots[static_cast<std::size_t>(i)];
      par::RunOptions opts;
      opts.inject = s.spec.inject;
      resil::SupervisorOptions sopt;
      sopt.backoff.initial_s = 0.0;
      sopt.backoff_salt = static_cast<std::uint64_t>(i) + 1;
      sopt.policy = s.spec.policy;
      resil::CheckpointRing ring(s.spec.ckpt_dir, s.spec.ckpt_keep);
      const auto body = serve::make_body(s.spec, nullptr, &s.digest);
      s.stats = resil::supervise(2, opts, sopt, &ring, body);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kJobs; ++i) {
    const auto& s = slots[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.digest, s.solo) << "job " << i;
    EXPECT_EQ(s.stats.ranks_final, i == 0 ? 1 : 2) << "job " << i;
  }
  // The kill tenant's faults never leaked into a clean tenant's stats.
  EXPECT_EQ(slots[2].stats.failures, 0);
  EXPECT_EQ(slots[3].stats.failures, 0);
  // ARQ heals landed in the corrupt tenant's stats and nowhere else.
  EXPECT_GT(slots[1].stats.healed_link, 0);
  EXPECT_EQ(slots[2].stats.healed_link, 0);
  EXPECT_EQ(slots[3].stats.healed_link, 0);
}

// --- Supervisor satellites ----------------------------------------------

TEST(Supervisor, BackoffSaltDecorrelatesConcurrentSchedules) {
  resil::SupervisorOptions sopt;
  sopt.max_retries = 3;
  sopt.backoff.initial_s = 0.001;
  sopt.backoff.cap_s = 0.01;
  par::RunOptions opts;
  opts.inject.seed = 77;
  const auto run_once = [&](std::uint64_t salt) {
    auto so = sopt;
    so.backoff_salt = salt;
    return resil::supervise(1, opts, so, nullptr, [](par::Comm&, resil::RecoveryContext& ctx) {
      if (ctx.attempt() < 2) throw par::TimeoutError("synthetic timeout");
    });
  };
  const auto s0a = run_once(0), s0b = run_once(0);
  const auto s7a = run_once(7), s7b = run_once(7);
  // Each salt is individually deterministic...
  EXPECT_EQ(s0a.backoff_s, s0b.backoff_s);
  EXPECT_EQ(s7a.backoff_s, s7b.backoff_s);
  // ...but different salts draw decorrelated jitter from the same seed.
  EXPECT_NE(s0a.backoff_s, s7a.backoff_s);
  EXPECT_NE(s0a.backoff_min_s, s7a.backoff_min_s);
}

TEST(Supervisor, FailureLogIsCappedAndOverflowCounted) {
  resil::SupervisorOptions sopt;
  sopt.max_retries = 9;
  sopt.backoff.initial_s = 0.0;
  sopt.failure_log_max = 3;
  par::RunOptions opts;
  const auto stats =
      resil::supervise(1, opts, sopt, nullptr, [](par::Comm&, resil::RecoveryContext& ctx) {
        if (ctx.attempt() < 8) throw par::TimeoutError("synthetic timeout");
      });
  EXPECT_EQ(stats.failures, 8);
  EXPECT_EQ(stats.failure_log.size(), 3u);
  EXPECT_EQ(stats.failures_dropped, 5);
  EXPECT_NE(stats.summary().find("dropped by the cap"), std::string::npos);
}

TEST(Supervisor, SuspendTokenYieldsBetweenAttemptsWithoutBurningBudget) {
  resil::SuspendToken token;
  resil::SupervisorOptions sopt;
  sopt.suspend = &token;
  std::atomic<int> launches{0};
  token.request();  // pending before the first attempt: nothing may launch
  const auto s1 = resil::supervise(1, {}, sopt, nullptr,
                                   [&](par::Comm&, resil::RecoveryContext&) { ++launches; });
  EXPECT_TRUE(s1.suspended);
  EXPECT_EQ(s1.attempts, 0);
  EXPECT_EQ(launches.load(), 0);
  token.clear();  // re-armed: the resume runs normally
  const auto s2 = resil::supervise(1, {}, sopt, nullptr,
                                   [&](par::Comm&, resil::RecoveryContext&) { ++launches; });
  EXPECT_FALSE(s2.suspended);
  EXPECT_EQ(s2.attempts, 1);
  EXPECT_EQ(launches.load(), 1);
  // merge() folds a suspend-then-resume pair into one job-level view.
  auto merged = s1;
  merged.merge(s2);
  EXPECT_EQ(merged.attempts, 1);
  EXPECT_FALSE(merged.suspended);
}

TEST(Supervisor, RecoveryStatsMergeAccumulatesAcrossLeases) {
  resil::RecoveryStats a;
  a.attempts = 2;
  a.failures = 1;
  a.backoff_min_s = 0.004;
  a.backoff_max_s = 0.004;
  a.backoff_s = 0.004;
  a.failure_log = {"first"};
  a.suspended = true;
  a.ranks_final = 4;
  resil::RecoveryStats b;
  b.attempts = 1;
  b.failures = 2;
  b.backoff_min_s = 0.002;
  b.backoff_max_s = 0.008;
  b.backoff_s = 0.010;
  b.failure_log = {"second", "third"};
  b.failures_dropped = 1;
  b.ranks_final = 3;
  a.merge(b);
  EXPECT_EQ(a.attempts, 3);
  EXPECT_EQ(a.failures, 3);
  EXPECT_DOUBLE_EQ(a.backoff_min_s, 0.002);
  EXPECT_DOUBLE_EQ(a.backoff_max_s, 0.008);
  EXPECT_DOUBLE_EQ(a.backoff_s, 0.014);
  EXPECT_EQ(a.failure_log.size(), 3u);
  EXPECT_EQ(a.failures_dropped, 1);
  EXPECT_FALSE(a.suspended);   // newer call completed
  EXPECT_EQ(a.ranks_final, 3);  // newer call's world size
}
