// Multi-tenant serving benchmark: a shared 12-rank pool under a chaos mix.
//
// Ten tenants are admitted: a wide low-priority batch job, five fault
// tenants covering every chaos class the injection layer offers (one-shot
// rank kill healed by shrink and by a spare, a silent death named by the
// heartbeat detector, corrupt messages escalated to the supervisor and
// healed at the link layer, and seeded disk faults under the checkpoint
// writer), two clean bystanders, and a high-priority interactive job sized
// so it *must* preempt the batch tenant (checkpoint-and-suspend, then an
// elastic shrink + migration when the batch job resumes on different pool
// slots). Two more submissions are admission-rejected on purpose.
//
// The oracle is the solo digest: every admitted job's workload is first run
// fault-free and single-tenant, and the served run — supervised, preempted,
// migrated, fault-recovered — must reproduce that digest bit for bit.
// Cross-tenant isolation is asserted the same way the serving tests do: the
// clean tenants must finish with zero failures, zero replayed steps, zero
// link-layer heals, and zero exhaustions, no matter what the chaos tenants
// burned next to them.
//
// The per-job table reports QoS (wait/run), recovery accounting (attempts,
// failures, per-layer heals, supervisor MTTR), preemptions/migrations, and
// the digest verdict; the run exits nonzero on any digest mismatch, any
// leakage into a clean tenant, a missing preemption, or a bad admission
// verdict, so the nightly chaos job fails loudly.
//
// Usage: bench_serve [--json out.json]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <cinttypes>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "par/inject.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "serve/workload.h"

using namespace esamr;

namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string scratch_dir(const std::string& name) {
  // Pid-suffixed so concurrent bench runs never race on each other's rings.
  const auto d = std::filesystem::temp_directory_path() /
                 ("esamr_bench_serve_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d.string();
}

/// Spin (yield, no sleeping — the scheduler owns the clock) until `pred`
/// holds or `timeout_s` elapses.
bool wait_until(const std::function<bool()>& pred, double timeout_s) {
  const double t0 = wall_s();
  while (!pred()) {
    if (wall_s() - t0 > timeout_s) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One admitted tenant: its spec, its solo fault-free digest (the oracle),
/// and whether the isolation contract requires it to see zero fault traffic.
struct Tenant {
  serve::JobSpec spec;
  std::uint64_t solo_digest = 0;
  bool clean = false;
  int id = -1;
};

serve::JobSpec base_spec(const std::string& name, std::uint64_t seed, int steps) {
  serve::JobSpec s;
  s.name = name;
  s.workload_seed = seed;
  s.steps = steps;
  s.ranks_min = 2;
  s.ranks_max = 3;
  s.checkpoint_every = 1;
  s.ckpt_dir = scratch_dir(name);
  return s;
}

/// Fix the spec at `p` ranks and arm a deterministic one-shot kill on a
/// single seeded victim at ~3/4 of its solo op count (mid-run, after at
/// least one checkpoint committed). Returns the solo digest.
std::uint64_t arm_kill(serve::JobSpec& s, int p, bool silent) {
  s.ranks_min = s.ranks_max = p;
  int victim = -1;
  const std::uint64_t seed = serve::pick_single_victim_seed(p, &victim);
  const auto solo = serve::solo_run(s, p, scratch_dir(s.name + "_solo"));
  s.inject.seed = seed;
  s.inject.kill_rank_stride = p;
  s.inject.kill_after_ops = solo.ops[static_cast<std::size_t>(victim)] * 3 / 4;
  s.inject.kill_silent = silent;
  if (silent) s.heartbeat_timeout_s = 0.3;
  s.policy.on_rank_failure = resil::RecoveryMode::shrink;
  s.policy.min_ranks = 1;
  return solo.digest;
}

int migrations_of(const serve::JobReport& r) {
  int n = 0;
  for (std::size_t i = 1; i < r.lease_slots.size(); ++i) {
    if (r.lease_slots[i] != r.lease_slots[i - 1]) ++n;
  }
  return n;
}

struct RejectRow {
  std::string name;
  std::string reason;
};

void write_json(const char* path, int pool, double jobs_per_hour, bool ok,
                const std::vector<Tenant>& tenants,
                const std::vector<serve::JobReport>& reps,
                const std::vector<RejectRow>& rejects) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"serve\",\n  \"pool_ranks\": %d,\n", pool);
  std::fprintf(out, "  \"jobs_per_hour\": %.1f,\n  \"all_checks_passed\": %s,\n",
               jobs_per_hour, ok ? "true" : "false");
  std::fprintf(out, "  \"jobs\": [\n");
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const auto& t = tenants[i];
    const auto& r = reps[static_cast<std::size_t>(t.id)];
    const bool digest_ok =
        r.state == serve::JobState::completed && r.digest == t.solo_digest;
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"state\": \"%s\", \"priority\": %d, "
        "\"clean_tenant\": %s,\n"
        "     \"leases\": %d, \"preemptions\": %d, \"migrations\": %d, "
        "\"exhaustions\": %d,\n"
        "     \"attempts\": %d, \"failures\": %d, \"steps_replayed\": %llu, "
        "\"bytes_reread\": %" PRId64 ",\n"
        "     \"healed_link\": %d, \"healed_spare\": %d, \"healed_shrink\": %d, "
        "\"healed_restart\": %d, \"arq_healed\": %" PRId64 ",\n"
        "     \"wait_s\": %.6f, \"run_s\": %.6f, \"mttr_s\": %.6f, "
        "\"detect_s\": %.6f, \"digest_ok\": %s}%s\n",
        r.name.c_str(), serve::job_state_name(r.state), r.priority,
        t.clean ? "true" : "false", r.leases, r.preemptions, migrations_of(r),
        r.exhaustions, r.recovery.attempts, r.recovery.failures,
        static_cast<unsigned long long>(r.recovery.steps_replayed),
        r.recovery.bytes_reread, r.recovery.healed_link, r.recovery.healed_spare,
        r.recovery.healed_shrink, r.recovery.healed_restart, r.comm.arq_healed,
        r.wait_s, r.run_s, r.recovery.mttr_s(), r.recovery.detect_s,
        digest_ok ? "true" : "false", i + 1 < tenants.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"rejects\": [\n");
  for (std::size_t i = 0; i < rejects.size(); ++i) {
    std::fprintf(out, "    {\"name\": \"%s\", \"reason\": \"%s\"}%s\n",
                 rejects[i].name.c_str(), rejects[i].reason.c_str(),
                 i + 1 < rejects.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  constexpr int kPool = 12;
  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::fprintf(stderr, "bench_serve: FAIL: %s\n", what);
    ok = false;
  };

  // --- tenant specs + solo fault-free oracles -----------------------------
  std::vector<Tenant> tenants;

  {  // Wide low-priority batch job: the preemption victim.
    Tenant t;
    t.spec = base_spec("bg-batch", 11, 120);
    t.spec.ranks_min = 2;
    t.spec.ranks_max = 6;
    t.clean = true;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("bg-batch_solo")).digest;
    tenants.push_back(std::move(t));
  }
  {  // High-priority interactive job sized so 6 free ranks are not enough:
    // it must preempt bg-batch to lease.
    Tenant t;
    t.spec = base_spec("interactive", 29, 6);
    t.spec.ranks_min = t.spec.ranks_max = 8;
    t.spec.priority = 5;
    t.clean = true;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("interactive_solo")).digest;
    tenants.push_back(std::move(t));
  }
  {  // One-shot rank kill, healed in place by shrinking the world.
    Tenant t;
    t.spec = base_spec("kill-shrink", 21, 6);
    t.solo_digest = arm_kill(t.spec, 3, /*silent=*/false);
    tenants.push_back(std::move(t));
  }
  {  // Same fault class, healed by consuming a pre-allocated spare.
    Tenant t;
    t.spec = base_spec("kill-spare", 22, 6);
    t.solo_digest = arm_kill(t.spec, 3, /*silent=*/false);
    t.spec.policy.on_rank_failure = resil::RecoveryMode::spare;
    t.spec.policy.spares = 1;
    tenants.push_back(std::move(t));
  }
  {  // Silent death: no exception from the victim; the heartbeat detector
    // must name it before the shrink repair can run.
    Tenant t;
    t.spec = base_spec("silent-death", 23, 6);
    t.solo_digest = arm_kill(t.spec, 2, /*silent=*/true);
    tenants.push_back(std::move(t));
  }
  {  // Corrupt messages with ARQ disabled: every detection escalates to the
    // supervisor, which restarts and clears the link fault.
    Tenant t;
    t.spec = base_spec("corrupt-sup", 24, 6);
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("corrupt-sup_solo")).digest;
    t.spec.inject.seed = 9;
    t.spec.inject.corrupt_msg_stride = 1;
    t.spec.arq_enabled = false;
    tenants.push_back(std::move(t));
  }
  {  // Corrupt messages with ARQ on: healed at the link layer, the cheapest
    // rung; the supervisor should never see a fault.
    Tenant t;
    t.spec = base_spec("corrupt-arq", 25, 6);
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("corrupt-arq_solo")).digest;
    t.spec.inject.seed = 9;
    t.spec.inject.corrupt_msg_stride = 4;
    tenants.push_back(std::move(t));
  }
  {  // Seeded disk faults under the checkpoint writer (torn tail, truncation,
    // transient EIO) — absorbed by the write path's verify-and-retry.
    Tenant t;
    t.spec = base_spec("disk-fault", 26, 6);
    t.spec.ranks_min = t.spec.ranks_max = 2;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("disk-fault_solo")).digest;
    t.spec.inject.seed = 31;
    t.spec.inject.disk_fault_stride = 2;
    tenants.push_back(std::move(t));
  }
  {  // Clean bystanders: the isolation contract's probes.
    Tenant t;
    t.spec = base_spec("clean-a", 27, 5);
    t.clean = true;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("clean-a_solo")).digest;
    tenants.push_back(std::move(t));
  }
  {
    Tenant t;
    t.spec = base_spec("clean-b", 28, 5);
    t.clean = true;
    t.solo_digest =
        serve::solo_run(t.spec, 2, scratch_dir("clean-b_solo")).digest;
    tenants.push_back(std::move(t));
  }

  // --- serve the mix ------------------------------------------------------
  serve::SchedulerOptions sopts;
  sopts.pool_ranks = kPool;
  const double t0 = wall_s();
  std::vector<RejectRow> rejects;
  {
    serve::Scheduler sched(sopts);

    // bg-batch first, alone on the pool, so the interactive arrival finds it
    // leased wide and must preempt it.
    tenants[0].id = sched.submit(tenants[0].spec).job_id;
    if (!wait_until(
            [&] {
              return sched.report(tenants[0].id).state ==
                     serve::JobState::running;
            },
            30.0)) {
      fail("bg-batch never started running");
    }
    tenants[1].id = sched.submit(tenants[1].spec).job_id;
    if (!wait_until(
            [&] {
              return sched.report(tenants[1].id).state !=
                     serve::JobState::queued;
            },
            30.0)) {
      fail("interactive job never left the queue");
    }

    // The chaos tenants and bystanders share whatever the pool has left.
    for (std::size_t i = 2; i < tenants.size(); ++i) {
      const auto v = sched.submit(tenants[i].spec);
      if (!v.admitted) fail("chaos tenant unexpectedly rejected");
      tenants[i].id = v.job_id;
    }

    // Two deliberately bad submissions: admission must reject both cleanly.
    {
      auto s = base_spec("too-big", 90, 4);
      s.ranks_min = s.ranks_max = 2 * kPool;
      const auto v = sched.submit(s);
      if (v.admitted || v.reason.empty()) fail("infeasible spec was admitted");
      rejects.push_back(RejectRow{"too-big", v.reason});
    }
    {
      auto s = base_spec("bad-range", 91, 4);
      s.ranks_min = 3;
      s.ranks_max = 2;
      const auto v = sched.submit(s);
      if (v.admitted || v.reason.empty()) fail("invalid spec was admitted");
      rejects.push_back(RejectRow{"bad-range", v.reason});
    }

    sched.drain();
    const double jph = sched.jobs_per_hour();
    const auto reps = sched.reports();

    std::printf("=== multi-tenant chaos mix: %zu tenants on a %d-rank pool ===\n",
                tenants.size(), kPool);
    std::printf("%s\n", sched.summary().c_str());

    // --- verdicts ---------------------------------------------------------
    std::printf("%-12s %-10s %3s %3s %3s %3s %4s %8s %8s %9s %6s %6s\n", "job",
                "state", "lse", "pre", "mig", "exh", "fail", "wait s", "run s",
                "mttr s", "replay", "digest");
    for (const auto& t : tenants) {
      const auto& r = reps[static_cast<std::size_t>(t.id)];
      const bool done = r.state == serve::JobState::completed;
      const bool digest_ok = done && r.digest == t.solo_digest;
      std::printf("%-12s %-10s %3d %3d %3d %3d %4d %8.3f %8.3f %9.6f %6llu %6s\n",
                  r.name.c_str(), serve::job_state_name(r.state), r.leases,
                  r.preemptions, migrations_of(r), r.exhaustions,
                  r.recovery.failures, r.wait_s, r.run_s, r.recovery.mttr_s(),
                  static_cast<unsigned long long>(r.recovery.steps_replayed),
                  digest_ok ? "ok" : "BAD");
      if (!done) fail("an admitted tenant did not complete");
      if (!digest_ok) fail("served digest differs from the solo oracle");
      if (t.clean && (r.recovery.failures != 0 || r.exhaustions != 0 ||
                      r.recovery.steps_replayed != 0 || r.comm.arq_healed != 0)) {
        fail("fault traffic leaked into a clean tenant");
      }
    }
    const auto& bg = reps[static_cast<std::size_t>(tenants[0].id)];
    if (bg.preemptions < 1 || bg.leases < 2) {
      fail("the interactive job did not preempt bg-batch");
    }
    const auto& arq_tenant = reps[static_cast<std::size_t>(tenants[6].id)];
    if (arq_tenant.comm.arq_healed < 1 || arq_tenant.recovery.failures != 0) {
      fail("corrupt-arq was not healed at the link layer");
    }
    for (const auto& rj : rejects) {
      std::printf("%-12s %-10s (%s)\n", rj.name.c_str(), "rejected",
                  rj.reason.c_str());
    }
    std::printf("pool=%d jobs/hour=%.1f wall=%.2f s -> %s\n", kPool, jph,
                wall_s() - t0, ok ? "all checks passed" : "CHECKS FAILED");

    if (json_path != nullptr) {
      write_json(json_path, kPool, jph, ok, tenants, reps, rejects);
    }
  }
  return ok ? 0 : 1;
}
