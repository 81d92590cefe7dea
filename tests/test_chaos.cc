// Chaos campaign: sweep fault classes x seeds x rank
// counts over a checkpointed SPMD workload and assert that EVERY run
// terminates in exactly one of three outcomes:
//
//   1. bit-identical success        (no fault fired, digest == baseline)
//   2. diagnosed fault + recovery   (supervise caught >= 1 fault, retried,
//                                    and the final digest is still
//                                    bit-identical to the fault-free run)
//   3. clean diagnosed abort        (a recognized fault class propagated
//                                    after retries were exhausted)
//
// Never a hang (recv/barrier timeouts are armed on every run) and never a
// silent wrong answer (any successful termination must reproduce the
// fault-free digest bit for bit).
//
// Fault classes: delivery delays, one-shot rank kill, in-flight payload
// corruption (CRC32C envelopes detect it), checkpoint disk faults (the
// write-verify commit loop heals them), all of the above combined, and an
// async class that keeps the step's ring hop in flight as isend/irecv
// requests across the blocking allreduce, so kills and corruption strike
// with requests still pending — the fault unwind drains them (Request dtor)
// and the digest must still match the blocking baseline bit for bit.
//
// The workload is a deliberately small but communication-dense loop: a fixed
// refined 2D forest with one per-octant field, per step a ring p2p exchange
// folded into the field, an allreduce, and a checkpoint-ring commit; on
// every (re)start it probes the ring and resumes from the newest valid
// snapshot — the same restart pattern the mantle app uses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "forest/forest.h"
#include "par/check.h"
#include "par/comm.h"
#include "par/crc32c.h"
#include "par/inject.h"
#include "resil/checkpoint.h"
#include "resil/supervisor.h"

using namespace esamr;
using forest::Connectivity;
using forest::Forest;
using forest::Octant;
namespace fs = std::filesystem;

namespace {

constexpr int n_steps = 5;

std::string test_dir(const std::string& name) {
  // Suffix the pid: the plain per-case binary and the ESAMR_CHECK=1 whole-
  // binary rerun may execute the same test concurrently under ctest -j.
  const std::string d =
      ::testing::TempDir() + "esamr_chaos_" + name + "_" + std::to_string(::getpid());
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

Forest<2> make_forest(par::Comm& c, const Connectivity<2>& conn) {
  auto f = Forest<2>::new_uniform(c, &conn, 1);
  f.refine(3, false,
           [](int t, const Octant<2>& o) { return (t + o.child_id() + o.level) % 2 == 0; });
  f.balance();
  f.partition();
  return f;
}

double init_value(int t, const Octant<2>& o) {
  return 1.0 + 0.25 * t + 1e-9 * o.x + 1e-10 * o.y + 0.0625 * o.level;
}

/// One deterministic field-update step: fold the previous rank's partial sum
/// (ring p2p) and the step index into every local value, then allreduce a
/// global sum (its value feeds the next step's scale, making every step
/// depend on every message arriving intact).
void step_field(par::Comm& c, std::vector<double>& field, int k) {
  double local = 0.0;
  for (const double v : field) local += v;
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  c.send_value(next, /*tag=*/11, local);
  const double from_prev = c.recv(prev, 11).value<double>();
  const double global = c.allreduce(local, par::ReduceOp::sum);
  const double scale = 1.0 + 1e-6 * std::sin(static_cast<double>(k + 1));
  for (double& v : field) {
    v = v * scale + 1e-9 * from_prev + 1e-12 * global;
  }
}

/// The same step through the async runtime: the ring hop is posted up front
/// (irecv, isend) and the blocking allreduce runs while both requests are in
/// flight, so injected kills and corruption strike with requests pending and
/// the fault unwind must drain them cleanly. The values folded are
/// bit-identical to step_field's, so a run that terminates successfully must
/// reproduce the blocking baseline digest.
void step_field_async(par::Comm& c, std::vector<double>& field, int k) {
  double local = 0.0;
  for (const double v : field) local += v;
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  par::Request rr = c.irecv(prev, /*tag=*/11);
  par::Request rs = c.isend(next, 11, std::vector<double>{local});
  const double global = c.allreduce(local, par::ReduceOp::sum);
  rr.wait();
  const double from_prev = rr.message().view<double>()[0];
  rs.wait();
  const double scale = 1.0 + 1e-6 * std::sin(static_cast<double>(k + 1));
  for (double& v : field) {
    v = v * scale + 1e-9 * from_prev + 1e-12 * global;
  }
}

/// The supervised body: restore from the ring if it holds a snapshot, run
/// the remaining steps (checkpointing each), and publish the final digest
/// (CRC32C over the gathered global field bits + the forest checksum) into
/// `digest_out` on rank 0.
void chaos_body(par::Comm& c, resil::RecoveryContext& ctx, const Connectivity<2>& conn,
                std::uint64_t cid, const std::string& ring_dir, std::uint64_t* digest_out,
                bool async_steps = false) {
  resil::CheckpointRing ring(ring_dir, 2);
  auto f = make_forest(c, conn);
  std::vector<double> field;
  f.for_each_local([&](int t, const Octant<2>& o) { field.push_back(init_value(t, o)); });

  int k0 = 0;
  if (resil::ring_probe(c, ring)) {
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    ASSERT_EQ(r.forest.checksum(), f.checksum());  // the mesh is static here
    ASSERT_EQ(r.fields.size(), 1u);
    field = std::move(r.fields[0].data);
  }

  for (int k = k0; k < n_steps; ++k) {
    if (async_steps) {
      step_field_async(c, field, k);
    } else {
      step_field(c, field, k);
    }
    resil::NamedField fld{"u", 1, field};
    resil::write_checkpoint_ring(f, cid, static_cast<std::uint64_t>(k), {fld}, ring);
    if (c.rank() == 0) ctx.note_step();
  }

  // Digest: gathered global field bits + structural checksum, so a single
  // flipped mantissa bit anywhere on any rank changes the answer.
  std::vector<std::int64_t> bits;
  bits.reserve(field.size());
  for (const double v : field) {
    std::int64_t b;
    std::memcpy(&b, &v, sizeof(b));
    bits.push_back(b);
  }
  const auto parts = c.allgatherv(bits);
  const std::uint64_t fsum = f.checksum();
  if (c.rank() == 0) {
    std::uint32_t crc = 0;
    for (const auto& part : parts) {
      crc = par::crc32c_update(crc, part.data(), part.size() * sizeof(std::int64_t));
    }
    *digest_out = (static_cast<std::uint64_t>(crc) << 32) ^ fsum;
  }
}

enum class Outcome { success, recovered, aborted };

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::success: return "success";
    case Outcome::recovered: return "recovered";
    case Outcome::aborted: return "aborted";
  }
  return "?";
}

struct FaultClass {
  const char* name;
  void (*arm)(par::InjectConfig&);
  bool async_steps = false;  ///< run the step through the nonblocking runtime
  double heartbeat_s = 0.0;  ///< arm the heartbeat failure detector (0 = off)
};

const FaultClass fault_classes[] = {
    {"delays",
     [](par::InjectConfig& i) { i.max_delay_us = 200.0; }},
    {"kill",
     [](par::InjectConfig& i) {
       i.kill_rank_stride = 2;
       i.kill_after_ops = 25;
     }},
    {"corrupt_msg",
     [](par::InjectConfig& i) { i.corrupt_msg_stride = 32; }},
    {"disk",
     [](par::InjectConfig& i) { i.disk_fault_stride = 2; }},
    {"combined",
     [](par::InjectConfig& i) {
       i.max_delay_us = 100.0;
       i.kill_rank_stride = 2;
       i.kill_after_ops = 40;
       i.corrupt_msg_stride = 48;
       i.disk_fault_stride = 3;
     }},
    // Kills and payload corruption striking with isend/irecv requests
    // pending across the allreduce; the unwind drains them and the retry
    // must still reproduce the blocking baseline digest.
    {"async",
     [](par::InjectConfig& i) {
       i.max_delay_us = 100.0;
       i.kill_rank_stride = 2;
       i.kill_after_ops = 25;
       i.corrupt_msg_stride = 32;
     },
     /*async_steps=*/true},
};

/// Run one supervised chaos run and classify its outcome. Any exception that
/// is not a recognized fault class fails the test (that would be a bug, not
/// a fault), as does any successful termination whose digest differs from
/// the fault-free baseline (a silent wrong answer).
Outcome chaos_run(int p, const FaultClass& fc, std::uint64_t seed, const Connectivity<2>& conn,
                  std::uint64_t cid, std::uint64_t baseline, std::string* diag) {
  par::RunOptions opts;
  opts.recv_timeout_s = 20.0;
  opts.barrier_timeout_s = 20.0;
  opts.inject.seed = seed;
  fc.arm(opts.inject);
  // This campaign exercises the *supervisor* rung of the recovery ladder:
  // with link-level ARQ armed, in-flight corruption would be healed below
  // the supervisor and the corrupt_msg cells would never escalate. The
  // policy-matrix test below runs with the full ladder on.
  opts.arq.enabled = false;

  resil::SupervisorOptions sopt;
  sopt.max_retries = 4;
  sopt.backoff.initial_s = 0.0;

  const std::string dir =
      test_dir(std::string(fc.name) + "_p" + std::to_string(p) + "_s" + std::to_string(seed));
  std::uint64_t digest = 0;
  try {
    const auto stats = resil::supervise(
        p, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
          chaos_body(c, ctx, conn, cid, dir, &digest, fc.async_steps);
        });
    EXPECT_EQ(digest, baseline) << "SILENT WRONG ANSWER: class=" << fc.name << " P=" << p
                                << " seed=" << seed << " " << stats.summary();
    *diag = stats.summary();
    return stats.failures == 0 ? Outcome::success : Outcome::recovered;
  } catch (const par::RankFailure& e) {
    *diag = e.what();
  } catch (const par::TimeoutError& e) {
    *diag = e.what();
  } catch (const par::CorruptMessage& e) {
    *diag = e.what();
  } catch (const resil::CheckpointCorrupt& e) {
    *diag = e.what();
  } catch (const par::check::CheckError& e) {
    // Only the deadlock verdict is a fault; anything else is a bug.
    EXPECT_EQ(e.kind(), par::check::Violation::deadlock)
        << "class=" << fc.name << " P=" << p << " seed=" << seed << ": " << e.what();
    *diag = e.what();
  }
  // The abort is "clean" only if the exception names the fault.
  EXPECT_FALSE(diag->empty());
  return Outcome::aborted;
}

}  // namespace

// The campaign: 6 fault classes x 5 seeds x P in {2, 4, 8, 16} = 120 runs.
TEST(Chaos, CampaignTerminatesWithoutHangsOrSilentWrongAnswers) {
  const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
  const std::uint64_t cid = resil::connectivity_id(conn);
  const int ranks[] = {2, 4, 8, 16};
  const std::uint64_t seeds[] = {101, 202, 303, 404, 505};

  // Fault-free baseline digest per rank count.
  std::map<int, std::uint64_t> baseline;
  for (const int p : ranks) {
    std::uint64_t digest = 0;
    const std::string dir = test_dir("baseline_p" + std::to_string(p));
    par::run(p, [&](par::Comm& c) {
      resil::RecoveryContext ctx(0);
      chaos_body(c, ctx, conn, cid, dir, &digest);
    });
    ASSERT_NE(digest, 0u) << "P=" << p;
    baseline[p] = digest;
  }
  // Elasticity note: the digest is over *global* bits, yet it legitimately
  // depends on P because the ring exchange mixes per-rank partial sums. The
  // contract is per-P bit-reproducibility, which is what the campaign checks.
  // (The policy matrix below uses a P-invariant integer workload instead, so
  // in-place shrink repairs can be checked against one cross-P baseline.)

  std::map<Outcome, int> tally;
  std::map<std::string, std::map<Outcome, int>> by_class;
  int runs = 0;
  for (const auto& fc : fault_classes) {
    for (const std::uint64_t seed : seeds) {
      for (const int p : ranks) {
        std::string diag;
        const Outcome o = chaos_run(p, fc, seed, conn, cid, baseline[p], &diag);
        ++tally[o];
        ++by_class[fc.name][o];
        ++runs;
        if (::testing::Test::HasFailure()) {
          FAIL() << "campaign stopped at class=" << fc.name << " P=" << p << " seed=" << seed
                 << " outcome=" << outcome_name(o) << "\n  " << diag;
        }
      }
    }
  }
  EXPECT_GE(runs, 100);

  // The campaign must exercise all three outcomes: faults that fired and
  // were survived, and (because some classes are by construction one-shot
  // recoverable) a healthy majority of terminations with the right answer.
  EXPECT_GT(tally[Outcome::recovered], 0) << "no run ever recovered from a fault";
  EXPECT_GT(tally[Outcome::success] + tally[Outcome::recovered], tally[Outcome::aborted])
      << "most runs should terminate with the correct answer";
  // Every kill run fires (stride 2 guarantees a victim exists at even P is
  // not certain per seed, but across 5 seeds x 4 rank counts some must), and
  // the corruption defense must have been exercised.
  EXPECT_GT(by_class["kill"][Outcome::recovered] + by_class["kill"][Outcome::aborted], 0);
  EXPECT_GT(by_class["corrupt_msg"][Outcome::recovered] +
                by_class["corrupt_msg"][Outcome::aborted],
            0);
  // The async class must both fire faults (requests were in flight when the
  // kill / corruption struck) and produce at least one run that survived the
  // drain-and-retry with the correct answer.
  EXPECT_GT(by_class["async"][Outcome::recovered] + by_class["async"][Outcome::aborted], 0);
  EXPECT_GT(by_class["async"][Outcome::success] + by_class["async"][Outcome::recovered], 0);

  std::printf("chaos campaign: %d runs\n", runs);
  for (const auto& [name, t] : by_class) {
    std::printf("  %-12s success=%d recovered=%d aborted=%d\n", name.c_str(),
                t.count(Outcome::success) ? t.at(Outcome::success) : 0,
                t.count(Outcome::recovered) ? t.at(Outcome::recovered) : 0,
                t.count(Outcome::aborted) ? t.at(Outcome::aborted) : 0);
  }
}

// Recovered runs are not merely "plausible": rerunning the same (class, P,
// seed) cell twice yields the same outcome and, for terminating runs, the
// same bit-identical digest — chaos itself is reproducible.
TEST(Chaos, CellsAreDeterministic) {
  const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
  const std::uint64_t cid = resil::connectivity_id(conn);
  constexpr int p = 4;
  std::uint64_t baseline = 0;
  {
    const std::string dir = test_dir("det_baseline");
    par::run(p, [&](par::Comm& c) {
      resil::RecoveryContext ctx(0);
      chaos_body(c, ctx, conn, cid, dir, &baseline);
    });
  }
  for (const auto& fc : fault_classes) {
    std::string d1, d2;
    const Outcome o1 = chaos_run(p, fc, 777, conn, cid, baseline, &d1);
    const Outcome o2 = chaos_run(p, fc, 777, conn, cid, baseline, &d2);
    EXPECT_EQ(o1, o2) << fc.name << ": " << d1 << " vs " << d2;
  }
}

// --- Adapt under fault ------------------------------------------------------
//
// The campaign above runs a STATIC mesh with full snapshots. This class kills
// ranks, corrupts messages, and injects disk faults while the mesh itself is
// adapting and the checkpoint ring holds an OPEN DELTA CHAIN — a full anchor
// plus per-step delta checkpoints. A restart must restore the longest valid
// chain prefix (quarantining a corrupt tail), replay the remaining adapt
// steps through the incremental pipeline, and still reproduce the fault-free
// digest bit for bit.

namespace {

constexpr int n_adapt_steps = 5;

/// Supervised adaptive workload: per step, canonical repartition (so coarsen
/// family decisions are a pure function of mesh content, independent of
/// restart history), a moving-front refine/coarsen with the delta recorded,
/// incremental balance, and a delta-checkpoint commit. The per-octant field
/// is a pure function of the octant, satisfying the delta-write contract
/// (values outside the delta regions never change between ring writes).
void adapt_fault_body(par::Comm& c, resil::RecoveryContext& ctx, const Connectivity<2>& conn,
                      std::uint64_t cid, const std::string& ring_dir,
                      std::uint64_t* digest_out) {
  resil::CheckpointRing ring(ring_dir, 3);
  constexpr int base = 2;
  constexpr int maxl = 4;
  const double root = static_cast<double>(Octant<2>::root_len);
  const double radius = 1.6 * static_cast<double>(Octant<2>::root_len >> base);
  const auto dist = [&](const Octant<2>& o, int k) {
    const double half = 0.5 * static_cast<double>(o.size());
    const double cx = (0.25 + 0.08 * k) * root;
    const double cy = 0.4 * root;
    const double dx = (static_cast<double>(o.x) + half) - cx;
    const double dy = (static_cast<double>(o.y) + half) - cy;
    return std::sqrt(dx * dx + dy * dy);
  };
  const auto val = [](int t, const Octant<2>& o) {
    return 1.0 + 0.25 * t + 1e-6 * o.x + 1e-7 * o.y + 0.0625 * o.level;
  };
  const auto field_of = [&](const Forest<2>& f) {
    resil::NamedField u{"u", 1, {}};
    f.for_each_local([&](int t, const Octant<2>& o) { u.data.push_back(val(t, o)); });
    return u;
  };

  auto f = Forest<2>::new_uniform(c, &conn, base);
  f.partition();
  f.refine(maxl, false, [&](int t, const Octant<2>& o) {
    return t == 0 && o.level <= maxl - 1 && dist(o, 0) < radius;
  });
  f.balance();

  int k0 = 1;
  if (resil::ring_probe(c, ring)) {
    // Restores through the delta chain: newest valid full anchor plus the
    // longest valid delta prefix (a corrupt tail is quarantined and its
    // steps are simply re-run below).
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    f = std::move(r.forest);
  } else {
    resil::write_checkpoint_ring(f, cid, 0, {field_of(f)}, ring);
  }

  for (int k = k0; k <= n_adapt_steps; ++k) {
    f.partition();
    forest::DeltaSet<2> delta(f.num_trees());
    f.refine(maxl, false, [&](int t, const Octant<2>& o) {
      return t == 0 && o.level <= maxl - 1 && dist(o, k) < radius;
    }, &delta);
    f.coarsen(false, [&](int t, const Octant<2>& o) {
      return t == 0 && o.level > base && dist(o, k) > 2.2 * radius;
    }, &delta);
    f.balance_incremental(delta);
    resil::write_delta_checkpoint_ring(f, cid, static_cast<std::uint64_t>(k), {field_of(f)},
                                       delta, ring);
    if (c.rank() == 0) ctx.note_step();
  }

  const auto u = field_of(f);
  std::vector<std::int64_t> bits;
  bits.reserve(u.data.size());
  for (const double v : u.data) {
    std::int64_t b;
    std::memcpy(&b, &v, sizeof(b));
    bits.push_back(b);
  }
  const auto parts = c.allgatherv(bits);
  const std::uint64_t fsum = f.checksum();
  if (c.rank() == 0) {
    std::uint32_t crc = 0;
    for (const auto& part : parts) {
      crc = par::crc32c_update(crc, part.data(), part.size() * sizeof(std::int64_t));
    }
    *digest_out = (static_cast<std::uint64_t>(crc) << 32) ^ fsum;
  }
}

}  // namespace

// Kill / message-corruption / disk faults striking while the ring holds an
// open delta chain: every run must terminate as success, diagnosed recovery
// with the fault-free digest, or clean abort — never a hang or a silently
// wrong mesh.
TEST(Chaos, AdaptUnderFault) {
  const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
  const std::uint64_t cid = resil::connectivity_id(conn);
  const int ranks[] = {2, 4, 8};
  const std::uint64_t seeds[] = {11, 22, 33, 44};

  std::map<int, std::uint64_t> baseline;
  for (const int p : ranks) {
    std::uint64_t digest = 0;
    const std::string dir = test_dir("adapt_baseline_p" + std::to_string(p));
    par::run(p, [&](par::Comm& c) {
      resil::RecoveryContext ctx(0);
      adapt_fault_body(c, ctx, conn, cid, dir, &digest);
    });
    ASSERT_NE(digest, 0u) << "P=" << p;
    baseline[p] = digest;
  }

  std::map<Outcome, int> tally;
  for (const std::uint64_t seed : seeds) {
    for (const int p : ranks) {
      par::RunOptions opts;
      opts.recv_timeout_s = 20.0;
      opts.barrier_timeout_s = 20.0;
      opts.inject.seed = seed;
      opts.inject.kill_rank_stride = 2;
      opts.inject.kill_after_ops = 60;
      opts.inject.corrupt_msg_stride = 48;
      opts.inject.disk_fault_stride = 3;
      opts.arq.enabled = false;
      resil::SupervisorOptions sopt;
      sopt.max_retries = 4;
      sopt.backoff.initial_s = 0.0;
      const std::string dir =
          test_dir("adapt_fault_p" + std::to_string(p) + "_s" + std::to_string(seed));
      std::uint64_t digest = 0;
      std::string diag;
      Outcome o = Outcome::aborted;
      try {
        const auto stats = resil::supervise(
            p, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
              adapt_fault_body(c, ctx, conn, cid, dir, &digest);
            });
        EXPECT_EQ(digest, baseline[p]) << "SILENT WRONG MESH: P=" << p << " seed=" << seed
                                       << " " << stats.summary();
        diag = stats.summary();
        o = stats.failures == 0 ? Outcome::success : Outcome::recovered;
      } catch (const par::RankFailure& e) {
        diag = e.what();
      } catch (const par::TimeoutError& e) {
        diag = e.what();
      } catch (const par::CorruptMessage& e) {
        diag = e.what();
      } catch (const resil::CheckpointCorrupt& e) {
        diag = e.what();
      } catch (const par::check::CheckError& e) {
        EXPECT_EQ(e.kind(), par::check::Violation::deadlock)
            << "P=" << p << " seed=" << seed << ": " << e.what();
        diag = e.what();
      }
      EXPECT_FALSE(diag.empty());
      ++tally[o];
      if (::testing::Test::HasFailure()) {
        FAIL() << "adapt_under_fault stopped at P=" << p << " seed=" << seed
               << " outcome=" << outcome_name(o) << "\n  " << diag;
      }
    }
  }
  // Faults must actually fire and at least one run must restart through the
  // delta chain and still land on the baseline digest.
  EXPECT_GT(tally[Outcome::recovered], 0) << "no run ever recovered through the delta chain";
  EXPECT_GT(tally[Outcome::success] + tally[Outcome::recovered], tally[Outcome::aborted]);
  std::printf("adapt_under_fault: success=%d recovered=%d aborted=%d\n",
              tally[Outcome::success], tally[Outcome::recovered], tally[Outcome::aborted]);
}

// --- Recovery-ladder policy matrix ------------------------------------------
//
// The campaign above pins every fault to the supervisor (ARQ off). This
// matrix arms the WHOLE ladder — link-level retransmission, heartbeat
// detection, and a per-cell rank-failure repair policy — and sweeps
// policy x fault class x world size, asserting that every cell terminates
// with the P-invariant baseline digest and zero aborts, and that each
// ladder layer actually healed something somewhere in the matrix.

namespace {

/// P-invariant supervised workload (u64 state advanced from global
/// quantities only): each rank sums a hash over its local octants,
/// circulates partials around the ring (blocking variant cross-checks the
/// circulated total against the allreduce exactly), and folds the global
/// sum into the state. Checkpointed every step, restored elastically — the
/// final digest is independent of the world size, so a run repaired by
/// shrinking must still match the fault-free baseline bit for bit.
std::uint64_t u64_body(par::Comm& c, resil::RecoveryContext& ctx, const Connectivity<2>& conn,
                       std::uint64_t cid, const std::string& ring_dir, bool async_steps) {
  resil::CheckpointRing ring(ring_dir, 2);
  auto f = make_forest(c, conn);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  int k0 = 0;
  if (resil::ring_probe(c, ring)) {
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    EXPECT_EQ(r.forest.checksum(), f.checksum()) << "static mesh, any partition";
    const std::uint64_t lo = static_cast<std::uint64_t>(r.fields.at(0).data.at(0));
    const std::uint64_t hi = static_cast<std::uint64_t>(r.fields.at(0).data.at(1));
    state = (hi << 32) | lo;
  }
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  for (int k = k0; k < n_steps; ++k) {
    std::uint64_t local = 0;
    f.for_each_local([&](int t, const Octant<2>& o) {
      local += par::detail::mix64(state ^ (static_cast<std::uint64_t>(t) << 48) ^
                                  (static_cast<std::uint64_t>(o.x) << 28) ^
                                  (static_cast<std::uint64_t>(o.y) << 8) ^
                                  static_cast<std::uint64_t>(o.level));
    });
    std::uint64_t glob = 0;
    if (async_steps) {
      // Nonblocking variant: the p2p hop is pure (CRC-protected, ARQ-healed)
      // traffic kept in flight across the blocking allreduce, so faults
      // strike with requests pending; only the allreduce result —
      // P-invariant — feeds the state.
      par::Request rr = c.irecv(prev, /*tag=*/13);
      par::Request rs = c.isend(next, 13, std::vector<std::uint64_t>{local});
      glob = c.allreduce(local, par::ReduceOp::sum);
      rr.wait();
      (void)rr.message().view<std::uint64_t>()[0];
      rs.wait();
    } else {
      std::uint64_t acc = local, pass = local;
      for (int h = 0; h < c.size() - 1; ++h) {
        c.send_value(next, 13, pass);
        pass = c.recv(prev, 13).value<std::uint64_t>();
        acc += pass;
      }
      glob = c.allreduce(local, par::ReduceOp::sum);
      EXPECT_EQ(acc, glob);  // ring circulation and allreduce agree exactly
    }
    state = par::detail::mix64(state ^ glob ^ static_cast<std::uint64_t>(k));
    resil::NamedField fld{"state", 2, {}};
    f.for_each_local([&](int, const Octant<2>&) {
      fld.data.push_back(static_cast<double>(state & 0xffffffffULL));
      fld.data.push_back(static_cast<double>(state >> 32));
    });
    resil::write_checkpoint_ring(f, cid, static_cast<std::uint64_t>(k), {fld}, ring);
    if (c.rank() == 0) ctx.note_step();
  }
  return par::detail::mix64(state) ^ f.checksum();
}

/// Silent rank death: the victim simply stops responding (no self-thrown
/// RankFailure) and only the heartbeat detector can name it.
const FaultClass silent_death{"silent_death",
                              [](par::InjectConfig& i) {
                                i.kill_rank_stride = 2;
                                i.kill_after_ops = 25;
                                i.kill_silent = true;
                              },
                              /*async_steps=*/false,
                              /*heartbeat_s=*/0.5};

/// One policy-matrix cell: full ladder armed (ARQ on by default, heartbeat
/// per class, repair policy per mode), spares=1 so `spare` exercises its
/// fallback when a second failure lands.
Outcome ladder_run(int p, resil::RecoveryMode mode, const FaultClass& fc, std::uint64_t seed,
                   const Connectivity<2>& conn, std::uint64_t cid, std::uint64_t baseline,
                   resil::RecoveryStats* stats_out, std::string* diag) {
  par::RunOptions opts;
  opts.recv_timeout_s = 20.0;
  opts.barrier_timeout_s = 20.0;
  opts.heartbeat_timeout_s = fc.heartbeat_s;
  opts.inject.seed = seed;
  fc.arm(opts.inject);

  resil::SupervisorOptions sopt;
  sopt.max_retries = 10;  // worst case every rank of a shrinking world dies
  sopt.backoff.initial_s = 0.0;
  sopt.policy.on_rank_failure = mode;
  sopt.policy.spares = 1;
  sopt.policy.min_ranks = 1;

  const std::string dir = test_dir(std::string("ladder_") + resil::recovery_mode_name(mode) +
                                   "_" + fc.name + "_p" + std::to_string(p));
  std::uint64_t digest = 0;
  try {
    const auto stats = resil::supervise(
        p, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
          const auto d = u64_body(c, ctx, conn, cid, dir, fc.async_steps);
          if (c.rank() == 0) digest = d;
        });
    EXPECT_EQ(digest, baseline) << "SILENT WRONG ANSWER: mode=" << recovery_mode_name(mode)
                                << " class=" << fc.name << " P=" << p << " "
                                << stats.summary();
    *stats_out = stats;
    *diag = stats.summary();
    return stats.failures == 0 ? Outcome::success : Outcome::recovered;
  } catch (const par::RankFailure& e) {
    *diag = e.what();
  } catch (const par::TimeoutError& e) {
    *diag = e.what();
  } catch (const par::CorruptMessage& e) {
    *diag = e.what();
  } catch (const resil::CheckpointCorrupt& e) {
    *diag = e.what();
  } catch (const par::check::CheckError& e) {
    EXPECT_EQ(e.kind(), par::check::Violation::deadlock)
        << "mode=" << recovery_mode_name(mode) << " class=" << fc.name << " P=" << p << ": "
        << e.what();
    *diag = e.what();
  }
  EXPECT_FALSE(diag->empty());
  return Outcome::aborted;
}

}  // namespace

// 3 repair policies x 7 fault classes x P in {2, 4, 8}: every cell must
// terminate bit-identically to the (single, cross-P) baseline with zero
// aborts, and every ladder layer must have healed at least one fault
// somewhere in the matrix.
TEST(Chaos, PolicyMatrixHealsEveryClassAtTheCheapestLayer) {
  const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
  const std::uint64_t cid = resil::connectivity_id(conn);
  const int ranks[] = {2, 4, 8};
  constexpr std::uint64_t seed = 909;

  // One fault-free baseline; the workload digest must be P-invariant (that
  // is the property in-place shrink repairs rely on).
  std::uint64_t baseline = 0;
  for (const int p : ranks) {
    std::uint64_t digest = 0;
    const std::string dir = test_dir("ladder_baseline_p" + std::to_string(p));
    par::run(p, [&](par::Comm& c) {
      resil::RecoveryContext ctx(0);
      const auto d = u64_body(c, ctx, conn, cid, dir, /*async_steps=*/false);
      if (c.rank() == 0) digest = d;
    });
    ASSERT_NE(digest, 0u) << "P=" << p;
    if (baseline == 0) {
      baseline = digest;
    } else {
      ASSERT_EQ(digest, baseline) << "u64 workload digest must be P-invariant (P=" << p << ")";
    }
  }

  std::vector<FaultClass> classes(std::begin(fault_classes), std::end(fault_classes));
  classes.push_back(silent_death);
  const resil::RecoveryMode modes[] = {resil::RecoveryMode::full_restart,
                                       resil::RecoveryMode::shrink, resil::RecoveryMode::spare};

  // Per-layer heal totals across the matrix.
  std::int64_t link = 0;
  int spare = 0, shrink = 0, restart = 0, aborted = 0, cells = 0;
  double detect_s = 0.0;
  for (const auto mode : modes) {
    for (const auto& fc : classes) {
      for (const int p : ranks) {
        resil::RecoveryStats stats;
        std::string diag;
        const Outcome o = ladder_run(p, mode, fc, seed, conn, cid, baseline, &stats, &diag);
        ++cells;
        if (o == Outcome::aborted) ++aborted;
        link += stats.healed_link;
        spare += stats.healed_spare;
        shrink += stats.healed_shrink;
        restart += stats.healed_restart;
        detect_s += stats.detect_s;
        if (o != Outcome::aborted && stats.healed_shrink > 0) {
          // A shrunk world must still have produced the cross-P baseline.
          EXPECT_EQ(stats.ranks_final, p - stats.healed_shrink)
              << "mode=" << recovery_mode_name(mode) << " class=" << fc.name << " P=" << p;
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "matrix stopped at mode=" << recovery_mode_name(mode)
                 << " class=" << fc.name << " P=" << p << " outcome=" << outcome_name(o)
                 << "\n  " << diag;
        }
      }
    }
  }
  EXPECT_EQ(cells, 63);
  EXPECT_EQ(aborted, 0) << "the full ladder must heal every injected fault class";
  // Each ladder layer healed somewhere: ARQ retransmission (corrupt classes
  // never reach the supervisor), spare substitution, in-place shrink, and
  // the classic full restart; the heartbeat detector accumulated silent
  // time naming the silent_death victims.
  EXPECT_GT(link, 0) << "no corruption was healed at the link layer";
  EXPECT_GT(spare, 0) << "no rank failure was healed by a spare";
  EXPECT_GT(shrink, 0) << "no rank failure was healed by shrinking";
  EXPECT_GT(restart, 0) << "no fault was healed by a full restart";
  EXPECT_GT(detect_s, 0.0) << "the heartbeat detector never named a silent death";
  std::printf("policy matrix: %d cells, heals: link=%lld spare=%d shrink=%d restart=%d "
              "detect_s=%.3f\n",
              cells, static_cast<long long>(link), spare, shrink, restart, detect_s);
}
