// Tests for the SPMD message-passing runtime (src/par).
#include "par/comm.h"

#include <gtest/gtest.h>

#include <mutex>
#include <numeric>
#include <string>

namespace par = esamr::par;

class ParRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParRanks, AllgatherOrdersByRank) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    const auto got = c.allgather(c.rank() * 10 + 1);
    ASSERT_EQ(static_cast<int>(got.size()), p);
    for (int r = 0; r < p; ++r) EXPECT_EQ(got[static_cast<std::size_t>(r)], r * 10 + 1);
  });
}

TEST_P(ParRanks, AllgathervVariableLengths) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    std::vector<int> mine(static_cast<std::size_t>(c.rank() + 1), c.rank());
    const auto got = c.allgatherv(mine);
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), static_cast<std::size_t>(r + 1));
      for (const int v : got[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(ParRanks, AllreduceOps) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    EXPECT_EQ(c.allreduce(c.rank() + 1, par::ReduceOp::sum), p * (p + 1) / 2);
    EXPECT_EQ(c.allreduce(c.rank(), par::ReduceOp::max), p - 1);
    EXPECT_EQ(c.allreduce(c.rank(), par::ReduceOp::min), 0);
    EXPECT_EQ(c.allreduce(static_cast<int>(c.rank() == p - 1), par::ReduceOp::logical_or), 1);
    EXPECT_EQ(c.allreduce(static_cast<int>(c.rank() == p - 1), par::ReduceOp::logical_and),
              p == 1 ? 1 : 0);
  });
}

TEST_P(ParRanks, ExscanSum) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    const auto pre = c.exscan_sum(c.rank() + 1);
    int expect = 0;
    for (int r = 0; r < c.rank(); ++r) expect += r + 1;
    EXPECT_EQ(pre, expect);
  });
}

TEST_P(ParRanks, BcastFromEveryRoot) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    for (int root = 0; root < p; ++root) {
      EXPECT_EQ(c.bcast(c.rank() * 7, root), root * 7);
    }
  });
}

TEST_P(ParRanks, AlltoallvPersonalized) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d + 1),
                                               c.rank() * 100 + d);
    }
    const auto got = c.alltoallv(send);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), static_cast<std::size_t>(c.rank() + 1));
      for (const int v : got[static_cast<std::size_t>(s)]) EXPECT_EQ(v, s * 100 + c.rank());
    }
  });
}

TEST_P(ParRanks, PointToPointRing) {
  const int p = GetParam();
  par::run(p, [&](par::Comm& c) {
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    c.send_value(next, 42, c.rank());
    const auto msg = c.recv(prev, 42);
    EXPECT_EQ(msg.value<int>(), prev);
    EXPECT_EQ(msg.source, prev);
  });
}

TEST_P(ParRanks, RecvMatchesByTag) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  par::run(p, [&](par::Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 7, 700);
      c.send_value(1, 8, 800);
    }
    if (c.rank() == 1) {
      // Receive out of send order by tag.
      EXPECT_EQ(c.recv(0, 8).value<int>(), 800);
      EXPECT_EQ(c.recv(0, 7).value<int>(), 700);
    }
    c.barrier();
  });
}

TEST_P(ParRanks, RunCollectReturnsPerRank) {
  const int p = GetParam();
  const auto res = par::run_collect<int>(p, [](par::Comm& c) { return c.rank() * c.rank(); });
  for (int r = 0; r < p; ++r) EXPECT_EQ(res[static_cast<std::size_t>(r)], r * r);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParRanks, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(Par, RankExceptionPropagates) {
  EXPECT_THROW(par::run(3,
                        [](par::Comm& c) {
                          c.barrier();
                          if (c.rank() == 1) throw std::runtime_error("boom");
                          c.barrier();  // peers unwind via poisoning
                        }),
               std::runtime_error);
}

TEST(Par, ThreadCpuClockAdvances) {
  const double t0 = par::thread_cpu_seconds();
  volatile double x = 0.0;
  for (int i = 0; i < 2000000; ++i) x = x + 1e-9;
  EXPECT_GT(par::thread_cpu_seconds(), t0);
}

// --- Link-level ARQ (graded recovery ladder, cheapest rung) -----------------

namespace {

/// Sum a per-rank CommStats counter across all ranks of a finished run.
struct ArqTally {
  long long healed = 0, escalated = 0, retransmits = 0, detected = 0;
};

}  // namespace

// Seeded in-flight corruption with ARQ on: every corrupt delivery is repaired
// from the message's clean payload (the healed bytes match the original
// exactly), nothing escalates, and each rank that healed also clocked the
// detect-to-heal latency.
TEST(Arq, HealsInFlightCorruptionAtTheLinkLayer) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 8;
  par::CommSum sum;
  par::run(4, opts, [&](par::Comm& c) {
    const par::CommSum::Tally tally(sum, c.stats());
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < 32; ++i) {
      c.send_value(next, 5, prev * 1000 + i);
      const auto m = c.recv(prev, 5);
      // A healed payload is the sender's original, bit for bit.
      EXPECT_EQ(m.value<int>(), ((prev + 3) % 4) * 1000 + i);
    }
    EXPECT_EQ(c.stats().arq_healed > 0, c.stats().arq_heal_s > 0.0) << "rank " << c.rank();
  });
  const par::CommStats t = sum.total();
  EXPECT_GT(t.arq_healed, 0) << "seed 99 / stride 8 must corrupt some messages";
  EXPECT_EQ(t.arq_escalations, 0);
  EXPECT_GE(t.retransmits, t.arq_healed);
  EXPECT_GE(t.corrupt_detected, t.arq_healed);
  EXPECT_GT(t.arq_heal_s, 0.0);
}

// A healed delivery is as zero-copy as a clean one: the only payload copies
// are the injected corrupt clones (one per corrupt delivery, retransmission
// redraws included), and once the message has healed it holds the sender's
// storage alone, so every take_bytes moves it out without copying.
TEST(Arq, HealedDeliveryStaysZeroCopy) {
  constexpr int kRanks = 4;
  constexpr int iters = 16;
  constexpr std::size_t n = 256;
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 4;
  par::CommSum sum;
  par::buffer_stats_reset();
  par::run(kRanks, opts, [&](par::Comm& c) {
    const par::CommSum::Tally tally(sum, c.stats());
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int it = 0; it < iters; ++it) {
      std::vector<std::byte> buf(n);
      for (std::size_t j = 0; j < n; ++j) {
        buf[j] = static_cast<std::byte>(c.rank() + static_cast<int>(j) + it);
      }
      par::Request rr = c.irecv(prev, 42);
      par::Request rs = c.isend(next, 42, std::move(buf));  // storage adopted
      rr.wait();
      rs.wait();
      // After the barrier every sender has released its reference.
      c.barrier();
      const auto bytes = rr.message().take_bytes();
      ASSERT_EQ(bytes.size(), n);
      EXPECT_EQ(bytes[1], static_cast<std::byte>(prev + 1 + it));
    }
  });
  const par::CommStats t = sum.total();
  const par::BufferStats bs = par::buffer_stats();
  EXPECT_GT(t.arq_healed, 0) << "seed 99 / stride 4 must corrupt some messages";
  EXPECT_EQ(t.arq_escalations, 0);
  EXPECT_EQ(bs.copies, t.corrupt_detected);
  EXPECT_EQ(bs.zero_copy_takes, kRanks * iters);
}

// ARQ heals are deterministic: the same seed replays the same retransmission
// counts (the backoff draws and the retransmit-stream redraws are all pure
// functions of the seed).
TEST(Arq, HealsAreSeededDeterministic) {
  const auto run_once = [] {
    par::RunOptions opts;
    opts.inject.seed = 1234;
    opts.inject.corrupt_msg_stride = 4;
    ArqTally t;
    std::mutex m;
    par::run(3, opts, [&](par::Comm& c) {
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      for (int i = 0; i < 16; ++i) {
        c.send_value(next, 9, i);
        EXPECT_EQ(c.recv(prev, 9).value<int>(), i);
      }
      std::lock_guard<std::mutex> lock(m);
      t.healed += c.stats().arq_healed;
      t.retransmits += c.stats().retransmits;
    });
    return t;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  EXPECT_GT(t1.healed, 0);
  EXPECT_EQ(t1.healed, t2.healed);
  EXPECT_EQ(t1.retransmits, t2.retransmits);
}

// Persistent corruption (stride 1 corrupts every delivery AND every
// retransmission redraw) exhausts the bounded budget and escalates to
// CorruptMessage — the supervisor rung — with a diagnostic naming the spent
// retransmissions.
TEST(Arq, PersistentCorruptionExhaustsBudgetAndEscalates) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 1;
  try {
    par::run(2, opts, [](par::Comm& c) {
      c.send_value(1 - c.rank(), 1, c.rank());
      (void)c.recv(1 - c.rank(), 1);
    });
    FAIL() << "expected CorruptMessage";
  } catch (const par::CorruptMessage& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("retransmission"), std::string::npos) << msg;
    EXPECT_NE(msg.find("escalating"), std::string::npos) << msg;
  }
}

// With ARQ off the first CRC failure escalates immediately — the pre-ARQ
// contract, which the supervisor-layer tests rely on.
TEST(Arq, DisabledEscalatesOnFirstFailure) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 1;
  opts.arq.enabled = false;
  try {
    par::run(2, opts, [](par::Comm& c) {
      c.send_value(1 - c.rank(), 1, c.rank());
      (void)c.recv(1 - c.rank(), 1);
    });
    FAIL() << "expected CorruptMessage";
  } catch (const par::CorruptMessage& e) {
    EXPECT_EQ(std::string(e.what()).find("retransmission"), std::string::npos) << e.what();
  }
}

// A zero-retransmit budget behaves like ARQ off (escalate at once), but still
// counts the escalation on the ARQ ledger. par::run throws, so each rank's
// counters are tallied as its body unwinds.
TEST(Arq, ZeroBudgetEscalatesAndCounts) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 1;
  opts.arq.max_retransmits = 0;
  par::CommSum sum;
  EXPECT_THROW(par::run(2, opts,
                        [&](par::Comm& c) {
                          const par::CommSum::Tally tally(sum, c.stats());
                          c.send_value(1 - c.rank(), 1, c.rank());
                          (void)c.recv(1 - c.rank(), 1);
                        }),
               par::CorruptMessage);
  const par::CommStats t = sum.total();
  EXPECT_GE(t.arq_escalations, 1);
  EXPECT_EQ(t.retransmits, 0);
}

// --- Heartbeat failure detection --------------------------------------------

namespace {

/// First seed for which exactly one of `nranks` ranks is a kill victim
/// (duplicated from test_resil to keep this binary self-contained).
std::uint64_t single_victim_seed(int nranks, int stride, int* victim) {
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    par::InjectConfig cfg;
    cfg.seed = seed;
    cfg.kill_rank_stride = stride;
    cfg.kill_after_ops = 1;
    int count = 0, v = -1;
    for (int r = 0; r < nranks; ++r) {
      if (par::detail::is_kill_rank(cfg, r)) {
        ++count;
        v = r;
      }
    }
    if (count == 1) {
      *victim = v;
      return seed;
    }
  }
  ADD_FAILURE() << "no single-victim kill seed found";
  return 0;
}

}  // namespace

// A silent rank death (no exception, no poisoning) is converted into a named
// RankFailure by a peer's heartbeat check within a bounded window: the
// verdict names the dead rank, the detecting rank, the silent duration, and
// the detector's blocked wait.
TEST(Heartbeat, NamesSilentRankDeathWithinTheWindow) {
  constexpr int P = 4;
  int victim = -1;
  const std::uint64_t seed = single_victim_seed(P, P, &victim);
  par::RunOptions opts;
  opts.heartbeat_timeout_s = 0.4;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = P;
  opts.inject.kill_after_ops = 10;
  opts.inject.kill_silent = true;
  const double t0 = par::wall_seconds();
  try {
    par::run(P, opts, [](par::Comm& c) {
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      for (int i = 0; i < 50; ++i) {
        c.send_value(next, 3, i);
        (void)c.recv(prev, 3);
      }
    });
    FAIL() << "expected a heartbeat-detected RankFailure";
  } catch (const par::RankFailure& e) {
    EXPECT_EQ(e.rank(), victim);
    EXPECT_GE(e.detector(), 0);
    EXPECT_NE(e.detector(), victim);
    EXPECT_GE(e.silent_s(), opts.heartbeat_timeout_s);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("silent for"), std::string::npos) << msg;
    EXPECT_NE(msg.find("detected by rank"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked in"), std::string::npos) << msg;
  }
  // Bounded detection: well under the 20 s a recv timeout would have taken.
  EXPECT_LT(par::wall_seconds() - t0, 10.0);
}

// A healthy world with the heartbeat armed runs to completion — sliced waits
// and liveness scans must not produce false positives while ranks make
// progress (including across barriers).
TEST(Heartbeat, QuietOnAHealthyWorld) {
  par::RunOptions opts;
  opts.heartbeat_timeout_s = 0.3;
  par::run(4, opts, [](par::Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < 20; ++i) {
      c.send_value(next, 4, i);
      EXPECT_EQ(c.recv(prev, 4).value<int>(), i);
      if (i % 5 == 0) c.barrier();
    }
    EXPECT_EQ(c.allreduce(1, par::ReduceOp::sum), c.size());
  });
}

// Ranks that finish early are marked done and must not be declared dead: a
// rank blocked past the heartbeat window while every peer has returned gets
// the plain recv timeout, not a (false) RankFailure verdict.
TEST(Heartbeat, FinishedRanksAreNotDeclaredDead) {
  par::RunOptions opts;
  opts.heartbeat_timeout_s = 0.2;
  opts.recv_timeout_s = 0.6;
  try {
    par::run(3, opts, [](par::Comm& c) {
      if (c.rank() == 0) (void)c.recv(par::any_source, 77);  // nobody will send
      // Ranks 1 and 2 return immediately and are marked done.
    });
    FAIL() << "expected TimeoutError";
  } catch (const par::TimeoutError&) {
    // Correct: the finished peers were never declared dead.
  } catch (const par::RankFailure& e) {
    FAIL() << "finished rank declared dead: " << e.what();
  }
}

// Arming a silent kill with no detector would turn a dead rank into an
// undiagnosable hang; par::run refuses the configuration up front.
TEST(Heartbeat, SilentKillWithoutDetectorIsRejected) {
  par::RunOptions opts;
  opts.inject.seed = 7;
  opts.inject.kill_rank_stride = 1;
  opts.inject.kill_after_ops = 5;
  opts.inject.kill_silent = true;
  EXPECT_THROW(par::run(2, opts, [](par::Comm&) {}), par::check::AssertError);
}
