// Differential + concurrency battery for the async point-to-point runtime.
//
// Every nonblocking operation (isend / irecv) is proven equivalent to its
// blocking twin on identical seeded payloads: bit-identical results AND
// identical CommStats byte counts (an isend is a p2p_send, an irecv
// completion a p2p_recv). The concurrency half stresses seeded random
// completion interleavings — out-of-order waits, test() polling,
// drops-then-wait_all — and the checker's buffer-ownership-transfer
// diagnosis: a write into an in-flight isend buffer is a race naming the
// rank and both sites, while the disciplined write-after-wait twin stays
// silent.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "par/comm.h"

namespace par = esamr::par;
namespace check = esamr::par::check;

namespace {

/// Deterministic payload for scheduled message `i` under `seed`.
std::vector<int> payload_of(int i, std::uint64_t seed, std::size_t len) {
  std::vector<int> v(len);
  for (std::size_t j = 0; j < len; ++j) {
    v[j] = static_cast<int>(i * 1000003u + j * 97u + seed * 31u);
  }
  return v;
}

void expect_same_p2p(const par::CommStats& a, const par::CommStats& b) {
  EXPECT_EQ(a.p2p_sends, b.p2p_sends);
  EXPECT_EQ(a.p2p_send_bytes, b.p2p_send_bytes);
  EXPECT_EQ(a.p2p_recvs, b.p2p_recvs);
  EXPECT_EQ(a.p2p_recv_bytes, b.p2p_recv_bytes);
}

/// Ring exchange: every rank sends seeded payloads to both neighbors and
/// returns what it received (next's payload, then prev's), plus rank 0
/// stores the world's summed counters.
struct RingResult {
  std::vector<std::vector<int>> got;  ///< per rank: [from_next, from_prev]
  par::CommStats total;
};

RingResult run_ring(int p, const par::RunOptions& opts, std::uint64_t seed, bool async) {
  RingResult out;
  out.got.resize(static_cast<std::size_t>(p));
  par::run(p, opts, [&](par::Comm& c) {
    const int me = c.rank();
    const int next = (me + 1) % p, prev = (me + p - 1) % p;
    auto to_next = payload_of(me * 2, seed, 16 + static_cast<std::size_t>(me));
    auto to_prev = payload_of(me * 2 + 1, seed, 8 + static_cast<std::size_t>(me));
    std::vector<std::vector<int>> got;
    if (async) {
      par::Request r0 = c.irecv(prev, 100);
      par::Request r1 = c.irecv(next, 101);
      par::Request s0 = c.isend(next, 100, std::move(to_next));
      par::Request s1 = c.isend(prev, 101, std::move(to_prev));
      // Deliberately complete out of post order.
      r1.wait();
      r0.wait();
      got.push_back(r0.message().as<int>());
      got.push_back(r1.message().as<int>());
      s1.wait();
      s0.wait();
    } else {
      c.send(next, 100, std::move(to_next));
      c.send(prev, 101, std::move(to_prev));
      got.push_back(c.recv(prev, 100).as<int>());
      got.push_back(c.recv(next, 101).as<int>());
    }
    // got[0] came from prev's to_next stream, got[1] from next's to_prev.
    std::vector<int> flat;
    for (auto& g : got) flat.insert(flat.end(), g.begin(), g.end());
    out.got[static_cast<std::size_t>(me)] = std::move(flat);
    const auto snap = c.stats_snapshot();
    if (me == 0) out.total = snap.total;
  });
  return out;
}

}  // namespace

class AsyncRanks : public ::testing::TestWithParam<int> {};

// --- Differential: async twin == blocking twin, bytes and bits --------------

TEST_P(AsyncRanks, IsendIrecvMatchesBlockingBitIdentical) {
  const int p = GetParam();
  const auto blocking = run_ring(p, par::RunOptions{}, 7, /*async=*/false);
  const auto async = run_ring(p, par::RunOptions{}, 7, /*async=*/true);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking.got[static_cast<std::size_t>(r)], async.got[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  expect_same_p2p(blocking.total, async.total);
  EXPECT_EQ(async.total.isends, 2 * p);
  EXPECT_EQ(async.total.irecvs, 2 * p);
  EXPECT_EQ(blocking.total.isends, 0);
}

TEST_P(AsyncRanks, DelayInjectionKeepsAsyncBitIdentical) {
  const int p = GetParam();
  par::RunOptions opts;
  opts.inject.seed = 42;
  opts.inject.max_delay_us = 200.0;
  const auto blocking = run_ring(p, opts, 11, /*async=*/false);
  const auto async = run_ring(p, opts, 11, /*async=*/true);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking.got[static_cast<std::size_t>(r)], async.got[static_cast<std::size_t>(r)]);
  }
  expect_same_p2p(blocking.total, async.total);
}

// --- Concurrency stress: seeded random interleavings ------------------------

TEST_P(AsyncRanks, SeededInterleavingsDeliverEveryPayload) {
  const int p = GetParam();
  constexpr int n_msgs = 24;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    par::run(p, [&](par::Comm& c) {
      const int me = c.rank();
      // Identical schedule on every rank (same seed): message i goes
      // src -> dst on its own tag, so matching is unambiguous.
      std::mt19937_64 rng(seed);
      struct Sched {
        int src, dst;
        std::size_t len;
      };
      std::vector<Sched> sched(n_msgs);
      for (int i = 0; i < n_msgs; ++i) {
        sched[static_cast<std::size_t>(i)] = {static_cast<int>(rng() % p),
                                              static_cast<int>(rng() % p),
                                              static_cast<std::size_t>(rng() % 48)};
      }
      // Post ALL receives, then ALL sends, then complete in a per-rank
      // seeded random order mixing wait() and test() polling.
      std::vector<par::Request> reqs;
      std::vector<int> recv_sched_idx;  // schedule index per recv request
      for (int i = 0; i < n_msgs; ++i) {
        if (sched[static_cast<std::size_t>(i)].dst == me) {
          reqs.push_back(c.irecv(sched[static_cast<std::size_t>(i)].src, 1000 + i));
          recv_sched_idx.push_back(i);
        }
      }
      const std::size_t n_recvs = reqs.size();
      for (int i = 0; i < n_msgs; ++i) {
        if (sched[static_cast<std::size_t>(i)].src == me) {
          reqs.push_back(c.isend(sched[static_cast<std::size_t>(i)].dst, 1000 + i,
                                 payload_of(i, seed, sched[static_cast<std::size_t>(i)].len)));
        }
      }
      std::vector<std::size_t> order(reqs.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::mt19937_64 rng2(seed * 1315423911ULL + static_cast<std::uint64_t>(me));
      std::shuffle(order.begin(), order.end(), rng2);
      for (const std::size_t k : order) {
        if (rng2() % 2 == 0) {
          // test() polling path: every send is already posted world-wide
          // before any rank blocks, so polling terminates.
          int spins = 0;
          while (!reqs[k].test()) {
            if (++spins > 20000) {
              reqs[k].wait();
              break;
            }
            std::this_thread::yield();
          }
        } else {
          reqs[k].wait();
        }
        if (k < n_recvs) {
          const int i = recv_sched_idx[k];
          EXPECT_EQ(reqs[k].message().as<int>(),
                    payload_of(i, seed, sched[static_cast<std::size_t>(i)].len))
              << "seed " << seed << " msg " << i;
        }
      }
    });
  }
}

TEST_P(AsyncRanks, DroppedRequestsDrainWithoutLosingMessages) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "needs a peer";
  par::run(p, [&](par::Comm& c) {
    const int me = c.rank();
    const int next = (me + 1) % p, prev = (me + p - 1) % p;
    {
      // An isend dropped before any progress call still delivers (the
      // message was posted); the drain only abandons the payload reference.
      par::Request s = c.isend(next, 5, payload_of(me, 1, 12));
      // An irecv on a tag nobody sends is dropped unconsumed.
      par::Request never = c.irecv(prev, 999);
      // Both go out of scope incomplete -> drained.
    }
    EXPECT_EQ(c.stats().requests_drained, 2);
    EXPECT_EQ(c.recv(prev, 5).as<int>(), payload_of(prev, 1, 12));
    // drops-then-wait_all: the drained requests must not disturb a
    // subsequent batch on the same pairs.
    std::vector<par::Request> batch;
    batch.push_back(c.irecv(prev, 6));
    batch.push_back(c.isend(next, 6, payload_of(me + 100, 1, 4)));
    par::wait_all(batch);
    EXPECT_EQ(batch[0].message().as<int>(), payload_of(prev + 100, 1, 4));
  });
}

// --- Checker: buffer-ownership transfer -------------------------------------

TEST(AsyncCheck, WriteIntoInflightSendBufferIsDiagnosed) {
  par::RunOptions opts;
  opts.check = 1;
  opts.recv_timeout_s = 20.0;
  opts.barrier_timeout_s = 20.0;
  bool fired = false;
  try {
    par::run(2, opts, [&](par::Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> buf = payload_of(0, 2, 32);
        const void* storage = buf.data();
        par::Request s = c.isend(1, 7, std::move(buf));
        // The storage now belongs to the runtime: an annotated write into it
        // before completion is a race, even from the posting rank.
        check::note_access(c, storage, 32 * sizeof(int), /*write=*/true);
        s.wait();
      } else {
        (void)c.recv(0, 7);
      }
    });
  } catch (const check::CheckError& e) {
    fired = true;
    EXPECT_EQ(e.kind(), check::Violation::race);
    EXPECT_NE(std::string(e.what()).find("in-flight"), std::string::npos) << e.what();
    ASSERT_FALSE(e.ranks().empty());
    EXPECT_EQ(e.ranks()[0], 0);
  }
  EXPECT_TRUE(fired) << "checker did not flag the in-flight write";
}

TEST(AsyncCheck, WriteAfterWaitIsClean) {
  par::RunOptions opts;
  opts.check = 1;
  opts.recv_timeout_s = 20.0;
  opts.barrier_timeout_s = 20.0;
  // The disciplined twin: identical write, but after completion returned
  // ownership. Must not throw.
  par::run(2, opts, [&](par::Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> buf = payload_of(0, 2, 32);
      const void* storage = buf.data();
      par::Request s = c.isend(1, 7, std::move(buf));
      s.wait();
      check::note_access(c, storage, 32 * sizeof(int), /*write=*/true);
    } else {
      (void)c.recv(0, 7);
    }
  });
}

TEST(AsyncCheck, ReadOfInflightBufferIsAllowed) {
  par::RunOptions opts;
  opts.check = 1;
  opts.recv_timeout_s = 20.0;
  opts.barrier_timeout_s = 20.0;
  // The payload is immutable while in flight; reads (e.g. a receiver's
  // in-place view, or the sender re-reading) are legal.
  par::run(2, opts, [&](par::Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> buf = payload_of(0, 2, 32);
      const void* storage = buf.data();
      par::Request s = c.isend(1, 7, std::move(buf));
      check::note_access(c, storage, 32 * sizeof(int), /*write=*/false);
      s.wait();
    } else {
      (void)c.recv(0, 7);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AsyncRanks, ::testing::Values(1, 2, 4, 7, 16));
