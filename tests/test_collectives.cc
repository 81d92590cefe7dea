// Differential tests for the Comm v2 collectives: every collective runs with
// randomized seeded per-rank payloads, and each rank's result must equal the
// value a plain serial loop computes from the same per-rank inputs, with no
// Comm involved. Payload values are chosen exactly representable (integers,
// integer-valued doubles) so reductions are associativity-independent and
// the comparison can be exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "par/comm.h"

namespace par = esamr::par;

namespace {

par::RunOptions test_opts() {
  par::RunOptions o;
  // A generous safety net: a bug in a collective algorithm surfaces as a
  // diagnostic instead of a hung test binary.
  o.recv_timeout_s = 60.0;
  o.barrier_timeout_s = 60.0;
  return o;
}

/// Seeded per-rank RNG, so the ranks and the serial oracle draw identical
/// payloads.
std::mt19937_64 rank_rng(int rank, std::uint64_t salt) {
  return std::mt19937_64(0x9e3779b9ULL * static_cast<std::uint64_t>(rank + 1) + salt);
}

/// Run `fn` on p ranks and require rank r's result to equal `expected(r)`,
/// the serial oracle's value.
template <typename R>
void expect_oracle(int p, const par::RunOptions& opts, const std::function<R(par::Comm&)>& fn,
                   const std::function<R(int)>& expected) {
  const auto got = par::run_collect<R>(p, opts, fn);
  ASSERT_EQ(static_cast<int>(got.size()), p);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expected(r))
        << "rank " << r << " of " << p << " disagrees with the serial oracle";
  }
}

template <typename R>
void expect_oracle(int p, const std::function<R(par::Comm&)>& fn,
                   const std::function<R(int)>& expected) {
  expect_oracle<R>(p, test_opts(), fn, expected);
}

class CollRanks : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CollRanks, DiffAllgather) {
  const int p = GetParam();
  const auto input = [](int r) { return static_cast<std::int64_t>(rank_rng(r, 11)()); };
  expect_oracle<std::vector<std::int64_t>>(
      p, [&](par::Comm& c) { return c.allgather(input(c.rank())); },
      [&](int) {
        std::vector<std::int64_t> all;
        for (int s = 0; s < p; ++s) all.push_back(input(s));
        return all;
      });
}

TEST_P(CollRanks, DiffAllgatherv) {
  const int p = GetParam();
  const auto input = [](int r) {
    auto rng = rank_rng(r, 22);
    std::vector<double> mine(rng() % 17);  // includes empty payloads
    for (auto& v : mine) v = static_cast<double>(static_cast<std::int32_t>(rng() % 100000));
    return mine;
  };
  expect_oracle<std::vector<double>>(
      p,
      [&](par::Comm& c) {
        std::vector<double> flat;
        for (const auto& from : c.allgatherv(input(c.rank()))) {
          flat.insert(flat.end(), from.begin(), from.end());
        }
        return flat;
      },
      [&](int) {
        std::vector<double> flat;
        for (int s = 0; s < p; ++s) {
          const auto v = input(s);
          flat.insert(flat.end(), v.begin(), v.end());
        }
        return flat;
      });
}

TEST_P(CollRanks, DiffAllreduce) {
  const int p = GetParam();
  const auto input = [](int r) { return static_cast<std::int64_t>(rank_rng(r, 33)() % 1000003); };
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [&](par::Comm& c) {
        const std::int64_t v = input(c.rank());
        return std::vector<std::int64_t>{
            c.allreduce(v, par::ReduceOp::sum),
            c.allreduce(v, par::ReduceOp::min),
            c.allreduce(v, par::ReduceOp::max),
            c.allreduce(static_cast<std::int64_t>(v % 2), par::ReduceOp::logical_or),
            c.allreduce(static_cast<std::int64_t>(v % 2), par::ReduceOp::logical_and),
        };
      },
      [&](int) {
        std::int64_t sum = 0, lo = input(0), hi = input(0), any = 0, all = 1;
        for (int s = 0; s < p; ++s) {
          const std::int64_t v = input(s);
          sum += v;
          lo = std::min(lo, v);
          hi = std::max(hi, v);
          any = any || v % 2;
          all = all && v % 2;
        }
        return std::vector<std::int64_t>{sum, lo, hi, any, all};
      });
}

TEST_P(CollRanks, DiffAllreduceDoubleExact) {
  const int p = GetParam();
  // Integer-valued doubles: the sum is exact under any association order.
  const auto input = [](int r) {
    return static_cast<double>(static_cast<std::int32_t>(rank_rng(r, 44)() % (1 << 20)));
  };
  expect_oracle<double>(
      p, [&](par::Comm& c) { return c.allreduce(input(c.rank()), par::ReduceOp::sum); },
      [&](int) {
        double sum = 0.0;
        for (int s = 0; s < p; ++s) sum += input(s);
        return sum;
      });
}

TEST_P(CollRanks, DiffReduceEveryRoot) {
  const int p = GetParam();
  const auto input = [](int r) { return static_cast<std::int64_t>(rank_rng(r, 55)() % 999983); };
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [&](par::Comm& c) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) {
          out.push_back(c.reduce(input(c.rank()), par::ReduceOp::sum, root));
        }
        return out;
      },
      [&](int r) {
        // Non-roots get their own value back; the root's entry carries the sum.
        std::int64_t sum = 0;
        for (int s = 0; s < p; ++s) sum += input(s);
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) out.push_back(root == r ? sum : input(r));
        return out;
      });
}

TEST_P(CollRanks, DiffBcastEveryRoot) {
  const int p = GetParam();
  const auto input = [](int r) { return static_cast<std::int64_t>(rank_rng(r, 66)()); };
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [&](par::Comm& c) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) out.push_back(c.bcast(input(c.rank()), root));
        return out;
      },
      [&](int) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) out.push_back(input(root));
        return out;
      });
}

TEST_P(CollRanks, DiffBcastVectorEveryRoot) {
  const int p = GetParam();
  const auto input = [](int r) {
    auto rng = rank_rng(r, 77);
    std::vector<std::int32_t> mine(1 + rng() % 13);
    for (auto& v : mine) v = static_cast<std::int32_t>(rng() % 100000);
    return mine;
  };
  expect_oracle<std::vector<std::int32_t>>(
      p,
      [&](par::Comm& c) {
        std::vector<std::int32_t> out;
        for (int root = 0; root < p; ++root) {
          const auto got = c.bcast_vector(input(c.rank()), root);
          out.insert(out.end(), got.begin(), got.end());
        }
        return out;
      },
      [&](int) {
        std::vector<std::int32_t> out;
        for (int root = 0; root < p; ++root) {
          const auto v = input(root);
          out.insert(out.end(), v.begin(), v.end());
        }
        return out;
      });
}

TEST_P(CollRanks, DiffExscan) {
  const int p = GetParam();
  const auto input = [](int r) { return static_cast<std::int64_t>(rank_rng(r, 88)() % 1000151); };
  expect_oracle<std::int64_t>(
      p, [&](par::Comm& c) { return c.exscan_sum(input(c.rank())); },
      [&](int r) {
        std::int64_t prefix = 0;
        for (int s = 0; s < r; ++s) prefix += input(s);
        return prefix;
      });
}

TEST_P(CollRanks, DiffAlltoallv) {
  const int p = GetParam();
  // input(r)[d] is what rank r sends to rank d.
  const auto input = [p](int r) {
    auto rng = rank_rng(r, 99);
    std::vector<std::vector<std::int32_t>> send(static_cast<std::size_t>(p));
    for (auto& to : send) {
      to.resize(rng() % 9);  // includes empties
      for (auto& v : to) v = static_cast<std::int32_t>(rng() % 100000);
    }
    return send;
  };
  expect_oracle<std::vector<std::int32_t>>(
      p,
      [&](par::Comm& c) {
        std::vector<std::int32_t> flat;
        for (const auto& from : c.alltoallv(input(c.rank()))) {
          flat.insert(flat.end(), from.begin(), from.end());
        }
        return flat;
      },
      [&](int r) {
        std::vector<std::int32_t> flat;
        for (int s = 0; s < p; ++s) {
          const auto from = input(s)[static_cast<std::size_t>(r)];
          flat.insert(flat.end(), from.begin(), from.end());
        }
        return flat;
      });
}

TEST_P(CollRanks, DiffMixedSequence) {
  // Back-to-back collectives of different kinds: exercises the per-collective
  // tag sequencing (a message from collective k must never match k+1).
  const int p = GetParam();
  constexpr int iters = 5;
  const auto input = [](int r, int iter) {
    auto rng = rank_rng(r, 123);
    rng.discard(static_cast<unsigned long long>(iter));
    return static_cast<std::int64_t>(rng() % 4093);
  };
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [&](par::Comm& c) {
        std::vector<std::int64_t> out;
        for (int iter = 0; iter < iters; ++iter) {
          const std::int64_t v = input(c.rank(), iter);
          out.push_back(c.allreduce(v, par::ReduceOp::sum));
          out.push_back(c.exscan_sum(v));
          const auto all = c.allgather(v);
          out.insert(out.end(), all.begin(), all.end());
          out.push_back(c.bcast(v, iter % c.size()));
          c.barrier();
        }
        return out;
      },
      [&](int r) {
        std::vector<std::int64_t> out;
        for (int iter = 0; iter < iters; ++iter) {
          std::int64_t sum = 0, prefix = 0;
          for (int s = 0; s < p; ++s) {
            sum += input(s, iter);
            if (s < r) prefix += input(s, iter);
          }
          out.push_back(sum);
          out.push_back(prefix);
          for (int s = 0; s < p; ++s) out.push_back(input(s, iter));
          out.push_back(input(iter % p, iter));
        }
        return out;
      });
}

TEST_P(CollRanks, P2pCollectivesDoNotDisturbUserTraffic) {
  // A wildcard user recv posted *after* a collective must still see the user
  // message sent *before* it: collective-internal traffic lives on its own
  // mailbox plane.
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  par::run(p, test_opts(), [p](par::Comm& c) {
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    c.send_value(next, 5, c.rank() * 11);
    const auto sum = c.allreduce(1, par::ReduceOp::sum);
    EXPECT_EQ(sum, p);
    const auto msg = c.recv(par::any_source, par::any_tag);
    EXPECT_EQ(msg.source, prev);
    EXPECT_EQ(msg.tag, 5);
    EXPECT_EQ(msg.value<int>(), prev * 11);
  });
}

TEST_P(CollRanks, DiffUnderFaultInjection) {
  // Deterministic delay + slowdown injection perturbs only timing: every
  // perturbed run must still produce the serial oracle's results.
  const int p = GetParam();
  const auto input = [](int r) {
    auto rng = rank_rng(r, 7);
    std::vector<std::int64_t> mine(1 + rng() % 5);
    for (auto& v : mine) v = static_cast<std::int64_t>(rng() % 100000);
    return mine;
  };
  const auto body = [&](par::Comm& c) {
    const auto mine = input(c.rank());
    std::vector<std::int64_t> out{c.allreduce(mine[0], par::ReduceOp::sum),
                                  c.exscan_sum(mine[0])};
    for (const auto& from : c.allgatherv(mine)) out.insert(out.end(), from.begin(), from.end());
    return out;
  };
  const auto expected = [&](int r) {
    std::int64_t sum = 0, prefix = 0;
    std::vector<std::int64_t> gathered;
    for (int s = 0; s < p; ++s) {
      const auto v = input(s);
      sum += v[0];
      if (s < r) prefix += v[0];
      gathered.insert(gathered.end(), v.begin(), v.end());
    }
    std::vector<std::int64_t> out{sum, prefix};
    out.insert(out.end(), gathered.begin(), gathered.end());
    return out;
  };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    par::RunOptions opts = test_opts();
    opts.inject.seed = seed;
    opts.inject.max_delay_us = 200.0;
    opts.inject.slow_rank_stride = 2;
    opts.inject.slow_op_us = 50.0;
    expect_oracle<std::vector<std::int64_t>>(p, opts, body, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollRanks, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(CollectiveStats, CountsCallsAndPayloads) {
  par::run(4, test_opts(), [](par::Comm& c) {
    c.stats().reset();
    c.allreduce(1, par::ReduceOp::sum);
    c.allgather(c.rank());
    c.barrier();
    const auto& st = c.stats();
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::allreduce)], 1);
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::allgather)], 1);
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::barrier)], 1);
    EXPECT_EQ(st.coll_payload_bytes[static_cast<int>(par::Coll::allreduce)],
              static_cast<std::int64_t>(sizeof(int)));
    EXPECT_GT(st.coll_msgs, 0);
    const auto snap = c.stats_snapshot();
    EXPECT_EQ(static_cast<int>(snap.per_rank.size()), 4);
    EXPECT_EQ(snap.total.coll_calls[static_cast<int>(par::Coll::allreduce)], 4);
  });
}

TEST(CollectiveStats, SnapshotIsUncounted) {
  // The snapshot's own synchronization must not leak into the counters it
  // reports: two back-to-back snapshots agree exactly, blocked time included.
  par::run(4, test_opts(), [](par::Comm& c) {
    c.allreduce(c.rank(), par::ReduceOp::sum);
    c.barrier();
    const auto a = c.stats_snapshot();
    const auto b = c.stats_snapshot();
    EXPECT_EQ(a.total.barrier_blocked_s, b.total.barrier_blocked_s);
    EXPECT_EQ(a.total.recv_blocked_s, b.total.recv_blocked_s);
    EXPECT_EQ(std::memcmp(&a.total, &b.total, sizeof(par::CommStats)), 0);
    ASSERT_EQ(a.per_rank.size(), b.per_rank.size());
    for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
      EXPECT_EQ(std::memcmp(&a.per_rank[r], &b.per_rank[r], sizeof(par::CommStats)), 0)
          << "rank " << r;
    }
  });
}

TEST(CollectiveStats, P2pSendRecvCounted) {
  par::run(2, test_opts(), [](par::Comm& c) {
    c.stats().reset();
    if (c.rank() == 0) {
      c.send_value(1, 3, std::int64_t{42});
    } else {
      const auto m = c.recv(0, 3);
      EXPECT_EQ(m.value<std::int64_t>(), 42);
      EXPECT_EQ(c.stats().p2p_recvs, 1);
      EXPECT_EQ(c.stats().p2p_recv_bytes, 8);
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().p2p_sends, 1);
      EXPECT_EQ(c.stats().p2p_send_bytes, 8);
    }
  });
}

TEST(CollectiveVolume, ClosedFormBytesAt1KiB) {
  // Wire volume (coll_bytes summed over ranks) of each algorithm with a 1 KiB
  // per-rank payload, pinned to its closed form. P = 16 takes the
  // power-of-two paths; P = 7 the non-power-of-two ones (allreduce pre/post
  // folding, ring allgather).
  constexpr std::size_t kb = 1024;
  const auto volume = [](int p, par::Coll kind) {
    std::int64_t total = 0;
    par::run(p, test_opts(), [&](par::Comm& c) {
      std::vector<std::byte> payload(kb, std::byte{1});
      c.stats().reset();
      const auto keep = [](void*, const void*) {};
      switch (kind) {
        case par::Coll::bcast: c.bcast_bytes(payload, 0); break;
        case par::Coll::reduce: c.reduce_bytes(payload.data(), kb, 0, keep); break;
        case par::Coll::allreduce: c.allreduce_bytes(payload.data(), kb, keep); break;
        case par::Coll::allgather: c.allgather_bytes(payload.data(), kb); break;
        case par::Coll::allgatherv: c.allgatherv_bytes(payload.data(), kb); break;
        case par::Coll::alltoall: {
          std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
          for (auto& b : send) b.assign(kb / static_cast<std::size_t>(p) + 1, std::byte{2});
          c.alltoall_bytes(std::move(send));
          break;
        }
        default: break;
      }
      const auto snap = c.stats_snapshot();
      if (c.rank() == 0) total = snap.total.coll_bytes;
    });
    return total;
  };
  struct Pin {
    int p;
    par::Coll kind;
    std::int64_t bytes;
  };
  const Pin pins[] = {
      // bcast, reduce: P-1 tree edges of 1 KiB.
      {16, par::Coll::bcast, 15 * 1024},
      {7, par::Coll::bcast, 6 * 1024},
      {16, par::Coll::reduce, 15 * 1024},
      {7, par::Coll::reduce, 6 * 1024},
      // allreduce: P log2 P exchanges at P = 16; at P = 7, 3 pre-folds + 4 ranks
      // x 2 rounds + 3 post-folds.
      {16, par::Coll::allreduce, 16 * 4 * 1024},
      {7, par::Coll::allreduce, (3 + 8 + 3) * 1024},
      // allgather: recursive doubling ships P-1 blocks per rank, each with a
      // 4-byte origin header; the P = 7 ring ships P-1 bare blocks per rank.
      {16, par::Coll::allgather, 16 * 15 * (1024 + 4)},
      {7, par::Coll::allgather, 7 * 6 * 1024},
      // allgatherv: ring, P-1 bare blocks per rank.
      {16, par::Coll::allgatherv, 16 * 15 * 1024},
      {7, par::Coll::allgatherv, 7 * 6 * 1024},
      // alltoall: P-1 messages of 1024/P + 1 bytes per rank.
      {16, par::Coll::alltoall, 16 * 15 * (1024 / 16 + 1)},
      {7, par::Coll::alltoall, 7 * 6 * (1024 / 7 + 1)},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(volume(pin.p, pin.kind), pin.bytes)
        << par::coll_name(pin.kind) << " at P=" << pin.p;
  }
}
