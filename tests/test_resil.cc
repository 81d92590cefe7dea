// Tests for the checkpoint/restart subsystem (src/resil): CRC-validated
// snapshots, elastic restore across rank counts, corruption fallback through
// the retention ring, deterministic rank-kill injection, and supervised
// recovery — including the end-to-end guarantee that a mantle run killed
// mid-flight and recovered from a snapshot finishes with bit-identical
// per-rank fields.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/mantle.h"
#include "forest/forest.h"
#include "oracles.h"
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

/// Fresh per-test scratch directory under the gtest temp dir.
std::string test_dir(const std::string& name) {
  // Suffix the pid: the plain per-case binary and the ESAMR_CHECK=1 whole-
  // binary rerun may execute the same test concurrently under ctest -j.
  const std::string d =
      ::testing::TempDir() + "esamr_resil_" + name + "_" + std::to_string(::getpid());
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// Deterministic, partition-independent per-octant field value.
double field_value(int t, const Octant<2>& o, int comp) {
  return static_cast<double>(t) + 1e-9 * o.x + 1e-10 * o.y + 0.125 * o.level + 3.0 * comp;
}

/// A nonuniform, canonically partitioned forest for snapshot tests.
Forest<2> make_forest(par::Comm& c, const Connectivity<2>& conn) {
  auto f = Forest<2>::new_uniform(c, &conn, 2);
  f.refine(4, false,
           [](int t, const Octant<2>& o) { return (t + o.child_id() + o.level) % 3 == 0; });
  f.balance();
  f.partition();
  return f;
}

resil::NamedField make_field(const Forest<2>& f, const std::string& name, int per_oct) {
  resil::NamedField fld{name, per_oct, {}};
  f.for_each_local([&](int t, const Octant<2>& o) {
    for (int k = 0; k < per_oct; ++k) fld.data.push_back(field_value(t, o, k));
  });
  return fld;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Flatten this rank's view of the *global* forest + field into words, via
/// allgatherv, for cross-rank-count comparisons. Identical on every rank.
std::vector<std::int64_t> global_state_words(par::Comm& c, const Forest<2>& f,
                                             const std::vector<double>& field) {
  // Gather octants and field bits separately: concatenating mixed per-rank
  // blocks would make the flattened layout depend on the rank boundaries.
  std::vector<std::int64_t> octs;
  f.for_each_local([&](int t, const Octant<2>& o) {
    octs.push_back(t);
    octs.push_back(o.x);
    octs.push_back(o.y);
    octs.push_back(o.level);
  });
  std::vector<std::int64_t> vals;
  for (const double v : field) {
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    vals.push_back(bits);
  }
  std::vector<std::int64_t> all;
  for (const auto& part : c.allgatherv(octs)) all.insert(all.end(), part.begin(), part.end());
  for (const auto& part : c.allgatherv(vals)) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// First seed for which exactly one of `nranks` ranks is a kill victim.
std::uint64_t pick_kill_seed(int nranks, int stride, int* victim) {
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

/// Comm operations counted toward the kill budget (sends, recvs, collectives).
std::uint64_t ops_of(const par::CommStats& st) {
  std::int64_t n = st.p2p_sends + st.p2p_recvs;
  for (const auto calls : st.coll_calls) n += calls;
  return static_cast<std::uint64_t>(n);
}

/// One path of par::crc32c_update: the dispatched entry point, the table
/// walk, or the SSE4.2 instruction.
struct CrcPath {
  const char* name;
  std::uint32_t (*update)(std::uint32_t, const void*, std::size_t);
};

/// Every path this CPU can run; the SSE4.2 one only where it has SSE4.2.
std::vector<CrcPath> crc_paths() {
  std::vector<CrcPath> paths{{"dispatched", par::crc32c_update},
                             {"table", par::detail::crc32c_update_table}};
  if (par::detail::crc32c_have_sse42()) {
    paths.push_back({"sse4.2", par::detail::crc32c_update_sse42});
  }
  return paths;
}

constexpr const char* no_sse42 = "CPU lacks SSE4.2: only the table path was checked";

}  // namespace

TEST(Crc32c, KnownAnswerAndIncremental) {
  const char* s = "123456789";
  EXPECT_EQ(par::crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(par::crc32c(s, 0), 0u);
  for (const CrcPath& path : crc_paths()) {
    SCOPED_TRACE(path.name);
    const auto crc = [&](const void* p, std::size_t n) { return path.update(0, p, n); };
    // RFC 3720 check value for "123456789".
    EXPECT_EQ(crc(s, 9), 0xE3069283u);
    // Incremental folding matches the one-shot result.
    EXPECT_EQ(path.update(path.update(0, s, 4), s + 4, 5), 0xE3069283u);
    EXPECT_EQ(crc(s, 0), 0u);
    // RFC 3720 section B.4 vectors.
    std::array<unsigned char, 32> b{};
    EXPECT_EQ(crc(b.data(), b.size()), 0x8A9136AAu);
    b.fill(0xFF);
    EXPECT_EQ(crc(b.data(), b.size()), 0x62A8AB43u);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(crc(b.data(), b.size()), 0x46DD794Eu);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<unsigned char>(31 - i);
    EXPECT_EQ(crc(b.data(), b.size()), 0x113FDB5Cu);
    // The iSCSI SCSI Read (10) command PDU.
    const std::array<unsigned char, 48> read_pdu{
        0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
        0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
    EXPECT_EQ(crc(read_pdu.data(), read_pdu.size()), 0xD9963A56u);
  }
  if (!par::detail::crc32c_have_sse42()) GTEST_SKIP() << no_sse42;
}

TEST(Crc32c, MatchesBitwiseOracle) {
  // Every length 0..4096 at every misalignment 0..7 of a pseudo-random
  // buffer, through every path: one-shot and folded through the update at
  // a split point that sweeps the buffer from n/8 to n with the
  // misalignment.
  std::vector<unsigned char> buf(4096 + 8);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& v : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<unsigned char>(x >> 56);
  }
  const std::vector<CrcPath> paths = crc_paths();
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = oracles::crc32c_bitwise(p, n);
      ASSERT_EQ(par::crc32c(p, n), want) << "off=" << off << " n=" << n;
      const std::size_t split = n * (off + 1) / 8;
      for (const CrcPath& path : paths) {
        ASSERT_EQ(path.update(0, p, n), want) << path.name << " off=" << off << " n=" << n;
        ASSERT_EQ(path.update(path.update(0, p, split), p + split, n - split), want)
            << path.name << " off=" << off << " n=" << n << " split=" << split;
      }
    }
  }
  if (!par::detail::crc32c_have_sse42()) GTEST_SKIP() << no_sse42;
}

TEST(Checkpoint, RoundTripSameRankCount) {
  const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string path = test_dir("roundtrip") + "/snap.esnap";
  par::run(4, [&](par::Comm& c) {
    auto f = make_forest(c, conn);
    const auto vel = make_field(f, "vel", 2);
    const auto eps = make_field(f, "eps", 1);
    resil::write_checkpoint(f, cid, 42, {vel, eps}, path);
    auto r = resil::restore_checkpoint<2>(c, conn, cid, path);
    EXPECT_EQ(r.step, 42u);
    EXPECT_GT(r.bytes_read, 0);
    EXPECT_EQ(r.forest.checksum(), f.checksum());
    // Same rank count: the canonical partition is reproduced exactly.
    for (int t = 0; t < f.num_trees(); ++t) EXPECT_EQ(r.forest.tree(t), f.tree(t));
    ASSERT_EQ(r.fields.size(), 2u);
    EXPECT_EQ(r.fields[0].name, "vel");
    EXPECT_EQ(r.fields[0].per_oct, 2);
    EXPECT_TRUE(bits_equal(r.fields[0].data, vel.data));
    EXPECT_EQ(r.fields[1].name, "eps");
    EXPECT_TRUE(bits_equal(r.fields[1].data, eps.data));
  });
}

TEST(Checkpoint, ElasticRestoreAcrossRankCounts) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string path = test_dir("elastic") + "/snap.esnap";
  std::uint64_t want_checksum = 0;
  std::vector<std::int64_t> want_words;
  par::run(7, [&](par::Comm& c) {
    auto f = make_forest(c, conn);
    const auto eps = make_field(f, "eps", 1);
    resil::write_checkpoint(f, cid, 3, {eps}, path);
    const auto words = global_state_words(c, f, eps.data);
    const auto sum = f.checksum();  // collective: call on every rank
    if (c.rank() == 0) {
      want_checksum = sum;
      want_words = words;
    }
  });
  ASSERT_FALSE(want_words.empty());
  for (const int p : {1, 2, 4, 16}) {
    par::run(p, [&](par::Comm& c) {
      auto r = resil::restore_checkpoint<2>(c, conn, cid, path);
      EXPECT_EQ(r.forest.checksum(), want_checksum) << "P=" << p;
      ASSERT_EQ(r.fields.size(), 1u);
      // The global octant sequence and field bits are unchanged...
      const auto words = global_state_words(c, r.forest, r.fields[0].data);
      if (c.rank() == 0) {
        EXPECT_EQ(words, want_words) << "P=" << p;
      }
      // ...and the restored partition is the canonical equal SFC split.
      const auto& counts = r.forest.global_counts();
      const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
      EXPECT_LE(*hi - *lo, 1) << "P=" << p;
    });
  }
}

TEST(Checkpoint, CorruptionDetectedWithSectionAndOffsetThenRingFallsBack) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string dir = test_dir("corrupt");
  par::run(2, [&](par::Comm& c) {
    resil::CheckpointRing ring(dir, 3);
    auto f = make_forest(c, conn);
    const auto eps = make_field(f, "eps", 1);
    resil::write_checkpoint_ring(f, cid, 1, {eps}, ring);
    resil::write_checkpoint_ring(f, cid, 2, {eps}, ring);
  });
  resil::CheckpointRing ring(dir, 3);
  ASSERT_EQ(ring.entries().size(), 2u);
  const std::string newest = ring.newest();
  resil::corrupt_checkpoint(newest, resil::CorruptKind::byte_flip, 77);

  // Direct restore of the corrupted snapshot: the error names the section
  // and the file offset of the failing payload.
  try {
    par::run(1, [&](par::Comm& c) { resil::restore_checkpoint<2>(c, conn, cid, newest); });
    FAIL() << "expected CheckpointCorrupt";
  } catch (const resil::CheckpointCorrupt& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("CRC mismatch in section '"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at offset "), std::string::npos) << msg;
    EXPECT_NE(msg.find("stored 0x"), std::string::npos) << msg;
  }

  // restore_latest_chain falls back to the previous ring entry and quarantines
  // the corrupted one as *.bad.
  par::run(2, [&](par::Comm& c) {
    resil::CheckpointRing r2(dir, 3);
    int fallbacks = -1;
    auto r = resil::restore_latest_chain<2>(c, conn, cid, r2, &fallbacks);
    EXPECT_EQ(r.step, 1u);
    EXPECT_EQ(fallbacks, 1);
  });
  EXPECT_EQ(ring.entries().size(), 1u);
  bool quarantined = false;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".bad") quarantined = true;
  }
  EXPECT_TRUE(quarantined);
}

TEST(Checkpoint, RingKeepsOnlyNewestAndSequencesAdvance) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string dir = test_dir("ring");
  par::run(1, [&](par::Comm& c) {
    resil::CheckpointRing ring(dir, 2);
    auto f = make_forest(c, conn);
    for (std::uint64_t s = 0; s < 5; ++s) resil::write_checkpoint_ring(f, cid, s, {}, ring);
    EXPECT_EQ(ring.entries().size(), 2u);
    EXPECT_NE(ring.newest().find("ckpt-00000004.esnap"), std::string::npos);
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    EXPECT_EQ(r.step, 4u);
    EXPECT_TRUE(r.fields.empty());
    EXPECT_EQ(r.forest.checksum(), f.checksum());
  });
}

TEST(Checkpoint, WrongConnectivityRejected) {
  const auto conn = Connectivity<2>::unit();
  const auto other = Connectivity<2>::brick({2, 1}, {false, false});
  EXPECT_NE(resil::connectivity_id(conn), resil::connectivity_id(other));
  const std::string path = test_dir("wrongconn") + "/snap.esnap";
  par::run(1, [&](par::Comm& c) {
    auto f = make_forest(c, conn);
    resil::write_checkpoint(f, resil::connectivity_id(conn), 0, {}, path);
  });
  try {
    par::run(1, [&](par::Comm& c) {
      resil::restore_checkpoint<2>(c, other, resil::connectivity_id(other), path);
    });
    FAIL() << "expected a mismatch error";
  } catch (const resil::CheckpointCorrupt&) {
    FAIL() << "mismatch must not be reported as corruption";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos) << e.what();
  }
}

namespace {

/// CRC32C over every byte of a file.
std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return par::crc32c(bytes.data(), bytes.size());
}

/// Writes a full anchor and three tracked adapt steps as delta entries into a
/// fresh ring at P ranks, checks the chain restores the live forest, and
/// folds every entry's file name and whole-file CRC, in ring order, into one
/// digest — which pins the on-disk bytes of both entry kinds.
template <int Dim>
std::uint64_t ring_bytes_digest(int P, const Connectivity<Dim>& conn, const std::string& dir) {
  const auto mark = [](std::uint64_t salt, int step, int t, const Octant<Dim>& o, int stride) {
    const std::uint64_t z = Dim == 3 ? static_cast<std::uint64_t>(o.z) : 0;
    return par::detail::mix64(salt ^ (static_cast<std::uint64_t>(step) << 56) ^
                              (static_cast<std::uint64_t>(t) << 48) ^
                              (static_cast<std::uint64_t>(o.x) << 24) ^
                              (static_cast<std::uint64_t>(o.y) << 8) ^ (z << 40) ^
                              static_cast<std::uint64_t>(o.level)) %
               static_cast<std::uint64_t>(stride) ==
           0;
  };
  const auto fields_of = [](const Forest<Dim>& f) {
    resil::NamedField vel{"vel", 2, {}}, eps{"eps", 1, {}};
    f.for_each_local([&](int t, const Octant<Dim>& o) {
      const double z = Dim == 3 ? 1e-11 * o.z : 0.0;
      const double v = static_cast<double>(t) + 1e-9 * o.x + 1e-10 * o.y + z + 0.125 * o.level;
      vel.data.push_back(v);
      vel.data.push_back(-v);
      eps.data.push_back(2.0 * v);
    });
    return std::vector<resil::NamedField>{vel, eps};
  };
  std::uint64_t digest = 0;
  par::run(P, [&](par::Comm& c) {
    const std::uint64_t cid = resil::connectivity_id(conn);
    resil::CheckpointRing ring(dir, 4);
    auto f = Forest<Dim>::new_uniform(c, &conn, 2);
    f.refine(4, true, [&](int t, const Octant<Dim>& o) { return mark(0xb0, 0, t, o, 3); });
    f.balance();
    f.partition();
    resil::write_checkpoint_ring(f, cid, 0, fields_of(f), ring);
    for (int step = 1; step <= 3; ++step) {
      forest::DeltaSet<Dim> delta(f.num_trees());
      f.refine(5, false, [&](int t, const Octant<Dim>& o) { return mark(0x5e, step, t, o, 29); },
               &delta);
      f.coarsen(false, [&](int t, const Octant<Dim>& o) { return mark(0xc0, step, t, o, 7); },
                &delta);
      f.balance_incremental(delta);
      resil::write_delta_checkpoint_ring(f, cid, static_cast<std::uint64_t>(step), fields_of(f),
                                         delta, ring);
    }
    auto r = resil::restore_latest_chain<Dim>(c, conn, cid, ring);
    EXPECT_EQ(r.step, 3u);
    EXPECT_EQ(r.forest.checksum(), f.checksum());
    if (c.rank() == 0) {
      int deltas = 0;
      std::uint64_t h = 0;
      for (const std::string& p : ring.entries()) {
        deltas += resil::CheckpointRing::is_delta(p) ? 1 : 0;
        for (const char ch : fs::path(p).filename().string()) {
          h = par::detail::mix64(h ^ static_cast<unsigned char>(ch));
        }
        h = par::detail::mix64(h ^ file_crc(p));
      }
      EXPECT_EQ(deltas, 3) << "delta writes fell back to full snapshots";
      digest = h;
    }
  });
  return digest;
}

}  // namespace

// The checkpoint codec's on-disk bytes, full snapshots and deltas alike, at
// several writer rank counts. The goldens were recorded with the earlier
// separate full and delta writers, so they pin that merging the two codecs
// changed no byte of either file kind (and no ring file name).
TEST(CheckpointCodec, OnDiskBytesMatchRecordedGoldens) {
  const auto conn2 = Connectivity<2>::brick({2, 1}, {false, false});
  const auto conn3 = Connectivity<3>::rotcubes();
  struct Golden {
    int P;
    std::uint64_t d2, d3;
  };
  for (const Golden& g : {Golden{1, 0x54369cc451b40a75ull, 0x624f3cba7934d298ull},
                          Golden{3, 0xa268cd41a55aaf14ull, 0x2cf5af827c048d2dull},
                          Golden{4, 0x4ea70455a078a673ull, 0x7e1ba3ad1c7f5c2aull}}) {
    const std::string dir = test_dir("codec_p" + std::to_string(g.P));
    EXPECT_EQ(ring_bytes_digest<2>(g.P, conn2, dir + "/2d"), g.d2) << "2D brick, P=" << g.P;
    EXPECT_EQ(ring_bytes_digest<3>(g.P, conn3, dir + "/3d"), g.d3) << "3D rotcubes, P=" << g.P;
    fs::remove_all(dir);
  }
}

TEST(RankKill, DeterministicVictimAndFailurePropagation) {
  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(4, 4, &victim);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = 4;
  opts.inject.kill_after_ops = 5;
  for (int rep = 0; rep < 2; ++rep) {
    try {
      par::run(4, opts, [](par::Comm& c) {
        for (int i = 0; i < 100; ++i) {
          c.barrier();
          c.allreduce(i, par::ReduceOp::sum);
        }
      });
      FAIL() << "expected RankFailure";
    } catch (const par::RankFailure& e) {
      EXPECT_EQ(e.rank(), victim);  // same victim on every repetition
      EXPECT_NE(std::string(e.what()).find("rank failure injected"), std::string::npos);
    }
  }
}

TEST(Supervisor, RetriesPastOneShotKill) {
  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(4, 4, &victim);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = 4;
  opts.inject.kill_after_ops = 10;
  resil::SupervisorOptions sopt;
  sopt.max_retries = 3;
  sopt.backoff.initial_s = 0.0;
  const auto stats = resil::supervise(
      4, opts, sopt, nullptr, [](par::Comm& c, resil::RecoveryContext& ctx) {
        if (c.rank() == 0) ctx.note_step();
        for (int i = 0; i < 20; ++i) c.barrier();
      });
  EXPECT_EQ(stats.attempts, 2);  // one failure, one clean retry
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.steps_replayed, 1u);
  ASSERT_EQ(stats.failure_log.size(), 1u);
  EXPECT_NE(stats.failure_log[0].find("rank failure injected"), std::string::npos);
  EXPECT_NE(stats.summary().find("attempts=2"), std::string::npos);
}

TEST(Supervisor, GivesUpWhenTheFaultPersists) {
  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(4, 4, &victim);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = 4;
  opts.inject.kill_after_ops = 5;
  resil::SupervisorOptions sopt;
  sopt.max_retries = 2;
  sopt.backoff.initial_s = 0.0;
  sopt.clear_kill_on_retry = false;  // the same kill fires on every attempt
  std::atomic<int> attempts{0};
  EXPECT_THROW(resil::supervise(4, opts, sopt, nullptr,
                                [&attempts](par::Comm& c, resil::RecoveryContext&) {
                                  if (c.rank() == 0) ++attempts;
                                  for (int i = 0; i < 20; ++i) c.barrier();
                                }),
               par::RankFailure);
  EXPECT_EQ(attempts.load(), 1 + sopt.max_retries);
}

TEST(Supervisor, QuarantinesNewestRingEntryOnCorruption) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string dir = test_dir("superquarantine");
  par::run(2, [&](par::Comm& c) {
    resil::CheckpointRing ring(dir, 3);
    auto f = make_forest(c, conn);
    resil::write_checkpoint_ring(f, cid, 0, {}, ring);
  });
  resil::CheckpointRing ring(dir, 3);
  ASSERT_EQ(ring.entries().size(), 1u);
  resil::SupervisorOptions sopt;
  sopt.max_retries = 2;
  sopt.backoff.initial_s = 0.0;
  const auto stats = resil::supervise(
      2, par::RunOptions{}, sopt, &ring, [](par::Comm& c, resil::RecoveryContext& ctx) {
        if (ctx.attempt() == 0 && c.rank() == 0) {
          throw resil::CheckpointCorrupt("synthetic corruption");
        }
        c.barrier();
      });
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_TRUE(ring.entries().empty());  // the suspect snapshot was quarantined
}

// The end-to-end recovery test: a mantle run with mid-flight rank kill,
// supervised recovery from the checkpoint ring, and bit-identical final
// per-rank fields versus the fault-free run.
TEST(MantleRecovery, KilledRunRecoversToBitIdenticalFields) {
  constexpr int P = 4;
  apps::MantleOptions mopt;
  mopt.base_level = 2;
  mopt.max_level = 4;
  mopt.temperature_max_level = 3;
  mopt.static_adapt_rounds = 2;
  mopt.picard_iterations = 4;
  mopt.adapt_every = 2;
  mopt.minres_rtol = 1e-6;
  mopt.rheology.plate_boundaries = {0.5, 2.5, 4.5};
  mopt.temperature.slab_angles = {0.5, 2.5};

  // Fault-free baseline; also measure each rank's comm-op count so the kill
  // can be placed deterministically in the later part of the run.
  std::vector<std::vector<double>> base_vel(P), base_eps(P);
  std::vector<std::uint64_t> base_sum(P), base_ops(P);
  par::run(P, [&](par::Comm& c) {
    apps::MantleSimulation sim(c, mopt);
    sim.run();
    const auto r = static_cast<std::size_t>(c.rank());
    base_vel[r] = sim.corner_velocities();
    base_eps[r] = sim.element_strain_rate();
    base_sum[r] = sim.forest().checksum();
    base_ops[r] = ops_of(c.stats());
  });

  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(P, P, &victim);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = P;
  // ~7/8 through the victim's baseline op count: safely after the first
  // checkpoint (written every iteration) and before the run can finish
  // (the checkpointed run has strictly more ops than the baseline).
  opts.inject.kill_after_ops = base_ops[static_cast<std::size_t>(victim)] * 7 / 8;
  ASSERT_GT(opts.inject.kill_after_ops, 0u);

  auto mopt2 = mopt;
  mopt2.checkpoint_every = 1;
  mopt2.checkpoint_dir = test_dir("mantle_ring");
  mopt2.checkpoint_keep = 3;

  std::vector<std::vector<double>> got_vel(P), got_eps(P);
  std::vector<std::uint64_t> got_sum(P);
  resil::SupervisorOptions sopt;
  sopt.max_retries = 3;
  sopt.backoff.initial_s = 0.0;
  const auto stats = resil::supervise(
      P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
        apps::MantleSimulation sim(c, mopt2);
        sim.set_recovery_context(&ctx);
        sim.run();
        const auto r = static_cast<std::size_t>(c.rank());
        got_vel[r] = sim.corner_velocities();
        got_eps[r] = sim.element_strain_rate();
        got_sum[r] = sim.forest().checksum();
      });

  // The kill fired, the retry restored from a snapshot, and work was replayed.
  EXPECT_GE(stats.attempts, 2);
  EXPECT_GE(stats.failures, 1);
  EXPECT_GT(stats.bytes_reread, 0);
  EXPECT_GE(stats.steps_replayed, 1u);
  // Final state is bit-identical to the fault-free run, rank by rank.
  for (std::size_t r = 0; r < P; ++r) {
    EXPECT_EQ(got_sum[r], base_sum[r]) << "rank " << r;
    EXPECT_TRUE(bits_equal(got_vel[r], base_vel[r])) << "corner_vel differs on rank " << r;
    EXPECT_TRUE(bits_equal(got_eps[r], base_eps[r])) << "strain_rate differs on rank " << r;
  }
}

namespace {

/// First seed for which, over `steps` checkpoint commits at the given stride,
/// at least one first-attempt disk fault fires and every commit heals within
/// the writer's 5-attempt budget.
std::uint64_t pick_disk_seed(int stride, int steps) {
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    par::InjectConfig cfg;
    cfg.seed = seed;
    cfg.disk_fault_stride = stride;
    bool any_first = false, all_heal = true;
    for (int s = 0; s < steps; ++s) {
      int a = 0;
      while (a < 5 && par::detail::disk_fault(cfg, static_cast<std::uint64_t>(s),
                                              static_cast<std::uint64_t>(a)) !=
                          par::detail::DiskFault::none) {
        ++a;
      }
      if (a == 5) {
        all_heal = false;
        break;
      }
      if (a > 0) any_first = true;
    }
    if (all_heal && any_first) return seed;
  }
  ADD_FAILURE() << "no healing disk-fault seed found";
  return 0;
}

}  // namespace

// Generalized corruption kinds: truncate-tail and torn-write damage must be
// detected on restore and fall back through the ring exactly like byte_flip.
TEST(Checkpoint, TruncateTailAndTornWriteFallBackThroughRing) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  for (const auto kind : {resil::CorruptKind::truncate_tail, resil::CorruptKind::torn_write}) {
    const std::string dir = test_dir(std::string("corrupt_") + resil::corrupt_kind_name(kind));
    par::run(2, [&](par::Comm& c) {
      resil::CheckpointRing ring(dir, 3);
      auto f = make_forest(c, conn);
      const auto eps = make_field(f, "eps", 1);
      resil::write_checkpoint_ring(f, cid, 1, {eps}, ring);
      resil::write_checkpoint_ring(f, cid, 2, {eps}, ring);
    });
    resil::CheckpointRing ring(dir, 3);
    ASSERT_EQ(ring.entries().size(), 2u);
    resil::corrupt_checkpoint(ring.newest(), kind, 909);

    // The damaged newest entry must fail CRC/bounds validation...
    try {
      par::run(1, [&](par::Comm& c) { resil::restore_checkpoint<2>(c, conn, cid, ring.newest()); });
      FAIL() << "expected CheckpointCorrupt for " << resil::corrupt_kind_name(kind);
    } catch (const resil::CheckpointCorrupt& e) {
      const std::string msg = e.what();
      const bool diagnosed = msg.find("CRC mismatch") != std::string::npos ||
                             msg.find("past end of file") != std::string::npos ||
                             msg.find("shorter than header") != std::string::npos ||
                             msg.find("section size") != std::string::npos ||
                             msg.find("missing") != std::string::npos;
      EXPECT_TRUE(diagnosed) << msg;
    }

    // ...and restore_latest_chain quarantines it and falls back to step 1.
    par::run(2, [&](par::Comm& c) {
      resil::CheckpointRing r2(dir, 3);
      int fallbacks = -1;
      auto r = resil::restore_latest_chain<2>(c, conn, cid, r2, &fallbacks);
      EXPECT_EQ(r.step, 1u) << resil::corrupt_kind_name(kind);
      EXPECT_EQ(fallbacks, 1);
    });
    EXPECT_EQ(ring.entries().size(), 1u);
  }
}

// The write-then-reread-verify commit path heals injected disk faults (torn
// tail, truncation, transient EIO) by retrying, and the published snapshots
// restore with the correct contents.
TEST(Checkpoint, WriteVerifyHealsInjectedDiskFaults) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::string dir = test_dir("writeverify");
  constexpr int steps = 8;
  par::RunOptions opts;
  opts.inject.seed = pick_disk_seed(/*stride=*/2, steps);
  opts.inject.disk_fault_stride = 2;
  resil::reset_disk_fault_stats();
  par::run(2, opts, [&](par::Comm& c) {
    resil::CheckpointRing ring(dir, 2);
    auto f = make_forest(c, conn);
    const auto eps = make_field(f, "eps", 1);
    for (int s = 0; s < steps; ++s) {
      resil::write_checkpoint_ring(f, cid, static_cast<std::uint64_t>(s), {eps}, ring);
    }
    // Every commit was eventually published despite the injected faults...
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    EXPECT_EQ(r.step, static_cast<std::uint64_t>(steps - 1));
    EXPECT_EQ(r.forest.checksum(), f.checksum());
    ASSERT_EQ(r.fields.size(), 1u);
    EXPECT_TRUE(bits_equal(r.fields[0].data, eps.data));
  });
  const auto d = resil::disk_fault_stats();
  EXPECT_EQ(d.commits, steps);
  // ...and the retry loop actually saw faults (the seed guarantees >= 1).
  EXPECT_GT(d.write_retries, 0);
  EXPECT_GT(d.eio_injected + d.torn_injected + d.trunc_injected, 0);
  EXPECT_EQ(d.verify_failures, d.torn_injected + d.trunc_injected);
}

// A CRC-detected payload corruption is a recoverable fault: the supervisor
// clears the one-shot corruption stream and the retry completes correctly.
// (ARQ off: this test exercises the supervisor rung of the ladder, so the
// link layer must not heal the corruption first.)
TEST(Supervisor, RecoversFromDetectedMessageCorruption) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 1;  // every message is a victim
  opts.arq.enabled = false;
  resil::SupervisorOptions sopt;
  sopt.max_retries = 2;
  sopt.backoff.initial_s = 0.0;
  std::atomic<int> clean_sum{-1};
  const auto stats = resil::supervise(
      4, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext&) {
        const int next = (c.rank() + 1) % c.size();
        c.send_value(next, 3, c.rank());
        const auto m = c.recv((c.rank() + 3) % 4, 3);
        const int sum = c.allreduce(m.value<int>(), par::ReduceOp::sum);
        if (c.rank() == 0) clean_sum = sum;
      });
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.corrupt_msgs, 1);
  ASSERT_EQ(stats.failure_log.size(), 1u);
  EXPECT_NE(stats.failure_log[0].find("corrupt"), std::string::npos);
  EXPECT_NE(stats.summary().find("corrupt_msgs=1"), std::string::npos);
  EXPECT_EQ(clean_sum.load(), 0 + 1 + 2 + 3);
}

// With clearing disabled the corruption stream persists, retries exhaust,
// and the original CorruptMessage propagates (a diagnosed abort, not a hang).
TEST(Supervisor, GivesUpWhenCorruptionPersists) {
  par::RunOptions opts;
  opts.inject.seed = 99;
  opts.inject.corrupt_msg_stride = 1;
  opts.arq.enabled = false;  // supervisor-rung test, as above
  resil::SupervisorOptions sopt;
  sopt.max_retries = 1;
  sopt.backoff.initial_s = 0.0;
  sopt.clear_corrupt_on_retry = false;
  EXPECT_THROW(resil::supervise(2, opts, sopt, nullptr,
                                [](par::Comm& c, resil::RecoveryContext&) {
                                  c.send_value(1 - c.rank(), 1, c.rank());
                                  (void)c.recv(1 - c.rank(), 1);
                                }),
               par::CorruptMessage);
}

// Backoff jitter is a pure function of (inject seed, attempt): two identical
// supervised runs sleep bit-identically, the realised sleeps stay inside the
// configured jitter band, and the band is recorded in RecoveryStats.
TEST(Supervisor, BackoffJitterIsSeededDeterministicAndBounded) {
  resil::SupervisorOptions sopt;
  sopt.max_retries = 3;
  sopt.backoff.initial_s = 0.001;
  sopt.backoff.factor = 2.0;
  sopt.backoff.cap_s = 0.01;
  sopt.backoff.jitter = 0.5;
  par::RunOptions opts;
  opts.inject.seed = 77;  // the jitter stream seed
  const auto run_once = [&](const par::RunOptions& o) {
    return resil::supervise(1, o, sopt, nullptr, [](par::Comm&, resil::RecoveryContext& ctx) {
      if (ctx.attempt() < 2) throw par::TimeoutError("synthetic timeout");
    });
  };
  const auto s1 = run_once(opts);
  const auto s2 = run_once(opts);
  EXPECT_EQ(s1.attempts, 3);
  EXPECT_EQ(s1.failures, 2);
  // Two sleeps at nominal 0.001 and 0.002 s, each jittered within +/- 50%.
  EXPECT_GE(s1.backoff_min_s, 0.0005);
  EXPECT_LT(s1.backoff_max_s, 0.003);
  EXPECT_LE(s1.backoff_min_s, s1.backoff_max_s);
  EXPECT_EQ(s1.backoff_s, s2.backoff_s);  // bit-identical replay
  EXPECT_EQ(s1.backoff_min_s, s2.backoff_min_s);
  EXPECT_EQ(s1.backoff_max_s, s2.backoff_max_s);
  EXPECT_NE(s1.summary().find("jitter=["), std::string::npos);
  // A different seed draws a different jitter sequence.
  auto opts2 = opts;
  opts2.inject.seed = 78;
  EXPECT_NE(run_once(opts2).backoff_s, s1.backoff_s);
  // Zero jitter reproduces the exact exponential schedule.
  sopt.backoff.jitter = 0.0;
  const auto s3 = run_once(opts);
  EXPECT_DOUBLE_EQ(s3.backoff_min_s, 0.001);
  EXPECT_DOUBLE_EQ(s3.backoff_max_s, 0.002);
}

// --- In-place shrink/spare recovery (graded ladder, top rung) ---------------

namespace {

/// P-invariant supervised workload: a u64 state advanced per step from global
/// (partition-independent) quantities only — each rank sums a hash over its
/// *local octants*, circulates partial sums around the full ring (every rank
/// accumulates the exact wrapped global octant sum), cross-checks it against
/// a u64 allreduce, and folds the global sum into the state. Checkpointed
/// every step (state as two integer-valued doubles on every octant) and
/// restored elastically on retry, so a run repaired by shrinking to P-1
/// ranks must finish with the state the fault-free run at P produced.
std::uint64_t elastic_u64_body(par::Comm& c, resil::RecoveryContext& ctx,
                               const Connectivity<2>& conn, std::uint64_t cid,
                               const std::string& dir, int steps) {
  resil::CheckpointRing ring(dir, 2);
  auto f = make_forest(c, conn);
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  int k0 = 0;
  if (resil::ring_probe(c, ring)) {
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    EXPECT_EQ(r.forest.checksum(), f.checksum());  // static mesh, any partition
    const std::uint64_t lo = static_cast<std::uint64_t>(r.fields.at(0).data.at(0));
    const std::uint64_t hi = static_cast<std::uint64_t>(r.fields.at(0).data.at(1));
    state = (hi << 32) | lo;
  }
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  for (int k = k0; k < steps; ++k) {
    std::uint64_t local = 0;
    f.for_each_local([&](int t, const Octant<2>& o) {
      local += par::detail::mix64(state ^ (static_cast<std::uint64_t>(t) << 48) ^
                                  (static_cast<std::uint64_t>(o.x) << 28) ^
                                  (static_cast<std::uint64_t>(o.y) << 8) ^
                                  static_cast<std::uint64_t>(o.level));
    });
    std::uint64_t acc = local, pass = local;
    for (int h = 0; h < c.size() - 1; ++h) {
      c.send_value(next, 13, pass);
      pass = c.recv(prev, 13).value<std::uint64_t>();
      acc += pass;
    }
    const std::uint64_t glob = c.allreduce(local, par::ReduceOp::sum);
    EXPECT_EQ(acc, glob);  // ring circulation and allreduce agree exactly
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

constexpr int elastic_steps = 4;

/// Fault-free digest of the u64 workload; asserted identical across world
/// sizes (that is the property shrink repairs rely on).
std::uint64_t elastic_baseline(const Connectivity<2>& conn, std::uint64_t cid) {
  std::uint64_t base = 0;
  bool first = true;
  for (const int p : {2, 3, 4}) {
    std::uint64_t digest = 0;
    const std::string dir = test_dir("elastic_u64_base_p" + std::to_string(p));
    par::run(p, [&](par::Comm& c) {
      resil::RecoveryContext ctx(0);
      const auto d = elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
      if (c.rank() == 0) digest = d;
    });
    EXPECT_NE(digest, 0u);
    if (first) {
      base = digest;
      first = false;
    } else {
      EXPECT_EQ(digest, base) << "u64 workload digest must be P-invariant (P=" << p << ")";
    }
  }
  return base;
}

/// Per-rank comm-op counts of a fault-free u64 run at world size `p`.
std::vector<std::uint64_t> elastic_ops(const Connectivity<2>& conn, std::uint64_t cid, int p) {
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(p), 0);
  const std::string dir = test_dir("elastic_u64_ops_p" + std::to_string(p));
  par::run(p, [&](par::Comm& c) {
    resil::RecoveryContext ctx(0);
    (void)elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
    ops[static_cast<std::size_t>(c.rank())] = ops_of(c.stats());
  });
  return ops;
}

}  // namespace

// Rank failure under policy=shrink: the supervisor re-forms a (P-1)-rank
// world in place, the retry restores the latest snapshot elastically, and the
// final state is bit-identical to the fault-free run — at P in {2, 4, 8},
// with MTTR bookkeeping recording the fault -> restored interval.
TEST(ShrinkRecovery, ReformsSmallerWorldBitIdentically) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::uint64_t base = elastic_baseline(conn, cid);
  ASSERT_NE(base, 0u);
  for (const int P : {2, 4, 8}) {
    int victim = -1;
    const std::uint64_t seed = pick_kill_seed(P, P, &victim);
    const auto ops = elastic_ops(conn, cid, P);
    par::RunOptions opts;
    opts.inject.seed = seed;
    opts.inject.kill_rank_stride = P;
    // ~3/4 through the victim's fault-free op count: after the first
    // checkpoint (written every step), before the run can finish.
    opts.inject.kill_after_ops = ops[static_cast<std::size_t>(victim)] * 3 / 4;
    ASSERT_GT(opts.inject.kill_after_ops, 0u) << "P=" << P;
    resil::SupervisorOptions sopt;
    sopt.backoff.initial_s = 0.0;
    // The shrink exemption, not kill-clearing, must make the retry survive.
    sopt.clear_kill_on_retry = false;
    sopt.policy.on_rank_failure = resil::RecoveryMode::shrink;
    const std::string dir = test_dir("shrink_p" + std::to_string(P));
    std::uint64_t digest = 0;
    const auto stats = resil::supervise(
        P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
          const auto d = elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
          if (c.rank() == 0) digest = d;
        });
    EXPECT_EQ(stats.attempts, 2) << "P=" << P;
    EXPECT_EQ(stats.failures, 1) << "P=" << P;
    EXPECT_EQ(stats.healed_shrink, 1) << "P=" << P;
    EXPECT_EQ(stats.healed_spare, 0) << "P=" << P;
    EXPECT_EQ(stats.ranks_final, P - 1) << "P=" << P;
    EXPECT_EQ(digest, base) << "P=" << P;
    // The repair interval (fault -> first restore of the retry) was recorded.
    EXPECT_EQ(stats.repairs, 1) << "P=" << P;
    EXPECT_GT(stats.repair_s, 0.0) << "P=" << P;
    EXPECT_GT(stats.mttr_s(), 0.0) << "P=" << P;
    EXPECT_NE(stats.summary().find("shrink=1"), std::string::npos);
  }
}

// Rank failure under policy=spare: a pre-allocated spare substitutes for the
// dead node, the world size is unchanged, and the result still matches.
TEST(SpareRecovery, ConsumesASpareAndKeepsWorldSize) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::uint64_t base = elastic_baseline(conn, cid);
  constexpr int P = 4;
  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(P, P, &victim);
  const auto ops = elastic_ops(conn, cid, P);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = P;
  opts.inject.kill_after_ops = ops[static_cast<std::size_t>(victim)] * 3 / 4;
  ASSERT_GT(opts.inject.kill_after_ops, 0u);
  resil::SupervisorOptions sopt;
  sopt.backoff.initial_s = 0.0;
  sopt.clear_kill_on_retry = false;
  sopt.policy.on_rank_failure = resil::RecoveryMode::spare;
  sopt.policy.spares = 1;
  const std::string dir = test_dir("spare");
  std::uint64_t digest = 0;
  const auto stats = resil::supervise(
      P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
        const auto d = elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
        if (c.rank() == 0) digest = d;
      });
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.healed_spare, 1);
  EXPECT_EQ(stats.healed_shrink, 0);
  EXPECT_EQ(stats.ranks_final, P);  // the spare kept the world at full size
  EXPECT_EQ(digest, base);
  EXPECT_NE(stats.summary().find("spare=1"), std::string::npos);
}

namespace {

/// First seed for which exactly two of `nranks` ranks are kill victims, both
/// below nranks - 1 (so both still exist after the first shrink).
std::uint64_t pick_double_kill_seed(int nranks, int stride, int* v0, int* v1) {
  for (std::uint64_t seed = 1; seed < 20000; ++seed) {
    par::InjectConfig cfg;
    cfg.seed = seed;
    cfg.kill_rank_stride = stride;
    cfg.kill_after_ops = 1;
    std::vector<int> victims;
    for (int r = 0; r < nranks; ++r) {
      if (par::detail::is_kill_rank(cfg, r)) victims.push_back(r);
    }
    if (victims.size() == 2 && victims[1] < nranks - 1) {
      *v0 = victims[0];
      *v1 = victims[1];
      return seed;
    }
  }
  ADD_FAILURE() << "no double-victim kill seed found";
  return 0;
}

}  // namespace

// Back-to-back double failure under policy=shrink: two distinct victims die
// (the per-rank kill hash persists across retries — clear_kill_on_retry is
// off), the supervisor shrinks twice, exempting one victim per caught
// failure, and the P-2 world still reproduces the baseline bit for bit.
TEST(ShrinkRecovery, BackToBackDoubleFailureShrinksTwice) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::uint64_t base = elastic_baseline(conn, cid);
  constexpr int P = 4;
  int v0 = -1, v1 = -1;
  const std::uint64_t seed = pick_double_kill_seed(P, 2, &v0, &v1);
  ASSERT_NE(v0, v1);
  const auto ops = elastic_ops(conn, cid, P);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = 2;
  opts.inject.kill_after_ops =
      std::min(ops[static_cast<std::size_t>(v0)], ops[static_cast<std::size_t>(v1)]) * 3 / 4;
  ASSERT_GT(opts.inject.kill_after_ops, 0u);
  resil::SupervisorOptions sopt;
  sopt.max_retries = 3;
  sopt.backoff.initial_s = 0.0;
  sopt.clear_kill_on_retry = false;
  sopt.policy.on_rank_failure = resil::RecoveryMode::shrink;
  const std::string dir = test_dir("double_shrink");
  std::uint64_t digest = 0;
  const auto stats = resil::supervise(
      P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
        const auto d = elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
        if (c.rank() == 0) digest = d;
      });
  EXPECT_EQ(stats.healed_shrink, 2);
  EXPECT_EQ(stats.failures, 2);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.ranks_final, P - 2);
  EXPECT_EQ(digest, base);
}

// At the min_ranks floor, a shrink-policy rank failure escalates to a full
// restart (the bottom of the ladder) instead of shrinking below the floor.
TEST(ShrinkRecovery, EscalatesToRestartAtTheFloor) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  const std::uint64_t base = elastic_baseline(conn, cid);
  constexpr int P = 2;
  int victim = -1;
  const std::uint64_t seed = pick_kill_seed(P, P, &victim);
  const auto ops = elastic_ops(conn, cid, P);
  par::RunOptions opts;
  opts.inject.seed = seed;
  opts.inject.kill_rank_stride = P;
  opts.inject.kill_after_ops = ops[static_cast<std::size_t>(victim)] * 3 / 4;
  resil::SupervisorOptions sopt;
  sopt.backoff.initial_s = 0.0;
  sopt.policy.on_rank_failure = resil::RecoveryMode::shrink;
  sopt.policy.min_ranks = P;  // already at the floor: shrink is not allowed
  const std::string dir = test_dir("shrink_floor");
  std::uint64_t digest = 0;
  const auto stats = resil::supervise(
      P, opts, sopt, nullptr, [&](par::Comm& c, resil::RecoveryContext& ctx) {
        const auto d = elastic_u64_body(c, ctx, conn, cid, dir, elastic_steps);
        if (c.rank() == 0) digest = d;
      });
  EXPECT_EQ(stats.healed_shrink, 0);
  EXPECT_EQ(stats.healed_restart, 1);  // clear_kill_on_retry healed it
  EXPECT_EQ(stats.ranks_final, P);
  EXPECT_EQ(digest, base);
}
