// Collective implementations: real message-passing algorithms on send/recv.
//   bcast      binomial tree rooted at `root`
//   reduce     binomial tree (reverse of bcast)
//   allreduce  recursive doubling with the standard non-power-of-two
//              pre/post folding of the remainder ranks
//   allgather  recursive doubling (power-of-two P), ring otherwise
//   allgatherv ring (P-1 rounds, neighbor exchange)
//   exscan     rank chain (rank r receives the prefix from r-1)
//   alltoallv  pairwise: P-1 buffered sends, then P-1 receives
//
// Internal collective traffic uses a mailbox plane separate from user
// point-to-point traffic, so a wildcard user recv can never steal a
// collective message. Tags encode (collective sequence number, round) —
// all ranks issue collectives in the same order, so the sequence numbers
// agree across ranks by construction.
#include <cstring>
#include <stdexcept>

#include "par/comm.h"
#include "par/crc32c.h"
#include "par/world.h"

namespace esamr::par {

namespace {

constexpr int max_round = 2048;  ///< rounds per collective in the tag space
constexpr int round_pre = 1024;  ///< allreduce non-pof2 pre-fold round id
constexpr int round_post = 1025;

bool is_pof2(int n) { return n > 0 && (n & (n - 1)) == 0; }

int log2i(int pof2) {
  int l = 0;
  while ((1 << l) < pof2) ++l;
  return l;
}

int pof2_below(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

void Comm::coll_begin(Coll kind, std::size_t payload_bytes, std::uint64_t invariant, int root,
                      check::Site site) {
  maybe_kill();
  auto& st = stats();
  const auto idx = static_cast<std::size_t>(kind);
  ++st.coll_calls[idx];
  st.coll_payload_bytes[idx] += static_cast<std::int64_t>(payload_bytes);
  coll_tag_base_ = static_cast<int>((coll_seq_ % 1000000ULL) * static_cast<std::uint64_t>(max_round));
  if (checker_ != nullptr) {
    coll_site_ = site;
    check::Fingerprint fp;
    fp.kind = static_cast<std::uint8_t>(kind);
    fp.root = static_cast<std::int16_t>(root);
    fp.invariant = invariant;
    fp.site = site;
    checker_->collective(rank_, coll_seq_, fp, /*result_pass=*/false, world_);
  }
  ++coll_seq_;
}

void Comm::coll_check_result(const void* data, std::size_t nbytes) {
  if (checker_ == nullptr || checker_->level() < 2) return;
  check::Fingerprint fp;
  fp.kind = 0xff;
  fp.invariant = crc32c(data, nbytes);
  fp.site = coll_site_;
  checker_->collective(rank_, coll_seq_ - 1, fp, /*result_pass=*/true, world_);
}

void Comm::coll_check_result(const std::vector<std::vector<std::byte>>& parts) {
  if (checker_ == nullptr || checker_->level() < 2) return;
  // Digest of (size, CRC) per part; rank-invariant iff every part agrees.
  std::vector<std::uint64_t> digest;
  digest.reserve(parts.size() * 2);
  for (const auto& p : parts) {
    digest.push_back(p.size());
    digest.push_back(crc32c(p.data(), p.size()));
  }
  coll_check_result(digest.data(), digest.size() * sizeof(std::uint64_t));
}

void Comm::send_coll(int dest, int round, const void* data, std::size_t nbytes) {
  ESAMR_ASSERT(round >= 0 && round < max_round, rank_,
               "par: collective round " + std::to_string(round) + " overflows the tag space");
  send_impl(true, dest, coll_tag_base_ + round, Buffer::copy_of(data, nbytes));
  auto& st = stats();
  ++st.coll_msgs;
  st.coll_bytes += static_cast<std::int64_t>(nbytes);
}

Message Comm::recv_coll(int source, int round, Coll kind) {
  ESAMR_ASSERT(round >= 0 && round < max_round, rank_,
               "par: collective round " + std::to_string(round) + " overflows the tag space");
  const double t0 = wall_seconds();
  Message m = recv_impl(true, source, coll_tag_base_ + round, coll_name(kind), coll_site_);
  verify_envelope(m, coll_name(kind));
  stats().recv_blocked_s += wall_seconds() - t0;
  return m;
}

// --- Algorithms -------------------------------------------------------------

void Comm::p2p_binomial_bcast(std::vector<std::byte>& buf, int root) {
  const int p = size();
  if (p == 1) return;
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p && !(vr & mask)) mask <<= 1;
  if (vr != 0) {
    // mask is now the lowest set bit of vr: the edge we receive on.
    const int vsrc = vr - mask;
    Message m = recv_coll((vsrc + root) % p, log2i(mask), Coll::bcast);
    buf = m.take_bytes();
  }
  mask >>= 1;
  while (mask > 0) {
    const int vdst = vr + mask;
    if (vdst < p) send_coll((vdst + root) % p, log2i(mask), buf.data(), buf.size());
    mask >>= 1;
  }
}

void Comm::p2p_binomial_reduce(void* inout, std::size_t nbytes, int root, const Combine& op) {
  const int p = size();
  if (p == 1) return;
  std::vector<std::byte> acc(nbytes);
  if (nbytes > 0) std::memcpy(acc.data(), inout, nbytes);
  const int vr = (rank_ - root + p) % p;
  int mask = 1, round = 0;
  while (mask < p) {
    if (vr & mask) {
      send_coll((vr - mask + root) % p, round, acc.data(), nbytes);
      break;
    }
    const int vsrc = vr | mask;
    if (vsrc < p) {
      Message m = recv_coll((vsrc + root) % p, round, Coll::reduce);
      op(acc.data(), m.data());
    }
    mask <<= 1;
    ++round;
  }
  if (rank_ == root && nbytes > 0) std::memcpy(inout, acc.data(), nbytes);
}

void Comm::p2p_rd_allreduce(void* inout, std::size_t nbytes, const Combine& op) {
  const int p = size();
  if (p == 1) return;
  const int pof2 = pof2_below(p), rem = p - pof2;
  // Fold the remainder ranks into their even/odd partner so a power of two
  // participates in the doubling rounds.
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send_coll(rank_ + 1, round_pre, inout, nbytes);
      newrank = -1;
    } else {
      Message m = recv_coll(rank_ - 1, round_pre, Coll::allreduce);
      op(inout, m.data());
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }
  if (newrank != -1) {
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int npartner = newrank ^ mask;
      const int partner = npartner < rem ? npartner * 2 + 1 : npartner + rem;
      send_coll(partner, round, inout, nbytes);
      Message m = recv_coll(partner, round, Coll::allreduce);
      op(inout, m.data());
    }
  }
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send_coll(rank_ - 1, round_post, inout, nbytes);
    } else {
      Message m = recv_coll(rank_ + 1, round_post, Coll::allreduce);
      if (nbytes > 0) std::memcpy(inout, m.data(), nbytes);
    }
  }
}

std::vector<std::vector<std::byte>> Comm::p2p_rd_allgather(const void* data, std::size_t nbytes) {
  const int p = size();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(rank_)].resize(nbytes);
  if (nbytes > 0) std::memcpy(out[static_cast<std::size_t>(rank_)].data(), data, nbytes);
  // Each round exchanges every block held so far with the partner across the
  // current hypercube dimension; blocks travel as (int32 origin, payload).
  const std::size_t rec = sizeof(std::int32_t) + nbytes;
  std::vector<int> held{rank_};
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const int partner = rank_ ^ mask;
    std::vector<std::byte> buf(held.size() * rec);
    for (std::size_t i = 0; i < held.size(); ++i) {
      const std::int32_t origin = held[i];
      std::memcpy(buf.data() + i * rec, &origin, sizeof(origin));
      if (nbytes > 0) {
        std::memcpy(buf.data() + i * rec + sizeof(origin),
                    out[static_cast<std::size_t>(origin)].data(), nbytes);
      }
    }
    send_coll(partner, round, buf.data(), buf.size());
    Message m = recv_coll(partner, round, Coll::allgather);
    const std::size_t got = m.size() / rec;
    for (std::size_t i = 0; i < got; ++i) {
      std::int32_t origin;
      std::memcpy(&origin, m.data() + i * rec, sizeof(origin));
      auto& blk = out[static_cast<std::size_t>(origin)];
      blk.resize(nbytes);
      if (nbytes > 0) std::memcpy(blk.data(), m.data() + i * rec + sizeof(origin), nbytes);
      held.push_back(origin);
    }
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::p2p_ring_allgatherv(const void* data, std::size_t nbytes,
                                                              Coll kind) {
  const int p = size();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(rank_)].resize(nbytes);
  if (nbytes > 0) std::memcpy(out[static_cast<std::size_t>(rank_)].data(), data, nbytes);
  if (p == 1) return out;
  const int next = (rank_ + 1) % p, prev = (rank_ + p - 1) % p;
  for (int round = 0; round < p - 1; ++round) {
    // Forward the block that originated `round` hops behind us; receive the
    // block originating `round + 1` hops behind.
    const int fwd = (rank_ + p - round) % p;
    send_coll(next, round, out[static_cast<std::size_t>(fwd)].data(),
              out[static_cast<std::size_t>(fwd)].size());
    const int got = (rank_ + p - 1 - round) % p;
    Message m = recv_coll(prev, round, kind);
    out[static_cast<std::size_t>(got)] = m.take_bytes();
  }
  return out;
}

void Comm::p2p_chain_exscan(const void* mine, void* prefix, std::size_t nbytes, const Combine& op) {
  const int p = size();
  if (rank_ > 0) {
    Message m = recv_coll(rank_ - 1, 0, Coll::exscan);
    if (nbytes > 0) std::memcpy(prefix, m.data(), nbytes);
  }
  if (rank_ < p - 1) {
    std::vector<std::byte> next(nbytes);
    if (nbytes > 0) std::memcpy(next.data(), prefix, nbytes);
    op(next.data(), mine);
    send_coll(rank_ + 1, 0, next.data(), next.size());
  }
}

std::vector<std::vector<std::byte>> Comm::p2p_alltoall(
    std::vector<std::vector<std::byte>> sendbufs) {
  const int p = size();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(rank_)] = std::move(sendbufs[static_cast<std::size_t>(rank_)]);
  // Buffered sends never block, so everyone sends first (staggered start so
  // rank pairs do not all target the same destination at once), then drains.
  for (int off = 1; off < p; ++off) {
    const int dst = (rank_ + off) % p;
    send_coll(dst, 0, sendbufs[static_cast<std::size_t>(dst)].data(),
              sendbufs[static_cast<std::size_t>(dst)].size());
  }
  for (int off = 1; off < p; ++off) {
    const int src = (rank_ + p - off) % p;
    Message m = recv_coll(src, 0, Coll::alltoall);
    out[static_cast<std::size_t>(src)] = m.take_bytes();
  }
  return out;
}

// --- Entry points -----------------------------------------------------------

void Comm::bcast_bytes(std::vector<std::byte>& buf, int root, std::source_location loc) {
  ESAMR_ASSERT(root >= 0 && root < size(), rank_,
               "par::bcast: root rank " + std::to_string(root) + " out of range [0, " +
                   std::to_string(size()) + ")");
  perturb();
  // The payload size is only meaningful on the root (non-roots are resized),
  // so it is not part of the cross-rank fingerprint.
  coll_begin(Coll::bcast, rank_ == root ? buf.size() : 0, 0, root, check::Site::of(loc));
  p2p_binomial_bcast(buf, root);
  coll_check_result(buf.data(), buf.size());
}

std::vector<std::vector<std::byte>> Comm::allgather_bytes(const void* data, std::size_t nbytes,
                                                          std::source_location loc) {
  perturb();
  coll_begin(Coll::allgather, nbytes, nbytes, -1, check::Site::of(loc));
  auto out = is_pof2(size()) ? p2p_rd_allgather(data, nbytes)
                             : p2p_ring_allgatherv(data, nbytes, Coll::allgather);
  coll_check_result(out);
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgatherv_bytes(const void* data, std::size_t nbytes,
                                                           std::source_location loc) {
  perturb();
  coll_begin(Coll::allgatherv, nbytes, 0, -1, check::Site::of(loc));
  auto out = p2p_ring_allgatherv(data, nbytes, Coll::allgatherv);
  coll_check_result(out);
  return out;
}

std::vector<std::vector<std::byte>> Comm::alltoall_bytes(
    std::vector<std::vector<std::byte>> sendbufs, std::source_location loc) {
  ESAMR_ASSERT(static_cast<int>(sendbufs.size()) == size(), rank_,
               "par::alltoall: sendbufs holds " + std::to_string(sendbufs.size()) +
                   " buffers, expected one per rank (" + std::to_string(size()) + ")");
  perturb();
  std::size_t payload = 0;
  for (const auto& b : sendbufs) payload += b.size();
  coll_begin(Coll::alltoall, payload, 0, -1, check::Site::of(loc));
  return p2p_alltoall(std::move(sendbufs));
}

void Comm::allreduce_bytes(void* inout, std::size_t nbytes, const Combine& op,
                           std::source_location loc) {
  perturb();
  coll_begin(Coll::allreduce, nbytes, nbytes, -1, check::Site::of(loc));
  p2p_rd_allreduce(inout, nbytes, op);
  coll_check_result(inout, nbytes);
}

void Comm::reduce_bytes(void* inout, std::size_t nbytes, int root, const Combine& op,
                        std::source_location loc) {
  ESAMR_ASSERT(root >= 0 && root < size(), rank_,
               "par::reduce: root rank " + std::to_string(root) + " out of range [0, " +
                   std::to_string(size()) + ")");
  perturb();
  coll_begin(Coll::reduce, nbytes, nbytes, root, check::Site::of(loc));
  p2p_binomial_reduce(inout, nbytes, root, op);
}

void Comm::exscan_bytes(const void* mine, void* prefix, std::size_t nbytes, const Combine& op,
                        std::source_location loc) {
  perturb();
  coll_begin(Coll::exscan, nbytes, nbytes, -1, check::Site::of(loc));
  p2p_chain_exscan(mine, prefix, nbytes, op);
}

CommStatsSnapshot Comm::stats_snapshot() {
  // Every rank's counters are frozen between the two barriers: a rank writes
  // only its own CommStats, and none writes until all have copied. The
  // barriers go straight to World so their blocked time is not charged.
  world_->barrier_wait(rank_);
  CommStatsSnapshot snap;
  snap.per_rank = world_->stats;
  world_->barrier_wait(rank_);
  for (const auto& s : snap.per_rank) snap.total += s;
  return snap;
}

}  // namespace esamr::par
