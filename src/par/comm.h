// esamr::par — in-process SPMD message-passing runtime ("Comm v2").
//
// This is the MPI substitute for the reproduction (see DESIGN.md): P "ranks"
// run as threads inside one process and communicate exclusively through the
// Comm interface below — buffered tagged point-to-point messages plus the
// small set of collectives the forest algorithms need (barrier, bcast,
// reduce, allgather(v), allreduce, exclusive scan, alltoallv). Algorithms
// written against Comm are structured exactly as they would be against MPI:
// all octant/element storage is rank-local and every exchange is explicit.
//
// Collectives are real point-to-point algorithms layered on the send/recv
// primitives — binomial-tree bcast/reduce, recursive-doubling
// allreduce/allgather (ring fallback for non-power-of-two sizes), ring
// allgatherv, pairwise alltoallv, chain exscan — so their message counts and
// byte volumes mirror what the paper's cost model analyzes.
//
// Every rank carries a CommStats (par/stats.h) with message/byte counters and
// blocked-time accounting, and RunOptions can enable deterministic fault
// injection (par/inject.h) plus recv/barrier timeouts that turn silent
// deadlocks into a TimeoutError naming the blocked rank and envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <source_location>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "par/backoff.h"
#include "par/buffer.h"
#include "par/check.h"
#include "par/inject.h"
#include "par/stats.h"

namespace esamr::par {

/// Wildcard for Comm::recv / Comm::irecv source matching.
inline constexpr int any_source = -1;
/// Wildcard for Comm::recv / Comm::irecv tag matching.
inline constexpr int any_tag = -1;

/// Reduction operators for Comm::allreduce / Comm::reduce.
enum class ReduceOp { sum, min, max, logical_or, logical_and };

/// Link-level automatic repeat request — the cheapest rung of the graded
/// recovery ladder (DESIGN.md "Recovery ladder"). With integrity on, every
/// sealed message carries a zero-copy reference to its clean payload
/// (Message::retained) until the receiver's CRC verification releases it.
/// On a CRC failure the receiver, instead of escalating CorruptMessage to
/// the supervisor, re-reads that payload under a bounded seeded-backoff
/// loop; only when the budget is exhausted (retransmissions keep drawing
/// injected faults) does the corruption escalate. Heals, retransmissions and
/// escalations are counted in the receiver's CommStats.
struct ArqConfig {
  bool enabled = true;
  /// Retransmission requests per corrupt message before escalating.
  int max_retransmits = 3;
  /// Seeded backoff between retransmission requests; microsecond scale by
  /// default — a link retry must stay orders of magnitude cheaper than the
  /// supervisor's restart backoff.
  BackoffPolicy backoff{100e-6, 2.0, 2e-3, 0.5};
};

/// Options for one SPMD section.
struct RunOptions {
  InjectConfig inject{};
  /// End-to-end message integrity: senders stamp a CRC32C + length envelope
  /// on every payload (point-to-point and collective-internal) and receivers
  /// verify it before the bytes are used, throwing CorruptMessage on
  /// mismatch. Default on; set false to measure the unprotected fast path
  /// (bench_comm).
  bool integrity = true;
  /// Link-level retransmission of corrupt messages (see ArqConfig). Active
  /// only when `integrity` is also on.
  ArqConfig arq{};
  /// Heartbeat failure detection: every comm operation (and every slice of a
  /// blocked wait) stamps the rank's liveness; a rank silent for longer than
  /// this window — and not yet returned from its SPMD function — is declared
  /// dead by the first peer to notice from inside a blocked recv/barrier,
  /// which throws RankFailure naming the dead rank, the detector, and the
  /// detector's wait site. Converts silent rank death (InjectConfig::
  /// kill_silent) into a named fault within a bounded window instead of a
  /// hang-then-timeout. 0 = disarmed. The window must comfortably exceed the
  /// longest compute-only gap between a rank's comm operations.
  double heartbeat_timeout_s = 0.0;
  /// recv (point-to-point and inside collectives) fails with TimeoutError
  /// after this many seconds without a matching visible message; 0 = wait
  /// forever.
  double recv_timeout_s = 0.0;
  /// barrier fails with TimeoutError after this many seconds; 0 = forever.
  double barrier_timeout_s = 0.0;
  /// SPMD correctness checking level (par/check.h): 0 = off, 1 = race +
  /// collective-matching + deadlock detectors, 2 = additionally CRC the
  /// rank-invariant results of bcast/allreduce/allgather(v). The default -1
  /// defers to the ESAMR_CHECK environment variable (absent = off); an
  /// explicit 0 overrides the environment.
  int check = -1;
};

/// Thrown by recv/barrier when a configured timeout expires. The message
/// names the blocked rank and the envelope (source, tag, collective) it was
/// waiting on — a deadlock diagnostic instead of a silent hang.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown from a victim rank's comm operation when seeded rank-kill
/// injection fires (InjectConfig::{kill_rank_stride, kill_after_ops}),
/// modelling a one-shot node failure. Like any rank error it poisons the
/// world so peer ranks unwind, and is re-thrown from par::run; the
/// resil::supervise loop catches it and retries from a checkpoint.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int rank, std::uint64_t op)
      : std::runtime_error("esamr::par rank failure injected: rank " + std::to_string(rank) +
                           " killed at comm op " + std::to_string(op)),
        rank_(rank) {}
  /// Heartbeat-detector verdict: `rank` was silent for `silent_s` seconds and
  /// was declared dead by `detector` (the peer whose blocked wait noticed).
  /// `what` carries the full diagnostic including the detector's wait site.
  RankFailure(int rank, int detector, double silent_s, const std::string& what)
      : std::runtime_error(what), rank_(rank), detector_(detector), silent_s_(silent_s) {}
  /// The rank that failed (the victim, not the detector).
  int rank() const noexcept { return rank_; }
  /// The peer that detected the failure, or -1 when the failure was thrown
  /// by the victim itself (injected kill).
  int detector() const noexcept { return detector_; }
  /// How long the victim had been silent at detection (0 for injected kills).
  double silent_s() const noexcept { return silent_s_; }

 private:
  int rank_;
  int detector_ = -1;
  double silent_s_ = 0.0;
};

/// Thrown by the receiving rank when a message payload fails its integrity
/// envelope (CRC32C + length stamped at the sender): a silent-data-corruption
/// event turned into a diagnosed fault. The message names the receiver, the
/// sender, and both the expected and observed (bytes, CRC). Like any rank
/// error it poisons the world; resil::supervise classifies it as recoverable
/// and retries from the last snapshot.
class CorruptMessage : public std::runtime_error {
 public:
  CorruptMessage(int rank, int source, const std::string& what)
      : std::runtime_error(what), rank_(rank), source_(source) {}
  /// The rank that detected the corruption (the receiver).
  int rank() const noexcept { return rank_; }
  /// The rank whose payload arrived corrupted.
  int source() const noexcept { return source_; }

 private:
  int rank_;
  int source_;
};

/// CRC32C + length integrity envelope stamped on a payload at the sender and
/// verified at every receiver.
struct Seal {
  std::uint32_t crc = 0;
  std::uint64_t nbytes = 0;
  bool stamped = false;  ///< false = integrity was off at the writer
};

/// A received point-to-point message: envelope plus a shared immutable
/// payload view (par/buffer.h). The same storage may still be referenced by
/// the sender's pending Request; reading is always safe, and take_bytes()
/// moves the storage out only when this message holds the last reference.
struct Message {
  int source = any_source;
  int tag = any_tag;
  Buffer payload;
  /// Per-(source, destination) post sequence number, stamped when the send
  /// was posted (send or isend). Fault injection keys its payload/delay
  /// streams on this, so victims are fixed at post time regardless of the
  /// order requests later complete in.
  std::uint64_t seq = 0;
  /// Integrity envelope (RunOptions::integrity): the payload CRC32C and byte
  /// count stamped once at the sender over the shared storage, verified by
  /// the receiver in place — no second copy on either side.
  Seal seal;
  /// Link-level ARQ (ArqConfig): the clean sealed payload, shared with
  /// `payload` at send time (one refcount, no copy) so a corrupt delivery
  /// can be redelivered from it. Released once the payload verifies, as
  /// delivered or healed.
  Buffer retained;
  /// Internal: earliest wall time (par::wall_seconds) at which the message
  /// is visible to recv/irecv under fault injection. 0 = immediately.
  double visible_at = 0.0;
  /// Internal: the sender's vector clock at send time, stamped only when the
  /// correctness checker (par/check.h) is enabled; carries the
  /// happens-before edge to the receiver.
  std::vector<std::uint32_t> hb;

  const std::byte* data() const noexcept { return payload.data(); }
  std::size_t size() const noexcept { return payload.size(); }

  /// Zero-copy typed view of the payload in place (the fast-path consumer).
  template <typename T>
  std::span<const T> view() const {
    static_assert(std::is_trivially_copyable_v<T>);
    ESAMR_ASSERT(size() % sizeof(T) == 0, source,
                 "par::Message::view: payload size " + std::to_string(size()) +
                     " is not a multiple of element size " + std::to_string(sizeof(T)) +
                     " (tag " + std::to_string(tag) + ")");
    ESAMR_ASSERT(reinterpret_cast<std::uintptr_t>(data()) % alignof(T) == 0, source,
                 "par::Message::view: payload is not aligned for the element type");
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }

  /// Move the payload bytes out (zero-copy when this message holds the last
  /// reference to the storage; see Buffer::take_bytes).
  std::vector<std::byte> take_bytes() { return std::move(payload).take_bytes(); }

  /// Reinterpret the payload as an array of trivially copyable T (copies).
  template <typename T>
  std::vector<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    ESAMR_ASSERT(size() % sizeof(T) == 0, source,
                 "par::Message::as: payload size " + std::to_string(size()) +
                     " is not a multiple of element size " + std::to_string(sizeof(T)) +
                     " (tag " + std::to_string(tag) + ")");
    std::vector<T> out(size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), data(), size());
    return out;
  }

  /// Reinterpret the payload as exactly one T.
  template <typename T>
  T value() const {
    auto v = as<T>();
    ESAMR_ASSERT(v.size() == 1, source,
                 "par::Message::value: payload holds " + std::to_string(v.size()) +
                     " elements, expected exactly one (tag " + std::to_string(tag) + ")");
    return v[0];
  }
};

class World;
class Comm;

namespace detail {
struct RequestState;
}  // namespace detail

/// Handle for a pending nonblocking point-to-point operation (isend /
/// irecv). Move-only. Completion semantics:
///   - test(): one nonblocking progress attempt; true once complete.
///   - wait(): block (with the usual timeout / deadlock machinery) until
///     complete, then return. An irecv's message is read through message().
///   - Destroying an incomplete Request drains it: ownership of a send
///     buffer returns to the runtime for disposal and the checker's
///     in-flight region is retired (CommStats::requests_drained counts it).
///     resil::supervise relies on this when a fault unwinds a rank with
///     requests still pending.
class Request {
 public:
  Request() noexcept;
  Request(Request&&) noexcept;
  Request& operator=(Request&&) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request();

  bool valid() const noexcept { return st_ != nullptr; }
  /// True once the operation has completed (never blocks; makes progress).
  bool test();
  /// Block until the operation completes.
  void wait();

  /// The received message (irecv only; wait()/test() must have completed).
  Message& message();

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> st) noexcept;
  std::shared_ptr<detail::RequestState> st_;
};

/// Complete every valid request, in order (order is immaterial: sends are
/// buffered and receives match by envelope, so any completion order works).
void wait_all(std::span<Request> requests);

/// Per-rank communicator handle. One Comm per rank thread; methods are only
/// ever invoked by the owning rank's thread (SPMD style).
class Comm {
 public:
  Comm(World* world, int rank);

  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  // --- Point-to-point -----------------------------------------------------
  // Sends are buffered and never block; receives block until a matching
  // message (by source and tag, wildcards allowed) is available.

  void send_bytes(int dest, int tag, const void* data, std::size_t nbytes);

  /// Zero-copy send: the Buffer's storage is shared with the mailbox, not
  /// copied (adopt a vector first for a fully copy-free path).
  void send(int dest, int tag, Buffer payload);

  template <typename T>
  void send(int dest, int tag, std::span<const T> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, payload.data(), payload.size_bytes());
  }
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& payload) {
    send(dest, tag, std::span<const T>(payload));
  }
  /// Zero-copy typed send: adopts the vector's storage.
  template <typename T>
  void send(int dest, int tag, std::vector<T>&& payload) {
    send(dest, tag, Buffer::adopt_vec(std::move(payload)));
  }
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, &v, sizeof(T));
  }

  /// Blocking receive of the first message matching (source, tag).
  Message recv(int source = any_source, int tag = any_tag,
               std::source_location loc = std::source_location::current());

  // --- Nonblocking point-to-point ------------------------------------------
  // isend posts the message immediately (sends are buffered, so the transfer
  // itself cannot block); the Request tracks buffer ownership: from post to
  // completion the payload storage belongs to the runtime, and with the
  // checker enabled any write into the range is a diagnosed race. irecv
  // registers interest; test()/wait() match and consume the message.

  /// Zero-copy nonblocking send of an adopted payload.
  Request isend(int dest, int tag, Buffer payload,
                std::source_location loc = std::source_location::current());
  /// Zero-copy typed nonblocking send: adopts the vector's storage.
  template <typename T>
  Request isend(int dest, int tag, std::vector<T>&& payload,
                std::source_location loc = std::source_location::current()) {
    return isend(dest, tag, Buffer::adopt_vec(std::move(payload)), loc);
  }
  /// Nonblocking receive of the first message matching (source, tag).
  Request irecv(int source = any_source, int tag = any_tag,
                std::source_location loc = std::source_location::current());

  // --- Collectives ---------------------------------------------------------
  // All ranks must call each collective in the same order. The typed
  // templates below wrap the byte-level entry points. The defaulted
  // source_location captures the user call site for the correctness
  // checker's diagnostics (par/check.h); it is never passed explicitly.

  /// In-place combiner for the byte-level reductions: op(acc, in) folds `in`
  /// into `acc`; both point at `nbytes` bytes. Must be commutative (all
  /// ReduceOp combiners are).
  using Combine = std::function<void(void* acc, const void* in)>;

  void barrier(std::source_location loc = std::source_location::current());

  /// In-place broadcast: on the root `buf` is the payload; on every other
  /// rank `buf` is replaced by the root's payload (resized as needed).
  void bcast_bytes(std::vector<std::byte>& buf, int root,
                   std::source_location loc = std::source_location::current());

  /// Gather `nbytes` bytes from every rank; result[r] is rank r's payload.
  /// All ranks must pass the same nbytes (use allgatherv_bytes otherwise).
  std::vector<std::vector<std::byte>> allgather_bytes(
      const void* data, std::size_t nbytes,
      std::source_location loc = std::source_location::current());

  /// Variable-length gather; result[r] is rank r's payload.
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const void* data, std::size_t nbytes,
      std::source_location loc = std::source_location::current());

  /// Personalized all-to-all; sendbufs[d] goes to rank d, result[s] came from s.
  std::vector<std::vector<std::byte>> alltoall_bytes(
      std::vector<std::vector<std::byte>> sendbufs,
      std::source_location loc = std::source_location::current());

  /// All ranks end with the reduction over every rank's `inout` contribution.
  void allreduce_bytes(void* inout, std::size_t nbytes, const Combine& op,
                       std::source_location loc = std::source_location::current());

  /// The root ends with the reduction; other ranks' `inout` is unchanged.
  void reduce_bytes(void* inout, std::size_t nbytes, int root, const Combine& op,
                    std::source_location loc = std::source_location::current());

  /// Exclusive scan: `prefix` must arrive holding the identity value and ends
  /// holding the fold of ranks [0, rank) contributions (`mine`).
  void exscan_bytes(const void* mine, void* prefix, std::size_t nbytes, const Combine& op,
                    std::source_location loc = std::source_location::current());

  /// Gather one fixed-size value per rank.
  template <typename T>
  std::vector<T> allgather(const T& v,
                           std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = allgather_bytes(&v, sizeof(T), loc);
    std::vector<T> out(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) std::memcpy(&out[r], raw[r].data(), sizeof(T));
    return out;
  }

  /// Gather a variable-length array from every rank; result[r] = rank r's array.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(
      std::span<const T> v, std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = allgatherv_bytes(v.data(), v.size_bytes(), loc);
    std::vector<std::vector<T>> out(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) {
      out[r].resize(raw[r].size() / sizeof(T));
      if (!out[r].empty()) std::memcpy(out[r].data(), raw[r].data(), raw[r].size());
    }
    return out;
  }
  template <typename T>
  std::vector<std::vector<T>> allgatherv(
      const std::vector<T>& v, std::source_location loc = std::source_location::current()) {
    return allgatherv(std::span<const T>(v), loc);
  }

  template <typename T>
  T allreduce(T v, ReduceOp op, std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    allreduce_bytes(&v, sizeof(T), combine_fn<T>(op), loc);
    return v;
  }

  /// Reduction to one root (binomial tree). Returns the reduced value on the
  /// root and the rank's own `v` elsewhere.
  template <typename T>
  T reduce(T v, ReduceOp op, int root,
           std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    reduce_bytes(&v, sizeof(T), root, combine_fn<T>(op), loc);
    return v;
  }

  /// Exclusive prefix sum; rank 0 receives T{} (zero).
  template <typename T>
  T exscan_sum(T v, std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    exscan_bytes(&v, &out, sizeof(T), combine_fn<T>(ReduceOp::sum), loc);
    return out;
  }

  template <typename T>
  T bcast(const T& v, int root, std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> buf(sizeof(T));
    std::memcpy(buf.data(), &v, sizeof(T));
    bcast_bytes(buf, root, loc);
    T out;
    std::memcpy(&out, buf.data(), sizeof(T));
    return out;
  }

  template <typename T>
  std::vector<T> bcast_vector(const std::vector<T>& v, int root,
                              std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> buf(v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(buf.data(), v.data(), buf.size());
    bcast_bytes(buf, root, loc);
    std::vector<T> out(buf.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

  /// Typed personalized all-to-all: send[d] goes to rank d; result[s] from rank s.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<std::byte>> raw(send.size());
    for (std::size_t d = 0; d < send.size(); ++d) {
      raw[d].resize(send[d].size() * sizeof(T));
      if (!send[d].empty()) std::memcpy(raw[d].data(), send[d].data(), raw[d].size());
    }
    auto got = alltoall_bytes(std::move(raw), loc);
    std::vector<std::vector<T>> out(got.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      out[s].resize(got[s].size() / sizeof(T));
      if (!out[s].empty()) std::memcpy(out[s].data(), got[s].data(), got[s].size());
    }
    return out;
  }

  // --- Observability --------------------------------------------------------

  /// This rank's counters (mutable: callers may reset() between phases).
  CommStats& stats();
  const CommStats& stats() const;

  /// Collective: gather every rank's counters. The snapshot exchange itself
  /// is not counted. All ranks must call it together.
  CommStatsSnapshot stats_snapshot();

  /// The world's correctness checker, or nullptr when checking is off. Used
  /// by the annotation helpers in par/check.h (RegionGuard, note_access).
  check::Checker* checker() const noexcept { return checker_; }

  /// The section's fault-injection configuration (RunOptions::inject). The
  /// checkpoint writer consults it for seeded disk faults.
  const InjectConfig& inject_config() const noexcept;

  /// True when message-integrity envelopes are on (RunOptions::integrity).
  bool integrity() const noexcept { return integrity_; }

 private:
  template <typename T>
  static Combine combine_fn(ReduceOp op) {
    return [op](void* acc_p, const void* in_p) {
      T acc, in;
      std::memcpy(&acc, acc_p, sizeof(T));
      std::memcpy(&in, in_p, sizeof(T));
      switch (op) {
        case ReduceOp::sum: acc = static_cast<T>(acc + in); break;
        case ReduceOp::min: acc = in < acc ? in : acc; break;
        case ReduceOp::max: acc = acc < in ? in : acc; break;
        case ReduceOp::logical_or: acc = static_cast<T>(acc || in); break;
        case ReduceOp::logical_and: acc = static_cast<T>(acc && in); break;
      }
      std::memcpy(acc_p, &acc, sizeof(T));
    };
  }

  // Implemented in comm.cc.
  void send_impl(bool coll, int dest, int tag, Buffer payload);
  Message recv_impl(bool coll, int source, int tag, const char* what, check::Site site);
  /// Nonblocking matching scan of the user mailbox; true (and *out filled)
  /// when a visible matching message was consumed. No blocking, no wait
  /// publishing.
  bool try_recv_impl(int source, int tag, Message* out);
  // Request plumbing (comm.cc): one nonblocking progress attempt, blocking
  /// completion, and the destructor's non-throwing drain.
  bool req_test(detail::RequestState& st);
  void req_wait(detail::RequestState& st);
  void req_drop(detail::RequestState& st) noexcept;
  void perturb();
  void maybe_kill();
  /// Verify a received message's integrity envelope; counts bytes_verified /
  /// corrupt_detected. On mismatch with ARQ active, repairs the payload in
  /// place from `m.retained` under a bounded seeded-backoff retransmission
  /// loop; throws CorruptMessage only when ARQ is off or the budget is
  /// exhausted. A verified or healed message releases `m.retained`, so
  /// take_bytes stays zero-copy. `what` names the operation (recv /
  /// collective).
  void verify_envelope(Message& m, const char* what);
  /// True when the link-level ARQ layer is active (integrity + arq.enabled).
  bool arq_active() const noexcept;

  // Collective plumbing and algorithms, implemented in collectives.cc.
  /// `invariant` is the fingerprint component every rank must agree on (the
  /// payload size where the collective's contract makes it rank-invariant,
  /// 0 otherwise); `root` likewise for rooted collectives.
  void coll_begin(Coll kind, std::size_t payload_bytes, std::uint64_t invariant, int root,
                  check::Site site);
  /// Level-2 result pass: CRC the rank-invariant collective result and
  /// cross-check it through the ledger (no-op below ESAMR_CHECK=2).
  void coll_check_result(const void* data, std::size_t nbytes);
  void coll_check_result(const std::vector<std::vector<std::byte>>& parts);
  void send_coll(int dest, int round, const void* data, std::size_t nbytes);
  Message recv_coll(int source, int round, Coll kind);

  std::vector<std::vector<std::byte>> p2p_rd_allgather(const void* data, std::size_t nbytes);
  std::vector<std::vector<std::byte>> p2p_ring_allgatherv(const void* data, std::size_t nbytes,
                                                          Coll kind);
  void p2p_binomial_bcast(std::vector<std::byte>& buf, int root);
  void p2p_binomial_reduce(void* inout, std::size_t nbytes, int root, const Combine& op);
  void p2p_rd_allreduce(void* inout, std::size_t nbytes, const Combine& op);
  void p2p_chain_exscan(const void* mine, void* prefix, std::size_t nbytes, const Combine& op);
  std::vector<std::vector<std::byte>> p2p_alltoall(std::vector<std::vector<std::byte>> sendbufs);

  friend class Request;

  World* world_;
  int rank_;
  check::Checker* checker_ = nullptr;  ///< cached; null = checking off
  check::Site coll_site_{};     ///< user call site of the collective in progress
  bool slow_rank_ = false;      ///< seeded per-rank slowdown selection
  bool kill_rank_ = false;      ///< seeded rank-kill victim selection
  bool integrity_ = true;       ///< cached RunOptions::integrity
  int coll_tag_base_ = 0;       ///< tag base of the collective in progress
  std::uint64_t coll_seq_ = 0;  ///< collectives issued (lockstep across ranks)
  std::uint64_t op_seq_ = 0;    ///< perturbation stream position
  std::uint64_t kill_op_seq_ = 0;        ///< comm ops counted toward the kill
  std::vector<std::uint64_t> send_seq_;  ///< per-destination send counters
};

/// Launch an SPMD section: `fn(comm)` runs once per rank on its own thread.
/// Exceptions thrown by any rank are re-thrown (first one) after all join.
void run(int nranks, const RunOptions& opts, const std::function<void(Comm&)>& fn);

/// As above with default options.
void run(int nranks, const std::function<void(Comm&)>& fn);

/// SPMD section that collects a per-rank result; result[r] is rank r's return.
template <typename R>
std::vector<R> run_collect(int nranks, const RunOptions& opts, const std::function<R(Comm&)>& fn) {
  std::vector<R> out(static_cast<std::size_t>(nranks));
  run(nranks, opts, [&](Comm& c) { out[static_cast<std::size_t>(c.rank())] = fn(c); });
  return out;
}

template <typename R>
std::vector<R> run_collect(int nranks, const std::function<R(Comm&)>& fn) {
  std::vector<R> out(static_cast<std::size_t>(nranks));
  run(nranks, [&](Comm& c) { out[static_cast<std::size_t>(c.rank())] = fn(c); });
  return out;
}

/// CPU time consumed by the calling thread, in seconds. Used as the scaling
/// metric so that timesharing P rank-threads over one physical core does not
/// pollute per-rank cost measurements (see DESIGN.md).
double thread_cpu_seconds();

/// Monotonic wall-clock time in seconds.
double wall_seconds();

}  // namespace esamr::par
