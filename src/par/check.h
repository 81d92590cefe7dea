// esamr::par::check — opt-in SPMD correctness checker for the runtime.
//
// The forest algorithms are correct only under a strict SPMD discipline:
// every rank issues the same collectives in the same order with agreeing
// arguments, and no mutable state crosses rank boundaries except through
// messages. Because ranks are threads in one address space, violations of
// that discipline (cross-rank aliasing, divergent collective sequences, tag
// deadlocks) are easier to introduce here than under real MPI and harder to
// catch — TSan sees the data race only after the aliasing bug corrupted a
// result, and a tag cycle is a silent hang until the timeout. This layer
// (the in-process analogue of MUST-style MPI checkers) turns all three
// classes into immediate structured diagnostics:
//
//   1. Happens-before race detection. Every rank carries a vector clock
//      advanced by each send/recv/barrier (collective-internal messages
//      included, so the collective trees contribute precise edges).
//      Algorithm code declares rank-owned memory regions via the RAII
//      RegionGuard and annotates cross-rank-visible accesses with
//      note_access(); an access to another rank's region that is not
//      ordered after the owner's registration by a happens-before edge is
//      reported with both call sites.
//
//   2. Collective-matching verification. Every collective records a
//      fingerprint (kind, call site, rank-invariant payload size, root)
//      into a lock-free per-world ledger indexed by the collective sequence
//      number; the first rank to arrive publishes, every other rank
//      cross-checks. Divergent control flow — half the ranks in allreduce,
//      half in allgather — is reported naming both call sites instead of
//      corrupting tag streams. At level 2 the checker additionally CRCs the
//      rank-invariant *result* of bcast/allreduce/allgather(v) through the
//      same ledger, catching non-deterministic combiners and corrupted
//      results.
//
//   3. Deadlock diagnosis. Blocked receives and barriers publish wait-for
//      edges; a periodic detector freezes the world (all mailbox locks in
//      canonical order), runs a releasability fixpoint over the wait-for
//      graph, and — before any configured timeout fires — reports the full
//      stuck cycle (rank, peer, tag, call site per member).
//
// Enabling: RunOptions::check = 1 or 2, or ESAMR_CHECK=1|2 in the
// environment (RunOptions::check = 0 overrides the environment to off).
// When disabled the entire layer costs one branch on a cached null pointer
// per comm operation; no allocation, no locking.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <source_location>
#include <stdexcept>
#include <string>
#include <vector>

namespace esamr::par {

class Comm;
class World;
struct Message;

namespace check {

/// A recorded call site for diagnostics. The pointers are the string
/// literals baked into the binary by std::source_location, so copies are
/// trivially cheap and compare stably across rank threads.
struct Site {
  const char* file = "?";
  std::uint32_t line = 0;
  const char* func = "?";

  static Site of(const std::source_location& loc) {
    return Site{loc.file_name(), loc.line(), loc.function_name()};
  }
  /// "file:line (function)" — file reduced to its basename.
  std::string str() const;
};

/// The violation classes the checker reports.
enum class Violation { race, collective_mismatch, deadlock };

const char* violation_name(Violation v);

/// Thrown (from the detecting rank) when a detector fires. Like any rank
/// error it poisons the world, so peers unwind and par::run rethrows it.
class CheckError : public std::runtime_error {
 public:
  CheckError(Violation kind, std::vector<int> ranks, const std::string& what)
      : std::runtime_error(what), kind_(kind), ranks_(std::move(ranks)) {}
  Violation kind() const noexcept { return kind_; }
  /// The ranks implicated in the violation, sorted ascending.
  const std::vector<int>& ranks() const noexcept { return ranks_; }

 private:
  Violation kind_;
  std::vector<int> ranks_;
};

/// Thrown by ESAMR_ASSERT (active in every build type) when a comm payload
/// invariant is violated; names the rank and the failing call site.
class AssertError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void assert_fail(const char* expr, const char* file, unsigned line, int rank,
                              const std::string& msg);

/// Comm payload invariant check that stays active in Release builds: on
/// failure throws check::AssertError naming the rank (-1 = not rank
/// specific) and the call site instead of aborting the process.
#define ESAMR_ASSERT(cond, rank, msg)                                              \
  (static_cast<bool>(cond)                                                         \
       ? static_cast<void>(0)                                                      \
       : ::esamr::par::check::assert_fail(#cond, __FILE__, __LINE__, (rank), (msg)))

// ---------------------------------------------------------------------------
// Checker — one per World, shared by all rank threads. Comm caches a raw
// pointer (null when checking is off) so every hook is a single branch.
// ---------------------------------------------------------------------------

/// Collective fingerprint compared across ranks (detector 2). `invariant`
/// carries the rank-invariant payload size where the API contracts one
/// (reduce/allreduce/exscan/allgather) and 0 elsewhere; for the level-2
/// result pass it carries the result CRC.
struct Fingerprint {
  std::uint8_t kind = 0;       ///< par::Coll, or 0xff for a result-CRC pass
  std::int16_t root = -1;      ///< root rank for rooted collectives
  std::uint64_t invariant = 0; ///< rank-invariant size / result CRC
  std::uint64_t site_hash = 0; ///< hash of (file, line)
  Site site{};                 ///< for diagnostics only (not compared)

  bool agrees(const Fingerprint& o) const {
    return kind == o.kind && root == o.root && invariant == o.invariant &&
           site_hash == o.site_hash;
  }
};

class Checker {
 public:
  Checker(int nranks, int level);

  int level() const noexcept { return level_; }
  int nranks() const noexcept { return nranks_; }

  // --- Vector clocks (detector 1 plumbing). All clock mutation happens on
  // the owning rank's thread; cross-thread reads go through snapshots taken
  // under regions_m_ / the barrier generation table.
  void on_send(int src, Message& msg);
  void on_recv(int rank, const Message& msg);
  /// Barrier hooks, called from World::barrier_wait around the wait: arrive
  /// merges the rank's clock into the generation entry, depart joins the
  /// completed generation clock back (a barrier is a full synchronization).
  void barrier_arrive(int rank);
  void barrier_depart(int rank);

  // --- Rank-owned region registry (detector 1).
  /// Returns an id for unregister_region. Re-registering an overlapping
  /// range refreshes the happens-before anchor to the owner's current clock.
  std::uint64_t register_region(int rank, const void* ptr, std::size_t nbytes, const char* name,
                                Site site);
  void unregister_region(std::uint64_t id);
  /// Report `rank` touching [ptr, ptr+nbytes). Throws CheckError(race) if
  /// the range overlaps another rank's region and the owner's registration
  /// does not happen-before this access.
  void access(int rank, const void* ptr, std::size_t nbytes, bool write, Site site);

  // --- Buffer-ownership transfer (detector 1, async runtime). An isend
  // moves the payload storage into the runtime: from post to Request
  // completion the range is an *in-flight* region. Reads stay legal (the
  // payload is immutable and receivers may view it in place), but ANY write
  // — even by the posting rank, even one ordered by happens-before — is a
  // diagnosed race, because the runtime and the receiver hold live views of
  // the bytes. Completion (wait/test/drain) hands ownership back.
  std::uint64_t begin_inflight(int rank, const void* ptr, std::size_t nbytes, Site site);
  void end_inflight(std::uint64_t id);

  // --- Collective ledger (detector 2).
  /// Cross-check `fp` for this rank's `seq`-th collective against the other
  /// ranks. Throws CheckError(collective_mismatch) naming both call sites.
  /// `result_pass` selects the level-2 result-CRC ledger lane; `world` (may
  /// be null) lets the ledger spin respect poisoning.
  void collective(int rank, std::uint64_t seq, const Fingerprint& fp, bool result_pass = false,
                  const World* world = nullptr);

  // --- Wait-for graph (detector 3). Publish/clear the calling rank's
  // blocked state; detect() may be called periodically while blocked.
  void block_recv(int rank, bool coll_plane, int source, int tag, Site site);
  void block_barrier(int rank, Site site);
  void unblock(int rank);
  /// Mark a rank's SPMD function as returned (a terminated rank can never
  /// send, so it does not count as "running" in the fixpoint).
  void on_rank_done(int rank);
  /// Freeze the world (every mailbox lock in canonical order) and run the
  /// releasability fixpoint. Throws CheckError(deadlock) from the calling
  /// rank when it is a member of a provably stuck set.
  void detect(int rank, World& world);

 private:
  struct Region {
    std::uint64_t id = 0;
    int owner = -1;
    const char* name = "";
    std::uintptr_t lo = 0, hi = 0;
    std::vector<std::uint32_t> clk;  ///< owner's clock at registration
    Site site{};
    bool inflight = false;  ///< runtime-owned isend payload: every write races
  };

  struct BarrierGen {
    std::vector<std::uint32_t> clk;
    int arrived = 0;
    int departed = 0;
  };

  /// One rank's published blocked state, mutated only under graph_m_.
  struct BlockState {
    enum Kind : int { none = 0, recv = 1, barrier = 2 };
    int kind = none;
    bool coll_plane = false;
    int source = -2;
    int tag = -2;
    std::uint64_t barrier_gen = 0;  ///< generation the rank is waiting on
    Site site{};
  };

  /// Lock-free ledger slot (detector 2): claimed by the first rank to reach
  /// a given key via CAS on `key`, compared by every other rank, recycled by
  /// whoever completes the P-th check-in.
  struct alignas(64) Slot {
    static constexpr std::uint64_t empty = ~std::uint64_t{0};
    std::atomic<std::uint64_t> key{empty};
    std::atomic<int> ready{0};
    std::atomic<int> done{0};
    int writer_rank = -1;
    Fingerprint fp{};
  };
  static constexpr std::size_t ledger_slots = 4096;

  void ledger_check(int rank, std::uint64_t key, const Fingerprint& fp, const World* world);
  std::string describe_wait(int r, const BlockState& b) const;

  const int nranks_;
  const int level_;

  // Vector clocks: clocks_[r] is only written by rank r's thread.
  std::vector<std::vector<std::uint32_t>> clocks_;

  std::mutex regions_m_;
  std::vector<Region> regions_;
  std::uint64_t next_region_id_ = 1;

  std::mutex graph_m_;
  std::vector<BlockState> blocked_;
  std::vector<std::uint64_t> barrier_seq_;  ///< barriers each rank entered
  std::vector<char> done_;                  ///< rank fn returned
  std::map<std::uint64_t, BarrierGen> barrier_gens_;

  std::vector<Slot> ledger_;
};

/// The effective check level for `opts_check` (RunOptions::check) combined
/// with the ESAMR_CHECK environment variable: an explicit 0/1/2 wins,
/// -1 defers to the environment (absent/empty/0 = off).
int effective_level(int opts_check);

// --- User-facing annotation API (no-ops when checking is off) --------------

/// True if the comm's world runs with checking enabled.
bool enabled(const Comm& comm);

/// RAII declaration of a rank-owned memory region: the forest leaf arrays and
/// field vectors register themselves around communication phases so
/// detector 1 can attribute accesses.
class RegionGuard {
 public:
  RegionGuard() = default;
  RegionGuard(Comm& comm, const void* ptr, std::size_t nbytes, const char* name,
              std::source_location loc = std::source_location::current());
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
  RegionGuard(RegionGuard&& o) noexcept : checker_(o.checker_), id_(o.id_) {
    o.checker_ = nullptr;
    o.id_ = 0;
  }
  RegionGuard& operator=(RegionGuard&& o) noexcept;
  ~RegionGuard();

 private:
  Checker* checker_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Annotate a read (write = false) or write of [ptr, ptr+nbytes) by the
/// calling rank. No-op when checking is off.
void note_access(Comm& comm, const void* ptr, std::size_t nbytes, bool write,
                 std::source_location loc = std::source_location::current());

}  // namespace check
}  // namespace esamr::par
