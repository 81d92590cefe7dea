#include "par/check.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "par/world.h"

namespace esamr::par::check {

namespace {

/// Basename of a source path for compact diagnostics.
const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

/// FNV-1a over the site's file *content* plus line, so the hash agrees
/// across rank threads regardless of string-literal identity.
std::uint64_t site_hash(const Site& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char* p = s.file; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  h ^= s.line;
  h *= 1099511628211ull;
  return h;
}

/// Same matching rule as Comm::recv (comm.cc), with wildcards.
bool matches(const Message& m, int source, int tag) {
  return (source == any_source || m.source == source) && (tag == any_tag || m.tag == tag);
}

void join_into(std::vector<std::uint32_t>& acc, const std::vector<std::uint32_t>& in) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::max(acc[i], in[i]);
}

}  // namespace

std::string Site::str() const {
  std::string s = basename_of(file);
  s += ":";
  s += std::to_string(line);
  if (func != nullptr && func[0] != '\0' && func[0] != '?') {
    s += " (";
    s += func;
    s += ")";
  }
  return s;
}

const char* violation_name(Violation v) {
  switch (v) {
    case Violation::race: return "race";
    case Violation::collective_mismatch: return "collective_mismatch";
    case Violation::deadlock: return "deadlock";
  }
  return "?";
}

void assert_fail(const char* expr, const char* file, unsigned line, int rank,
                 const std::string& msg) {
  std::string s = "esamr assert failed: ";
  s += msg;
  if (rank >= 0) {
    s += " [rank ";
    s += std::to_string(rank);
    s += "]";
  }
  s += " (";
  s += expr;
  s += ") at ";
  s += basename_of(file);
  s += ":";
  s += std::to_string(line);
  throw AssertError(s);
}

int effective_level(int opts_check) {
  if (opts_check >= 0) return std::min(opts_check, 2);
  static const int env_level = [] {
    const char* env = std::getenv("ESAMR_CHECK");
    if (env == nullptr || env[0] == '\0') return 0;
    const int v = std::atoi(env);
    return std::clamp(v, 0, 2);
  }();
  return env_level;
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

Checker::Checker(int nranks, int level)
    : nranks_(nranks), level_(level),
      clocks_(static_cast<std::size_t>(nranks),
              std::vector<std::uint32_t>(static_cast<std::size_t>(nranks), 0)),
      blocked_(static_cast<std::size_t>(nranks)),
      barrier_seq_(static_cast<std::size_t>(nranks), 0),
      done_(static_cast<std::size_t>(nranks), 0),
      ledger_(ledger_slots) {}

// --- Vector clocks ----------------------------------------------------------
// clocks_[r] is written only by rank r's thread; snapshots cross threads via
// Message::hb (published through the mailbox mutex), region registrations
// (regions_m_), and barrier generation entries (graph_m_).

void Checker::on_send(int src, Message& msg) {
  auto& clk = clocks_[static_cast<std::size_t>(src)];
  ++clk[static_cast<std::size_t>(src)];
  msg.hb = clk;
}

void Checker::on_recv(int rank, const Message& msg) {
  auto& clk = clocks_[static_cast<std::size_t>(rank)];
  if (msg.hb.size() == clk.size()) join_into(clk, msg.hb);
  ++clk[static_cast<std::size_t>(rank)];
}

void Checker::barrier_arrive(int rank) {
  auto& clk = clocks_[static_cast<std::size_t>(rank)];
  ++clk[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(graph_m_);
  const std::uint64_t gen = ++barrier_seq_[static_cast<std::size_t>(rank)];
  BarrierGen& entry = barrier_gens_[gen];
  if (entry.clk.empty()) entry.clk.assign(static_cast<std::size_t>(nranks_), 0);
  join_into(entry.clk, clk);
  ++entry.arrived;
}

void Checker::barrier_depart(int rank) {
  std::vector<std::uint32_t> gen_clk;
  {
    std::lock_guard<std::mutex> lock(graph_m_);
    const std::uint64_t gen = barrier_seq_[static_cast<std::size_t>(rank)];
    auto it = barrier_gens_.find(gen);
    if (it == barrier_gens_.end()) return;  // poisoned/unwound peer
    gen_clk = it->second.clk;
    if (++it->second.departed == nranks_) barrier_gens_.erase(it);
  }
  auto& clk = clocks_[static_cast<std::size_t>(rank)];
  join_into(clk, gen_clk);
  ++clk[static_cast<std::size_t>(rank)];
}

// --- Region registry (detector 1) ------------------------------------------

std::uint64_t Checker::register_region(int rank, const void* ptr, std::size_t nbytes,
                                       const char* name, Site site) {
  if (nbytes == 0) return 0;
  Region r;
  r.owner = rank;
  r.name = name;
  r.lo = reinterpret_cast<std::uintptr_t>(ptr);
  r.hi = r.lo + nbytes;
  // Registration is an event on the owner's timeline: bump the owner's own
  // component before snapshotting, so a foreign access is ordered after
  // registration only via a message or barrier issued after this point.
  ++clocks_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(rank)];
  r.clk = clocks_[static_cast<std::size_t>(rank)];
  r.site = site;
  std::lock_guard<std::mutex> lock(regions_m_);
  r.id = next_region_id_++;
  regions_.push_back(std::move(r));
  return regions_.back().id;
}

void Checker::unregister_region(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(regions_m_);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].id == id) {
      regions_[i] = std::move(regions_.back());
      regions_.pop_back();
      return;
    }
  }
}

std::uint64_t Checker::begin_inflight(int rank, const void* ptr, std::size_t nbytes, Site site) {
  if (nbytes == 0) return 0;
  Region r;
  r.owner = rank;
  r.name = "in-flight send buffer";
  r.lo = reinterpret_cast<std::uintptr_t>(ptr);
  r.hi = r.lo + nbytes;
  r.site = site;
  r.inflight = true;
  std::lock_guard<std::mutex> lock(regions_m_);
  r.id = next_region_id_++;
  regions_.push_back(std::move(r));
  return regions_.back().id;
}

void Checker::end_inflight(std::uint64_t id) { unregister_region(id); }

void Checker::access(int rank, const void* ptr, std::size_t nbytes, bool write, Site site) {
  if (nbytes == 0) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(ptr);
  const auto hi = lo + nbytes;
  auto& clk = clocks_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(regions_m_);
  bool bumped = false;
  for (auto& r : regions_) {
    if (hi <= r.lo || lo >= r.hi) continue;
    if (r.inflight) {
      // Runtime-owned isend payload: immutable until the request completes.
      // Reads are fine (receivers view the shared bytes in place); a write
      // is a race no happens-before edge can excuse, because the mailbox
      // and any zero-copy receiver alias the storage.
      if (!write) continue;
      std::string msg = "esamr check [race]: rank " + std::to_string(rank) + " wrote " +
                        std::to_string(nbytes) +
                        " bytes inside an in-flight send buffer still owned by the comm "
                        "runtime; rank " +
                        std::to_string(r.owner) + " posted the isend at " + r.site.str() +
                        ", write at " + site.str() +
                        " (ownership returns when the request completes)";
      std::vector<int> ranks{std::min(r.owner, rank), std::max(r.owner, rank)};
      if (ranks[0] == ranks[1]) ranks.pop_back();
      throw CheckError(Violation::race, std::move(ranks), msg);
    }
    if (r.owner == rank) {
      if (write) {
        // An owner write is an event: re-anchor the happens-before
        // requirement strictly after everything peers may have observed.
        if (!bumped) {
          ++clk[static_cast<std::size_t>(rank)];
          bumped = true;
        }
        r.clk = clk;
        r.site = site;
      }
      continue;
    }
    // The owner's registration happened-before this access iff the
    // registration clock's owner component is covered by our clock.
    const auto oc = static_cast<std::size_t>(r.owner);
    if (r.clk[oc] <= clk[oc]) continue;
    std::string msg = "esamr check [race]: rank " + std::to_string(rank) +
                      (write ? " wrote " : " read ") + std::to_string(nbytes) +
                      " bytes inside region '" + r.name + "' owned by rank " +
                      std::to_string(r.owner) + " without a happens-before edge; owner " +
                      "registered/updated it at " + r.site.str() + ", access at " + site.str() +
                      " (no message or barrier orders the two)";
    const int owner = r.owner;
    throw CheckError(Violation::race, {std::min(owner, rank), std::max(owner, rank)}, msg);
  }
}

// --- Collective ledger (detector 2) ----------------------------------------

void Checker::collective(int rank, std::uint64_t seq, const Fingerprint& fp, bool result_pass,
                         const World* world) {
  Fingerprint f = fp;
  f.site_hash = site_hash(fp.site);
  ledger_check(rank, seq * 2 + (result_pass ? 1 : 0), f, world);
}

void Checker::ledger_check(int rank, std::uint64_t key, const Fingerprint& fp,
                           const World* world) {
  Slot& s = ledger_[static_cast<std::size_t>(key % ledger_slots)];
  // If every peer terminated while we wait for its check-in, the collective
  // counts diverged: this rank issued a collective no peer ever reached. But
  // a peer may check in after our last test of the wait condition and return
  // without waiting for us (a reduce non-root does). So a pause that finds
  // every peer returned only arms the verdict: the caller re-tests, now
  // seeing every check-in (each precedes its rank's done mark, which
  // graph_m_ orders before our read), and the next pause reports.
  bool peers_returned = false;
  const auto spin_pause = [&](const char* why) {
    if (peers_returned) {
      throw CheckError(Violation::collective_mismatch, {rank},
                       std::string("esamr check [collective_mismatch]: rank ") +
                           std::to_string(rank) + " issued collective #" +
                           std::to_string(key / 2) + " (" + fp.site.str() +
                           ") but every peer rank returned without issuing it (" + why + ")");
    }
    std::this_thread::yield();
    if (world != nullptr && world->poisoned.load()) throw detail::WorldPoisoned{};
    std::lock_guard<std::mutex> lock(graph_m_);
    int finished = 0;
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank && done_[static_cast<std::size_t>(r)] != 0) ++finished;
    }
    peers_returned = finished == nranks_ - 1;
  };
  for (;;) {
    const std::uint64_t cur = s.key.load(std::memory_order_acquire);
    if (cur == key) {
      while (s.ready.load(std::memory_order_acquire) == 0) spin_pause("fingerprint pending");
      const Fingerprint other = s.fp;  // copy before the P-th check-in recycles the slot
      const int writer = s.writer_rank;
      const bool ok = fp.agrees(other);
      std::string msg;
      if (!ok) {
        const bool result_pass = fp.kind == 0xff;
        msg = std::string("esamr check [collective_mismatch]: collective #") +
              std::to_string(key / 2) +
              (result_pass ? " result CRC disagrees across ranks: rank " : ": rank ") +
              std::to_string(writer) + " issued kind=" + std::to_string(other.kind) +
              " root=" + std::to_string(other.root) + " invariant=" +
              std::to_string(other.invariant) + " at " + other.site.str() + ", but rank " +
              std::to_string(rank) + " issued kind=" + std::to_string(fp.kind) +
              " root=" + std::to_string(fp.root) + " invariant=" + std::to_string(fp.invariant) +
              " at " + fp.site.str();
      }
      if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == nranks_) {
        s.ready.store(0, std::memory_order_relaxed);
        s.done.store(0, std::memory_order_relaxed);
        s.key.store(Slot::empty, std::memory_order_release);
      }
      if (!ok) {
        throw CheckError(Violation::collective_mismatch,
                         {std::min(writer, rank), std::max(writer, rank)}, msg);
      }
      return;
    }
    if (cur == Slot::empty) {
      std::uint64_t expected = Slot::empty;
      if (s.key.compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
        s.writer_rank = rank;
        s.fp = fp;
        s.ready.store(1, std::memory_order_release);
        if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == nranks_) {
          s.ready.store(0, std::memory_order_relaxed);
          s.done.store(0, std::memory_order_relaxed);
          s.key.store(Slot::empty, std::memory_order_release);
        }
        return;
      }
      continue;  // lost the claim; re-examine
    }
    // The slot still carries a collective ledger_slots sequence numbers
    // behind us (a far-ahead root); wait for the stragglers to recycle it.
    spin_pause("ledger slot occupied");
  }
}

// --- Wait-for graph (detector 3) -------------------------------------------

void Checker::block_recv(int rank, bool coll_plane, int source, int tag, Site site) {
  std::lock_guard<std::mutex> lock(graph_m_);
  BlockState& b = blocked_[static_cast<std::size_t>(rank)];
  b.kind = BlockState::recv;
  b.coll_plane = coll_plane;
  b.source = source;
  b.tag = tag;
  b.site = site;
}

void Checker::block_barrier(int rank, Site site) {
  std::lock_guard<std::mutex> lock(graph_m_);
  BlockState& b = blocked_[static_cast<std::size_t>(rank)];
  b.kind = BlockState::barrier;
  b.barrier_gen = barrier_seq_[static_cast<std::size_t>(rank)];
  b.site = site;
}

void Checker::unblock(int rank) {
  std::lock_guard<std::mutex> lock(graph_m_);
  blocked_[static_cast<std::size_t>(rank)].kind = BlockState::none;
}

void Checker::on_rank_done(int rank) {
  std::lock_guard<std::mutex> lock(graph_m_);
  done_[static_cast<std::size_t>(rank)] = 1;
}

std::string Checker::describe_wait(int r, const BlockState& b) const {
  std::string s = "rank " + std::to_string(r);
  if (b.kind == BlockState::recv) {
    s += b.coll_plane ? ": blocked inside a collective waiting on " : ": blocked in recv(";
    s += "source=";
    s += b.source == any_source ? "any" : std::to_string(b.source);
    s += " tag=";
    s += b.tag == any_tag ? "any" : std::to_string(b.tag);
    if (!b.coll_plane) s += ")";
    s += " at " + b.site.str();
  } else if (b.kind == BlockState::barrier) {
    s += ": blocked in barrier at " + b.site.str();
  }
  return s;
}

void Checker::detect(int rank, World& world) {
  // A poisoned world is already unwinding: ranks that died with the real
  // error look terminated, which would read as a bogus deadlock here and
  // mask the true diagnostic. Let the caller's wait loop observe the poison.
  if (world.poisoned.load()) return;
  // Freeze the world: every mailbox lock in canonical order (user plane
  // ascending, then collective plane ascending), then the graph mutex.
  // Publishers hold at most one mailbox before taking graph_m_, so this
  // global order is cycle-free; with all locks held no rank can enqueue,
  // dequeue, or change its blocked state, which makes the fixpoint below a
  // sound stable-property detection rather than a heuristic.
  const auto p = static_cast<std::size_t>(nranks_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(2 * p);
  for (auto& box : world.mail) locks.emplace_back(box->m);
  for (auto& box : world.coll_mail) locks.emplace_back(box->m);
  std::unique_lock<std::mutex> graph_lock(graph_m_);
  // Re-check under the graph lock: a rank that died with the real error
  // publishes done_ under graph_m_ strictly after poisoning, so observing
  // its termination here implies the poison store is visible too.
  if (world.poisoned.load()) return;

  // releasable[r]: rank r is running, or some chain of possible progress can
  // unblock it. Blocked ranks never marked releasable are provably stuck.
  std::vector<char> releasable(p, 0);
  std::vector<char> pending(p, 0);
  for (std::size_t r = 0; r < p; ++r) {
    const BlockState& b = blocked_[r];
    if (b.kind == BlockState::none) {
      releasable[r] = done_[r] == 0;  // running; a returned rank can't send
    } else if (b.kind == BlockState::recv) {
      const auto& box = b.coll_plane ? *world.coll_mail[r] : *world.mail[r];
      // Delayed-injection messages count: they become visible eventually.
      for (const Message& m : box.q) {
        if (matches(m, b.source, b.tag)) {
          pending[r] = 1;
          break;
        }
      }
      releasable[r] = pending[r];
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < p; ++r) {
      if (releasable[r] != 0) continue;
      const BlockState& b = blocked_[r];
      if (b.kind == BlockState::none) continue;  // terminated: never releasable
      bool rel = false;
      if (b.kind == BlockState::recv) {
        if (b.source == any_source) {
          // Stuck only if no other rank could ever send.
          for (std::size_t x = 0; x < p && !rel; ++x) rel = x != r && releasable[x] != 0;
        } else {
          rel = releasable[static_cast<std::size_t>(b.source)] != 0;
        }
      } else {  // barrier: stuck if any rank that has not arrived is stuck
        rel = true;
        for (std::size_t x = 0; x < p && rel; ++x) {
          if (barrier_seq_[x] < b.barrier_gen) rel = releasable[x] != 0;
        }
      }
      if (rel) {
        releasable[r] = 1;
        changed = true;
      }
    }
  }
  if (releasable[static_cast<std::size_t>(rank)] != 0 ||
      blocked_[static_cast<std::size_t>(rank)].kind == BlockState::none) {
    return;
  }
  std::vector<int> stuck;
  std::string msg = "esamr check [deadlock]: cycle detected before timeout;";
  for (std::size_t r = 0; r < p; ++r) {
    if (releasable[r] == 0 && blocked_[r].kind != BlockState::none) {
      stuck.push_back(static_cast<int>(r));
      msg += "\n  " + describe_wait(static_cast<int>(r), blocked_[r]);
    }
  }
  msg += "\n  (no member can be unblocked by any running rank or pending message)";
  throw CheckError(Violation::deadlock, std::move(stuck), msg);
}

// --- Annotation API ---------------------------------------------------------

bool enabled(const Comm& comm) { return comm.checker() != nullptr; }

RegionGuard::RegionGuard(Comm& comm, const void* ptr, std::size_t nbytes, const char* name,
                         std::source_location loc) {
  checker_ = comm.checker();
  if (checker_ != nullptr) {
    id_ = checker_->register_region(comm.rank(), ptr, nbytes, name, Site::of(loc));
  }
}

RegionGuard& RegionGuard::operator=(RegionGuard&& o) noexcept {
  if (this != &o) {
    if (checker_ != nullptr) checker_->unregister_region(id_);
    checker_ = o.checker_;
    id_ = o.id_;
    o.checker_ = nullptr;
    o.id_ = 0;
  }
  return *this;
}

RegionGuard::~RegionGuard() {
  if (checker_ != nullptr) checker_->unregister_region(id_);
}

void note_access(Comm& comm, const void* ptr, std::size_t nbytes, bool write,
                 std::source_location loc) {
  Checker* chk = comm.checker();
  if (chk != nullptr) chk->access(comm.rank(), ptr, nbytes, write, Site::of(loc));
}

}  // namespace esamr::par::check
