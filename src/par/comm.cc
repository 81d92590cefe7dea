#include "par/comm.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <thread>

#include "par/crc32c.h"
#include "par/request.h"
#include "par/world.h"

namespace esamr::par {

namespace {

/// Matches a queued message against a (source, tag) pattern with wildcards.
bool matches(const Message& m, int source, int tag) {
  return (source == any_source || m.source == source) && (tag == any_tag || m.tag == tag);
}

std::string envelope_str(int source, int tag) {
  std::string s = "source=";
  s += source == any_source ? "any" : std::to_string(source);
  s += " tag=";
  s += tag == any_tag ? "any" : std::to_string(tag);
  return s;
}

/// Clears a rank's published wait-for state on every exit path (match,
/// timeout, poison, checker report). Declared before the mailbox/barrier
/// lock so the lock is released first (unblock takes the checker's own
/// mutex, never a mailbox one).
struct BlockClear {
  check::Checker* chk;
  int rank;
  bool* published;
  ~BlockClear() {
    if (*published) chk->unblock(rank);
  }
};

/// While blocked with the checker or heartbeat detector enabled, sleep in
/// slices this long and run deadlock/liveness detection between slices, so a
/// cycle or a dead rank is reported well before any configured timeout (and
/// even with timeouts disabled).
constexpr double detect_slice_s = 0.05;

}  // namespace

void World::hb_check(int rank, const char* what, check::Site site) {
  if (!hb_armed()) return;
  const double now = wall_seconds();
  const double window = opts.heartbeat_timeout_s;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    if (hb_done[static_cast<std::size_t>(r)].load(std::memory_order_relaxed)) continue;
    const double silent = now - hb_last[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
    if (silent < window) continue;
    // A peer is past the window and never marked itself done: declare it dead.
    // The verdict carries the detector's wait site so the diagnostic reads
    // like the checker's deadlock reports (who was blocked where, waiting on
    // whom) — but names a failure, not a cycle.
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "esamr::par rank failure detected: rank %d silent for %.3f s (heartbeat "
                  "timeout %.3f s); detected by rank %d blocked in %s at %s",
                  r, silent, window, rank, what, site.str().c_str());
    throw RankFailure(r, rank, silent, buf);
  }
}

void World::barrier_wait(int rank, check::Site site) {
  check::Checker* chk = checker.get();
  if (chk != nullptr) chk->barrier_arrive(rank);
  hb_beat(rank);
  const bool slicing = chk != nullptr || hb_armed();
  const double timeout = opts.barrier_timeout_s;
  const double t0 = wall_seconds();
  bool published = false;
  BlockClear clear{chk, rank, &published};
  {
    std::unique_lock<std::mutex> lock(bar_m);
    if (poisoned.load()) throw detail::WorldPoisoned{};
    const long gen = bar_gen;
    if (++bar_count == size) {
      bar_count = 0;
      ++bar_gen;
      bar_cv.notify_all();
    } else {
      while (bar_gen == gen) {
        if (poisoned.load()) throw detail::WorldPoisoned{};
        double left = -1.0;  // < 0: no timeout configured
        if (timeout > 0.0) {
          left = timeout - (wall_seconds() - t0);
          if (left <= 0.0) {
            throw TimeoutError("esamr::par timeout: rank " + std::to_string(rank) + " blocked " +
                               std::to_string(wall_seconds() - t0) + " s in barrier (" +
                               std::to_string(bar_count) + " of " + std::to_string(size) +
                               " ranks arrived)");
          }
        }
        if (!slicing) {
          if (left > 0.0) {
            bar_cv.wait_for(lock, std::chrono::duration<double>(left));
          } else {
            bar_cv.wait(lock);
          }
        } else {
          if (chk != nullptr && !published) {
            chk->block_barrier(rank, site);
            published = true;
          }
          double slice = detect_slice_s;
          if (left > 0.0 && left < slice) slice = left;
          bar_cv.wait_for(lock, std::chrono::duration<double>(slice));
          if (bar_gen != gen) break;
          lock.unlock();
          hb_beat(rank);
          hb_check(rank, "barrier", site);
          if (chk != nullptr) chk->detect(rank, *this);
          lock.lock();
        }
      }
    }
    // Unpublish while still holding bar_m (same reason as in recv_impl: a
    // wait cleared only after the lock drops can be frozen as stale state).
    if (published) {
      chk->unblock(rank);
      published = false;
    }
  }
  if (chk != nullptr) chk->barrier_depart(rank);
}

Comm::Comm(World* world, int rank)
    : world_(world), rank_(rank), checker_(world->checker.get()),
      slow_rank_(detail::is_slow_rank(world->opts.inject, rank)),
      kill_rank_(detail::is_kill_rank(world->opts.inject, rank)),
      integrity_(world->opts.integrity),
      send_seq_(static_cast<std::size_t>(world->size), 0) {}

int Comm::size() const noexcept { return world_->size; }

const InjectConfig& Comm::inject_config() const noexcept { return world_->opts.inject; }

CommStats& Comm::stats() { return world_->stats[static_cast<std::size_t>(rank_)]; }

const CommStats& Comm::stats() const { return world_->stats[static_cast<std::size_t>(rank_)]; }

void Comm::perturb() {
  world_->hb_beat(rank_);
  if (!slow_rank_) return;
  const double us = detail::slow_op_sleep_us(world_->opts.inject, rank_, op_seq_++);
  if (us > 0.0) detail::sleep_us(us);
}

void Comm::maybe_kill() {
  if (!kill_rank_) return;
  if (++kill_op_seq_ >= world_->opts.inject.kill_after_ops) {
    // A silent death just stops the rank (no diagnostic, no poisoning); the
    // run() thread body swallows SilentDeath without marking the rank done,
    // so only the heartbeat detector or the wait timeouts can name it.
    if (world_->opts.inject.kill_silent) throw detail::SilentDeath{};
    throw RankFailure(rank_, kill_op_seq_);
  }
}

bool Comm::arq_active() const noexcept { return integrity_ && world_->opts.arq.enabled; }

void Comm::send_impl(bool coll, int dest, int tag, Buffer payload) {
  ESAMR_ASSERT(dest >= 0 && dest < world_->size, rank_,
               "par::send: destination rank " + std::to_string(dest) + " out of range [0, " +
                   std::to_string(world_->size) + ")");
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  // The post-time sequence stamp: injection keys its delay and corruption
  // streams on this, so the victim set is fixed when the send is posted and
  // cannot shift with the order pending requests later complete in.
  msg.seq = send_seq_[static_cast<std::size_t>(dest)]++;
  if (checker_ != nullptr) checker_->on_send(rank_, msg);
  if (integrity_) {
    msg.seal.crc = crc32c(msg.data(), msg.size());
    msg.seal.nbytes = msg.size();
    msg.seal.stamped = true;
    // The message carries its clean sealed payload (zero-copy: one
    // refcount) so a delivery that injection corrupts below can be healed
    // by link-level retransmission instead of escalating.
    if (world_->opts.arq.enabled) msg.retained = msg.payload;
  }

  // Delays and payload corruption share the per-(src, dst) sequence stream,
  // so either class alone (or both together) sees the same seeded victims.
  const auto& inj = world_->opts.inject;
  double vis = 0.0;
  if (inj.corrupt_enabled() &&
      detail::payload_fault(inj, rank_, dest, msg.seq) != detail::PayloadFault::none) {
    // The shared storage is immutable (the sender's Request and the seal
    // both reference it), so a selected fault mutates a private clone. Only
    // the fault path pays this copy; the clean path stays zero-copy.
    std::vector<std::byte> bytes(msg.data(), msg.data() + msg.size());
    detail::buffer_note_copy(bytes.size());
    detail::corrupt_payload(inj, rank_, dest, msg.seq, bytes);
    msg.payload = Buffer::adopt(std::move(bytes));
  }
  if (inj.delays_enabled()) {
    const double us = detail::delay_us(inj, rank_, dest, msg.seq);
    if (us > 0.0) vis = wall_seconds() + us * 1e-6;
  }

  auto& box = coll ? *world_->coll_mail[static_cast<std::size_t>(dest)]
                   : *world_->mail[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.m);
    if (vis > 0.0) {
      auto& lastv = box.last_visible[static_cast<std::size_t>(rank_)];
      if (vis < lastv) vis = lastv;  // keep per-pair delivery order
      lastv = vis;
      msg.visible_at = vis;
    }
    box.q.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

Message Comm::recv_impl(bool coll, int source, int tag, const char* what, check::Site site) {
  auto& box = coll ? *world_->coll_mail[static_cast<std::size_t>(rank_)]
                   : *world_->mail[static_cast<std::size_t>(rank_)];
  const double timeout = world_->opts.recv_timeout_s;
  const bool slicing = checker_ != nullptr || world_->hb_armed();
  const double t0 = wall_seconds();
  bool published = false;
  BlockClear clear{checker_, rank_, &published};
  std::unique_lock<std::mutex> lock(box.m);
  for (;;) {
    if (world_->poisoned.load()) throw detail::WorldPoisoned{};
    const double now = wall_seconds();
    double next_vis = 0.0;  // earliest visibility among matching delayed msgs
    for (auto it = box.q.begin(); it != box.q.end(); ++it) {
      if (!matches(*it, source, tag)) continue;
      if (it->visible_at <= now) {
        Message out = std::move(*it);
        box.q.erase(it);
        if (checker_ != nullptr) {
          checker_->on_recv(rank_, out);
          // Clear the published wait while still holding the mailbox lock.
          // If we released the lock first, the scope-exit unblock could stall
          // on graph_m_ behind a concurrent detect(), which would then freeze
          // a world where this wait looks live but its message is already
          // consumed — an unsatisfiable edge that fabricates a cycle.
          if (published) {
            checker_->unblock(rank_);
            published = false;
          }
        }
        return out;
      }
      if (next_vis == 0.0 || it->visible_at < next_vis) next_vis = it->visible_at;
    }
    double wait_s = -1.0;  // < 0: wait indefinitely
    if (timeout > 0.0) {
      const double left = timeout - (now - t0);
      if (left <= 0.0) {
        throw TimeoutError("esamr::par timeout: rank " + std::to_string(rank_) + " blocked " +
                           std::to_string(now - t0) + " s in " + what + "(" +
                           envelope_str(source, tag) + "); " + std::to_string(box.q.size()) +
                           " queued message(s), none match");
      }
      wait_s = left;
    }
    if (next_vis > 0.0) {
      const double until_vis = next_vis - now;
      if (wait_s < 0.0 || until_vis < wait_s) wait_s = until_vis;
    }
    if (!slicing) {
      if (wait_s < 0.0) {
        box.cv.wait(lock);
      } else if (wait_s > 0.0) {
        box.cv.wait_for(lock, std::chrono::duration<double>(wait_s));
      }
    } else {
      if (checker_ != nullptr && !published) {
        checker_->block_recv(rank_, coll, source, tag, site);
        published = true;
      }
      double slice = detect_slice_s;
      if (wait_s >= 0.0 && wait_s < slice) slice = wait_s;
      if (slice > 0.0) box.cv.wait_for(lock, std::chrono::duration<double>(slice));
      lock.unlock();
      world_->hb_beat(rank_);
      world_->hb_check(rank_, what, site);
      if (checker_ != nullptr) checker_->detect(rank_, *world_);
      lock.lock();
    }
  }
}

void Comm::verify_envelope(Message& m, const char* what) {
  if (!integrity_ || !m.seal.stamped) return;
  auto& st = stats();
  st.bytes_verified += static_cast<std::int64_t>(m.size());
  // The CRC is recomputed over the shared storage in place — verification
  // never copies the payload.
  const std::uint32_t got = crc32c(m.data(), m.size());
  if (m.size() == m.seal.nbytes && got == m.seal.crc) {
    m.retained = Buffer{};
    return;
  }
  ++st.corrupt_detected;
  const auto& arq = world_->opts.arq;
  int retransmits_spent = 0;
  if (arq_active()) {
    // Link-level repair: re-read the message's clean payload under a
    // bounded seeded-backoff retransmission loop. Each retransmission
    // travels the same injected link, so the corruption stream is redrawn
    // with a retransmit-salted sequence coordinate — persistent injection
    // (stride 1) defeats every retry and escalates; sparse injection heals
    // on the first clean draw, zero-copy from `m.retained`.
    const double t0 = wall_seconds();
    const auto& inj = world_->opts.inject;
    const std::uint64_t pair = (static_cast<std::uint64_t>(m.source) << 32) |
                               static_cast<std::uint64_t>(rank_);
    SeededBackoff backoff(arq.backoff,
                          detail::mix64(inj.seed ^ 0xa29e770aULL ^ detail::mix64(pair)) ^ m.seq);
    for (int attempt = 1; attempt <= arq.max_retransmits; ++attempt) {
      ++st.retransmits;
      ++retransmits_spent;
      backoff.sleep();
      world_->hb_beat(rank_);
      Buffer fresh = m.retained;
      const std::uint64_t rseq =
          detail::mix64(m.seq ^ (0xa1970000ULL + static_cast<std::uint64_t>(attempt)));
      if (inj.corrupt_enabled() &&
          detail::payload_fault(inj, m.source, rank_, rseq) != detail::PayloadFault::none) {
        std::vector<std::byte> bytes(fresh.data(), fresh.data() + fresh.size());
        detail::buffer_note_copy(bytes.size());
        detail::corrupt_payload(inj, m.source, rank_, rseq, bytes);
        fresh = Buffer::adopt(std::move(bytes));
      }
      st.bytes_verified += static_cast<std::int64_t>(fresh.size());
      const std::uint32_t crc = crc32c(fresh.data(), fresh.size());
      if (fresh.size() == m.seal.nbytes && crc == m.seal.crc) {
        m.payload = std::move(fresh);
        m.retained = Buffer{};
        ++st.arq_healed;
        st.arq_heal_s += wall_seconds() - t0;
        return;
      }
      ++st.corrupt_detected;
    }
    ++st.arq_escalations;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "esamr::par corrupt message: rank %d detected payload corruption in %s from "
                "rank %d tag %d (sent %llu B crc 0x%08x, received %zu B crc 0x%08x)",
                rank_, what, m.source, m.tag,
                static_cast<unsigned long long>(m.seal.nbytes), m.seal.crc, m.size(), got);
  std::string diag(buf);
  if (retransmits_spent > 0) {
    diag += "; corruption persisted after " + std::to_string(retransmits_spent) +
            " retransmission(s), escalating";
  }
  throw CorruptMessage(rank_, m.source, diag);
}

void Comm::send_bytes(int dest, int tag, const void* data, std::size_t nbytes) {
  send(dest, tag, Buffer::copy_of(data, nbytes));
}

void Comm::send(int dest, int tag, Buffer payload) {
  maybe_kill();
  perturb();
  const std::size_t nbytes = payload.size();
  send_impl(false, dest, tag, std::move(payload));
  auto& st = stats();
  ++st.p2p_sends;
  st.p2p_send_bytes += static_cast<std::int64_t>(nbytes);
}

Message Comm::recv(int source, int tag, std::source_location loc) {
  maybe_kill();
  perturb();
  const double t0 = wall_seconds();
  Message out = recv_impl(false, source, tag, "recv", check::Site::of(loc));
  verify_envelope(out, "recv");
  auto& st = stats();
  st.recv_blocked_s += wall_seconds() - t0;
  ++st.p2p_recvs;
  st.p2p_recv_bytes += static_cast<std::int64_t>(out.size());
  return out;
}

bool Comm::try_recv_impl(int source, int tag, Message* out) {
  auto& box = *world_->mail[static_cast<std::size_t>(rank_)];
  const double now = wall_seconds();
  std::lock_guard<std::mutex> lock(box.m);
  if (world_->poisoned.load()) throw detail::WorldPoisoned{};
  for (auto it = box.q.begin(); it != box.q.end(); ++it) {
    if (!matches(*it, source, tag)) continue;
    if (it->visible_at > now) continue;
    *out = std::move(*it);
    box.q.erase(it);
    if (checker_ != nullptr) checker_->on_recv(rank_, *out);
    return true;
  }
  return false;
}

// --- Request plumbing -------------------------------------------------------

Request Comm::isend(int dest, int tag, Buffer payload, std::source_location loc) {
  maybe_kill();
  perturb();
  auto st = std::make_shared<detail::RequestState>();
  st->kind = detail::RequestState::Kind::send;
  st->comm = this;
  st->site = check::Site::of(loc);
  st->held = payload;  // runtime keeps a reference until completion
  const std::size_t nbytes = payload.size();
  send_impl(false, dest, tag, std::move(payload));
  auto& s = stats();
  ++s.p2p_sends;
  ++s.isends;
  s.p2p_send_bytes += static_cast<std::int64_t>(nbytes);
  // Ownership transfer into the runtime: until wait()/test() completes the
  // request, a write into the payload range is a race the checker diagnoses.
  if (checker_ != nullptr && nbytes > 0) {
    st->inflight_id = checker_->begin_inflight(rank_, st->held.data(), nbytes, st->site);
  }
  return Request(std::move(st));
}

Request Comm::irecv(int source, int tag, std::source_location loc) {
  maybe_kill();
  perturb();
  auto st = std::make_shared<detail::RequestState>();
  st->kind = detail::RequestState::Kind::recv;
  st->comm = this;
  st->source = source;
  st->tag = tag;
  st->site = check::Site::of(loc);
  return Request(std::move(st));
}

bool Comm::req_test(detail::RequestState& st) {
  if (st.done) return true;
  switch (st.kind) {
    case detail::RequestState::Kind::send: {
      // Buffered sends complete at the first progress call: ownership of the
      // payload storage returns from the runtime to the caller.
      if (checker_ != nullptr && st.inflight_id != 0) {
        checker_->end_inflight(st.inflight_id);
        st.inflight_id = 0;
      }
      st.held = Buffer{};
      st.done = true;
      return true;
    }
    case detail::RequestState::Kind::recv: {
      Message m;
      if (!try_recv_impl(st.source, st.tag, &m)) return false;
      verify_envelope(m, "irecv");
      auto& s = stats();
      ++s.p2p_recvs;
      ++s.irecvs;
      s.p2p_recv_bytes += static_cast<std::int64_t>(m.size());
      st.msg = std::move(m);
      st.done = true;
      return true;
    }
  }
  return false;
}

void Comm::req_wait(detail::RequestState& st) {
  if (st.done) return;
  maybe_kill();
  switch (st.kind) {
    case detail::RequestState::Kind::send:
      (void)req_test(st);
      return;
    case detail::RequestState::Kind::recv: {
      if (req_test(st)) return;
      const double t0 = wall_seconds();
      Message m = recv_impl(false, st.source, st.tag, "irecv wait", st.site);
      verify_envelope(m, "irecv");
      auto& s = stats();
      s.recv_blocked_s += wall_seconds() - t0;
      ++s.p2p_recvs;
      ++s.irecvs;
      s.p2p_recv_bytes += static_cast<std::int64_t>(m.size());
      st.msg = std::move(m);
      st.done = true;
      return;
    }
  }
}

void Comm::req_drop(detail::RequestState& st) noexcept {
  if (st.done) return;
  // Drain without completing: retire the checker region and hand the payload
  // reference back to the runtime for disposal. A pending irecv leaves its
  // message unconsumed in the mailbox.
  if (checker_ != nullptr && st.inflight_id != 0) {
    checker_->end_inflight(st.inflight_id);
    st.inflight_id = 0;
  }
  st.held = Buffer{};
  ++stats().requests_drained;
  st.done = true;
}

// --- Request handle ---------------------------------------------------------

Request::Request() noexcept = default;
Request::Request(Request&&) noexcept = default;
Request& Request::operator=(Request&&) noexcept = default;
Request::Request(std::shared_ptr<detail::RequestState> st) noexcept : st_(std::move(st)) {}

Request::~Request() {
  if (st_ != nullptr && !st_->done && st_->comm != nullptr) st_->comm->req_drop(*st_);
}

bool Request::test() {
  ESAMR_ASSERT(st_ != nullptr, -1, "par::Request::test on an empty request");
  return st_->comm->req_test(*st_);
}

void Request::wait() {
  ESAMR_ASSERT(st_ != nullptr, -1, "par::Request::wait on an empty request");
  st_->comm->req_wait(*st_);
}

Message& Request::message() {
  ESAMR_ASSERT(st_ != nullptr && st_->done && st_->kind == detail::RequestState::Kind::recv, -1,
               "par::Request::message: not a completed receive");
  return st_->msg;
}

void wait_all(std::span<Request> requests) {
  for (auto& r : requests) {
    if (r.valid()) r.wait();
  }
}

void Comm::barrier(std::source_location loc) {
  perturb();
  const check::Site site = check::Site::of(loc);
  coll_begin(Coll::barrier, 0, 0, -1, site);
  const double t0 = wall_seconds();
  world_->barrier_wait(rank_, site);
  stats().barrier_blocked_s += wall_seconds() - t0;
}

void run(int nranks, const RunOptions& opts, const std::function<void(Comm&)>& fn) {
  ESAMR_ASSERT(nranks >= 1, -1,
               "par::run: nranks must be >= 1, got " + std::to_string(nranks));
  ESAMR_ASSERT(!(opts.inject.kill_silent && opts.inject.kill_enabled()) ||
                   opts.heartbeat_timeout_s > 0.0 || opts.recv_timeout_s > 0.0 ||
                   opts.barrier_timeout_s > 0.0,
               -1,
               "par::run: kill_silent needs a detector — arm heartbeat_timeout_s or a "
               "recv/barrier timeout, or a silent kill becomes a silent hang");
  World world(nranks, opts);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &fn, &errors, r] {
      Comm comm(&world, r);
      bool silent = false;
      try {
        fn(comm);
      } catch (const detail::SilentDeath&) {
        // The rank dropped off the network: no error, no poisoning, and — the
        // point — no done-mark below, so the deadlock detector still sees it
        // as running (a dead node is indistinguishable from a slow one) and
        // only the heartbeat detector or a timeout can name the failure.
        silent = true;
      } catch (const detail::WorldPoisoned&) {
        // Another rank failed first; unwind quietly.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world.poison();
      }
      if (!silent) {
        // A returned rank can never unblock anyone and will never beat again;
        // tell the deadlock/collective-count detectors and the heartbeat.
        world.hb_mark_done(r);
        if (world.checker) world.checker->on_rank_done(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void run(int nranks, const std::function<void(Comm&)>& fn) { run(nranks, RunOptions{}, fn); }

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace esamr::par
