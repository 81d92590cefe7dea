// Internal shared state for one SPMD section (not part of the public API):
// per-rank mailboxes for user and collective-internal traffic, the counting
// barrier, per-rank counters and heartbeats. Link-level ARQ keeps no state
// here: each message carries its own clean payload (Message::retained).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "par/check.h"
#include "par/comm.h"

namespace esamr::par {

namespace detail {
/// Thrown inside peer ranks when some rank failed; unwinds them without
/// recording a second error.
struct WorldPoisoned {};

/// Thrown by a rank dying silently (InjectConfig::kill_silent): the run()
/// thread body swallows it without recording an error, poisoning the world,
/// or marking the rank done — the rank just vanishes, exactly like a node
/// dropping off the network. Only the heartbeat detector (or a recv/barrier
/// timeout) can name the resulting failure.
struct SilentDeath {};
}  // namespace detail

class World {
 public:
  World(int n, RunOptions options)
      : size(n), opts(std::move(options)), mail(static_cast<std::size_t>(n)),
        coll_mail(static_cast<std::size_t>(n)), stats(static_cast<std::size_t>(n)),
        hb_last(static_cast<std::size_t>(n)), hb_done(static_cast<std::size_t>(n)) {
    for (auto& m : mail) m = std::make_unique<Mailbox>(n);
    for (auto& m : coll_mail) m = std::make_unique<Mailbox>(n);
    const double now = wall_seconds();
    for (auto& t : hb_last) t.store(now, std::memory_order_relaxed);
    for (auto& d : hb_done) d.store(false, std::memory_order_relaxed);
    if (const int level = check::effective_level(opts.check); level > 0) {
      checker = std::make_unique<check::Checker>(n, level);
    }
  }

  struct Mailbox {
    explicit Mailbox(int nranks) : last_visible(static_cast<std::size_t>(nranks), 0.0) {}
    std::mutex m;
    std::condition_variable cv;
    std::deque<Message> q;
    /// Per-source latest injected visibility time; delivery times are clamped
    /// monotone per (source, this) pair so delays never reorder a pair's
    /// messages (tag-matching semantics are preserved under injection).
    std::vector<double> last_visible;
  };

  /// The barrier primitive shared by Comm::barrier and Comm::stats_snapshot;
  /// it charges no CommStats. Throws TimeoutError (naming `rank` and the
  /// arrival count) when opts.barrier_timeout_s expires. `site` is the user
  /// call site for the checker's deadlock diagnostics.
  void barrier_wait(int rank, check::Site site = {});

  /// Heartbeat failure detection (RunOptions::heartbeat_timeout_s).
  bool hb_armed() const { return opts.heartbeat_timeout_s > 0.0; }
  /// Stamp `rank` alive now. Called from every comm operation and every
  /// slice of a blocked wait; no-op when the detector is disarmed.
  void hb_beat(int rank) {
    if (hb_armed()) {
      hb_last[static_cast<std::size_t>(rank)].store(wall_seconds(), std::memory_order_relaxed);
    }
  }
  /// Mark `rank` cleanly finished (returned from its SPMD function or thrown
  /// a recorded error): it will never beat again and must not be declared
  /// dead. Silent deaths deliberately skip this.
  void hb_mark_done(int rank) {
    if (hb_armed()) hb_done[static_cast<std::size_t>(rank)].store(true, std::memory_order_relaxed);
  }
  /// Scan for a peer silent past the timeout window. Called by `rank` from
  /// inside a sliced blocked wait; `what` names the wait (recv / barrier /
  /// a collective) and `site` is the detector's user call site. Throws a
  /// detected-by-peer RankFailure naming the dead rank, routed through the
  /// same per-rank error channel as injected failures. Implemented in
  /// comm.cc.
  void hb_check(int rank, const char* what, check::Site site);

  /// Mark the section failed and wake every blocked rank so it can unwind.
  void poison() {
    poisoned.store(true);
    {
      std::lock_guard<std::mutex> lock(bar_m);
      bar_cv.notify_all();
    }
    for (auto& boxes : {std::ref(mail), std::ref(coll_mail)}) {
      for (auto& box : boxes.get()) {
        std::lock_guard<std::mutex> lock(box->m);
        box->cv.notify_all();
      }
    }
  }

  const int size;
  const RunOptions opts;
  std::vector<std::unique_ptr<Mailbox>> mail;       ///< user point-to-point
  std::vector<std::unique_ptr<Mailbox>> coll_mail;  ///< collective-internal
  std::vector<CommStats> stats;                          ///< per rank
  std::vector<std::atomic<double>> hb_last;              ///< last heartbeat, per rank
  std::vector<std::atomic<bool>> hb_done;                ///< cleanly finished, per rank
  std::unique_ptr<check::Checker> checker;               ///< null = checking off
  std::atomic<bool> poisoned{false};

 private:
  std::mutex bar_m;
  std::condition_variable bar_cv;
  int bar_count = 0;
  long bar_gen = 0;
};

}  // namespace esamr::par
