// Internal state behind par::Request (not part of the public API).
//
// A RequestState lives in a shared_ptr owned by the user-facing Request
// handle. It is only ever touched by the owning rank's thread (SPMD style),
// so no locking is needed; cross-rank effects go through the mailboxes.
// Requests are point-to-point only (isend / irecv); every collective is
// blocking.
#pragma once

#include "par/comm.h"

namespace esamr::par::detail {

struct RequestState {
  enum class Kind { send, recv };
  Kind kind = Kind::recv;
  Comm* comm = nullptr;
  bool done = false;

  // send: the runtime's reference to the payload storage while in flight,
  // and the checker's in-flight region id (0 = none registered).
  Buffer held;
  std::uint64_t inflight_id = 0;

  // recv: envelope registered at post time; msg filled at completion. The
  // post-time call site doubles as the wait's diagnostic site.
  int source = any_source;
  int tag = any_tag;
  check::Site site{};
  Message msg;
};

}  // namespace esamr::par::detail
