#include "par/stats.h"

#include <cstdio>

namespace esamr::par {

const char* coll_name(Coll k) {
  switch (k) {
    case Coll::barrier: return "barrier";
    case Coll::bcast: return "bcast";
    case Coll::reduce: return "reduce";
    case Coll::allreduce: return "allreduce";
    case Coll::allgather: return "allgather";
    case Coll::allgatherv: return "allgatherv";
    case Coll::exscan: return "exscan";
    case Coll::alltoall: return "alltoall";
    case Coll::n_kinds: break;
  }
  return "?";
}

namespace {

/// The one list of CommStats fields: applies `op(mine, theirs)` to each pair
/// of counters. A member added to CommStats must join this list and
/// summary(); the static_assert fails the build until it does.
template <typename Op>
void each_field(CommStats& a, const CommStats& b, Op op) {
  op(a.p2p_sends, b.p2p_sends);
  op(a.p2p_send_bytes, b.p2p_send_bytes);
  op(a.p2p_recvs, b.p2p_recvs);
  op(a.p2p_recv_bytes, b.p2p_recv_bytes);
  op(a.isends, b.isends);
  op(a.irecvs, b.irecvs);
  op(a.requests_drained, b.requests_drained);
  op(a.coll_msgs, b.coll_msgs);
  op(a.coll_bytes, b.coll_bytes);
  for (std::size_t k = 0; k < a.coll_calls.size(); ++k) {
    op(a.coll_calls[k], b.coll_calls[k]);
    op(a.coll_payload_bytes[k], b.coll_payload_bytes[k]);
  }
  op(a.corrupt_detected, b.corrupt_detected);
  op(a.bytes_verified, b.bytes_verified);
  op(a.retransmits, b.retransmits);
  op(a.arq_healed, b.arq_healed);
  op(a.arq_escalations, b.arq_escalations);
  op(a.arq_heal_s, b.arq_heal_s);
  op(a.recv_blocked_s, b.recv_blocked_s);
  op(a.barrier_blocked_s, b.barrier_blocked_s);
}

// 17 scalar counters plus the two per-collective arrays, all 8 bytes wide.
static_assert(sizeof(CommStats) == (17 + 2 * n_coll_kinds) * 8,
              "CommStats changed: update each_field() and summary()");

}  // namespace

CommStats& CommStats::operator+=(const CommStats& o) {
  each_field(*this, o, [](auto& x, auto y) { x += y; });
  return *this;
}

CommStats& CommStats::operator-=(const CommStats& o) {
  each_field(*this, o, [](auto& x, auto y) { x -= y; });
  return *this;
}

std::string summary(const CommStats& s) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "p2p: %lld msgs / %lld B sent, %lld msgs / %lld B recvd\n",
                static_cast<long long>(s.p2p_sends), static_cast<long long>(s.p2p_send_bytes),
                static_cast<long long>(s.p2p_recvs), static_cast<long long>(s.p2p_recv_bytes));
  out += line;
  if (s.isends != 0 || s.irecvs != 0 || s.requests_drained != 0) {
    std::snprintf(line, sizeof(line), "async: %lld isends, %lld irecvs, %lld drained\n",
                  static_cast<long long>(s.isends), static_cast<long long>(s.irecvs),
                  static_cast<long long>(s.requests_drained));
    out += line;
  }
  std::snprintf(line, sizeof(line), "coll wire: %lld msgs / %lld B\n",
                static_cast<long long>(s.coll_msgs), static_cast<long long>(s.coll_bytes));
  out += line;
  for (int k = 0; k < n_coll_kinds; ++k) {
    if (s.coll_calls[static_cast<std::size_t>(k)] == 0) continue;
    std::snprintf(line, sizeof(line), "  %-10s %8lld calls  %12lld payload B\n",
                  coll_name(static_cast<Coll>(k)),
                  static_cast<long long>(s.coll_calls[static_cast<std::size_t>(k)]),
                  static_cast<long long>(s.coll_payload_bytes[static_cast<std::size_t>(k)]));
    out += line;
  }
  std::snprintf(line, sizeof(line), "integrity: %lld B verified, %lld corrupt detected\n",
                static_cast<long long>(s.bytes_verified),
                static_cast<long long>(s.corrupt_detected));
  out += line;
  if (s.retransmits != 0 || s.arq_healed != 0 || s.arq_escalations != 0) {
    std::snprintf(line, sizeof(line),
                  "arq: %lld retransmits, %lld healed in %.6f s, %lld escalated\n",
                  static_cast<long long>(s.retransmits), static_cast<long long>(s.arq_healed),
                  s.arq_heal_s, static_cast<long long>(s.arq_escalations));
    out += line;
  }
  std::snprintf(line, sizeof(line), "blocked: %.3f s in recv, %.3f s in barrier\n",
                s.recv_blocked_s, s.barrier_blocked_s);
  out += line;
  return out;
}

}  // namespace esamr::par
