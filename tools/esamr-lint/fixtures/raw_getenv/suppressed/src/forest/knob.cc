// Fixture: a reasoned allow() on an environment read.
#include <cstdlib>

bool trace_requested() {
  // esamr-lint: allow(raw-getenv) — read once at start-up by a tool, never on a replayed path
  return std::getenv("ESAMR_TRACE") != nullptr;
}
