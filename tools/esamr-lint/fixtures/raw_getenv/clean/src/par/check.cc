// Fixture: par/check.cc is the single sanctioned environment read.
#include <cstdlib>

namespace esamr::par::check {

int env_level() {
  const char* env = std::getenv("ESAMR_CHECK");
  return env == nullptr ? 0 : env[0] - '0';
}

}  // namespace esamr::par::check
