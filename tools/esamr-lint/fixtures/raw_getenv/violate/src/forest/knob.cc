// Fixture: environment reads outside par/check.cc — hidden configuration
// points that no test sets and no option documents.
#include <cstdlib>

double delta_threshold() {
  double t = 0.10;
  if (const char* v = std::getenv("ESAMR_THRESHOLD")) t = std::atof(v);  // FINDING raw-getenv (line 7)
  if (getenv("ESAMR_OFF") != nullptr) t = 0.0;  // FINDING raw-getenv (line 8)
  return t;
}
