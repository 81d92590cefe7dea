// Fixture: mentioning std::getenv("X") in a comment or a string literal, or
// naming a member getenv_count, must NOT fire the tokenizing rule.
#include <string>

struct Probe {
  int getenv_count = 0;
};

std::string lint_hint() { return "replace std::getenv(\"X\") with a RunOptions field"; }
