// esamr-lint — project-specific static SPMD-divergence & determinism analyzer.
//
// The dynamic checker (src/par/check.h) diagnoses communication-discipline
// violations at runtime, at whatever P the test happened to run. The
// invariants it enforces are structural properties of the source, though:
// a collective issued under a rank-dependent branch diverges at *every* P,
// an unordered-container iteration feeding a message or a digest is
// nondeterministic on *every* platform. This tool enforces them lexically,
// on every commit, with its own lexer and lightweight C++ parse — no
// libclang, so it runs in the gcc-only CI container where clang-tidy is
// absent.
//
// Rules (ids are what `// esamr-lint: allow(<rule>) — <reason>` names):
//   collective-divergence  collective call inside a rank-dependent branch
//   determinism            unordered_{map,set} iteration reaching comm/CRC/
//                          checkpoint sinks (cross-file call-graph closure)
//   payload-vector         raw std::vector<uint8_t> payload type in src/par
//   raw-sleep              std::this_thread::sleep_for outside par/backoff
//   raw-getenv             getenv outside par/check.cc (ESAMR_CHECK is the
//                          one environment switch)
//   comm-entry             comm-entry declaration in par/comm.h or
//                          par/request.h without a std::source_location
//   checked-io             raw fopen/fwrite/fprintf outside io/checked_file.h
//   suppression            malformed allow() comment (missing reason)
//
// Scoping is by path substring so the same engine runs over both the live
// tree and the fixture corpus (tools/esamr-lint/fixtures mirrors the tree
// layout): every rule applies under "src/"; tests/ and bench/ get only the
// raw-sleep rule (test code intentionally seeds divergence violations for
// the dynamic checker).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace esamr::lint {

/// One diagnostic: a named rule violated at a source location.
struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  int col = 0;
  std::string message;
};

/// One honored suppression: `// esamr-lint: allow(<rule>) — <reason>` that
/// matched a finding on its own or the following line. Counted in the
/// summary so silenced diagnostics stay visible.
struct Suppressed {
  std::string rule;
  std::string path;
  int line = 0;
  std::string reason;
};

struct Report {
  std::vector<Finding> findings;
  std::vector<Suppressed> suppressed;
  int files_scanned = 0;

  bool clean() const { return findings.empty(); }
};

struct Options {
  /// Restrict to these rule ids (empty = all rules).
  std::set<std::string> rules;
};

/// All rule ids the analyzer knows (excluding the internal `suppression`
/// diagnostic), in stable order.
std::vector<std::string> rule_ids();

/// Analyze one in-memory file (unit-test entry point). `path` drives the
/// rule scoping, so fixtures use tree-shaped relative paths.
Report analyze_source(const std::string& path, const std::string& text,
                      const Options& opts = {});

/// Analyze files and directories (directories are walked recursively for
/// *.h / *.cc). The cross-file determinism call graph spans the whole set.
Report analyze_paths(const std::vector<std::string>& paths, const Options& opts = {});

/// Findings + suppressions + summary as a JSON document (CI artifact shape).
std::string to_json(const Report& report);

/// Human-readable one-line-per-finding rendering plus the summary line.
std::string to_text(const Report& report);

}  // namespace esamr::lint
