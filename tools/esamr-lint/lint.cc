// esamr-lint implementation: lexer, lightweight parse, and the rule engine.
//
// The parse is deliberately token-level — no preprocessor expansion, no
// semantic analysis. Each rule is written against the token shapes this
// codebase actually uses (the fixture corpus under tools/esamr-lint/fixtures
// pins that contract), which keeps the analyzer a few hundred lines and
// dependency-free while still being precise enough to run zero-findings
// clean on the live tree.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace esamr::lint {
namespace {

// --- Lexer -----------------------------------------------------------------

struct Tok {
  enum class K { ident, num, str, chr, punct, pp };
  K kind = K::punct;
  std::string text;
  int line = 1;
  int col = 1;
};

struct Comment {
  std::string text;
  int line = 1;  // line the comment starts on
};

struct Lexed {
  std::vector<Tok> toks;
  std::vector<Comment> comments;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

Lexed lex(const std::string& s) {
  Lexed out;
  const std::size_t n = s.size();
  int line = 1;
  int line_start = 0;  // offset of the current line's first char
  std::size_t i = 0;
  const auto col = [&](std::size_t pos) { return static_cast<int>(pos) - line_start + 1; };
  const auto newline = [&](std::size_t pos) {
    ++line;
    line_start = static_cast<int>(pos) + 1;
  };
  const auto push = [&](Tok::K k, std::size_t begin, std::size_t end) {
    out.toks.push_back(Tok{k, s.substr(begin, end - begin), line, col(begin)});
  };
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      newline(i);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: only whitespace may precede the '#'.
    if (c == '#') {
      bool at_line_start = true;
      for (int p = line_start; p < static_cast<int>(i); ++p) {
        if (std::isspace(static_cast<unsigned char>(s[static_cast<std::size_t>(p)])) == 0) {
          at_line_start = false;
          break;
        }
      }
      if (at_line_start) {
        const std::size_t begin = i;
        while (i < n) {
          if (s[i] == '\\' && i + 1 < n && s[i + 1] == '\n') {
            newline(i + 1);
            i += 2;
            continue;
          }
          if (s[i] == '\n') break;
          ++i;
        }
        push(Tok::K::pp, begin, i);
        continue;
      }
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      const std::size_t begin = i;
      const int start_line = line;
      while (i < n && s[i] != '\n') ++i;
      out.comments.push_back(Comment{s.substr(begin, i - begin), start_line});
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const std::size_t begin = i;
      const int start_line = line;
      i += 2;
      while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') newline(i);
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      out.comments.push_back(Comment{s.substr(begin, i - begin), start_line});
      continue;
    }
    if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      const std::size_t begin = i;
      std::size_t d = i + 2;
      while (d < n && s[d] != '(') ++d;
      const std::string close = ")" + s.substr(i + 2, d - (i + 2)) + "\"";
      std::size_t end = s.find(close, d);
      end = end == std::string::npos ? n : end + close.size();
      for (std::size_t p = i; p < end; ++p) {
        if (s[p] == '\n') newline(p);
      }
      push(Tok::K::str, begin, end);
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      const std::size_t begin = i;
      ++i;
      while (i < n && s[i] != c) {
        if (s[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      i = i < n ? i + 1 : n;
      push(c == '"' ? Tok::K::str : Tok::K::chr, begin, i);
      continue;
    }
    if (ident_start(c)) {
      const std::size_t begin = i;
      while (i < n && ident_char(s[i])) ++i;
      push(Tok::K::ident, begin, i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t begin = i;
      while (i < n && (ident_char(s[i]) || s[i] == '.' || s[i] == '\'' ||
                       ((s[i] == '+' || s[i] == '-') && i > begin &&
                        (s[i - 1] == 'e' || s[i - 1] == 'E' || s[i - 1] == 'p' ||
                         s[i - 1] == 'P')))) {
        ++i;
      }
      push(Tok::K::num, begin, i);
      continue;
    }
    // Punctuation; '::' and '->' are merged (the rules match on them).
    if (c == ':' && i + 1 < n && s[i + 1] == ':') {
      push(Tok::K::punct, i, i + 2);
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && s[i + 1] == '>') {
      push(Tok::K::punct, i, i + 2);
      i += 2;
      continue;
    }
    push(Tok::K::punct, i, i + 1);
    ++i;
  }
  return out;
}

// --- Token helpers ---------------------------------------------------------

bool is(const std::vector<Tok>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}
bool is_ident(const std::vector<Tok>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::K::ident;
}

/// Index of the token matching the opener at `i` ('(' / '{' / '['); t.size()
/// when unbalanced (truncated or macro-mangled input — scan just stops).
std::size_t match(const std::vector<Tok>& t, std::size_t i) {
  const std::string& open = t[i].text;
  const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> k = {
      "if",     "for",   "while",     "switch",  "catch",    "return", "sizeof",
      "alignof", "decltype", "static_assert", "new", "delete", "throw", "else",
      "do",     "case",  "default",   "goto",    "co_return", "co_await", "co_yield",
      "alignas", "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "noexcept", "requires", "operator", "using", "typedef", "template", "typename"};
  return k;
}

/// Collectives the SPMD contract requires every rank to call in lockstep.
const std::set<std::string>& collective_names() {
  static const std::set<std::string> k = {
      "barrier",        "bcast",           "bcast_bytes",      "bcast_vector",
      "reduce",         "reduce_bytes",    "allreduce",        "allreduce_bytes",
      "allgather",      "allgather_bytes", "allgatherv",       "allgatherv_bytes",
      "alltoallv",      "alltoall_bytes",  "exscan_sum",       "exscan_bytes",
      "iallreduce",     "iallreduce_bytes", "iallgatherv",     "iallgatherv_bytes",
      "stats_snapshot"};
  return k;
}

/// Comm entry points that must thread a std::source_location so the dynamic
/// checker can name the user call site in race/deadlock/mismatch reports.
/// Buffered never-blocking entries (send*, iprobe) are exempt by design.
const std::set<std::string>& entry_names() {
  static std::set<std::string> k = [] {
    std::set<std::string> e = collective_names();
    e.erase("stats_snapshot");  // diagnostic collective, not a user entry
    e.insert("recv");
    e.insert("irecv");
    e.insert("isend");
    e.insert("isend_bytes");
    return e;
  }();
  return k;
}

/// Name-level sinks for the determinism rule: any function that (transitively)
/// calls one of these turns iteration order into observable behavior — wire
/// traffic, a digest, or checkpoint bytes.
const std::set<std::string>& sink_names() {
  static std::set<std::string> k = [] {
    std::set<std::string> s = collective_names();
    for (const char* n : {"send", "send_bytes", "send_value", "isend", "isend_bytes",
                          "recv", "irecv", "crc32c", "crc32c_update",
                          "write_checkpoint", "write_checkpoint_ring",
                          "write_delta_checkpoint_ring", "CheckedFile",
                          "fwrite", "fprintf", "fopen"}) {
      s.insert(n);
    }
    return s;
  }();
  return k;
}

// --- Statement extents (rule: collective-divergence) -----------------------

std::size_t stmt_end(const std::vector<Tok>& t, std::size_t i);

/// One-past-the-end of a plain statement: scan to ';' at depth 0.
std::size_t plain_stmt_end(const std::vector<Tok>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    const std::string& x = t[j].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    if (x == ")" || x == "]" || x == "}") {
      if (depth == 0) return j;  // ran out of the enclosing scope
      --depth;
    }
    if (depth == 0 && x == ";") return j + 1;
  }
  return t.size();
}

std::size_t stmt_end(const std::vector<Tok>& t, std::size_t i) {
  if (i >= t.size()) return i;
  const std::string& s = t[i].text;
  if (s == "{") return match(t, i) + 1;
  if (s == "if" || s == "while" || s == "for" || s == "switch") {
    std::size_t j = i + 1;
    if (is(t, j, "constexpr")) ++j;
    if (!is(t, j, "(")) return plain_stmt_end(t, i);
    j = match(t, j) + 1;
    j = stmt_end(t, j);
    if (s == "if" && is(t, j, "else")) return stmt_end(t, j + 1);
    return j;
  }
  if (s == "do") {
    std::size_t j = stmt_end(t, i + 1);
    if (is(t, j, "while") && is(t, j + 1, "(")) {
      j = match(t, j + 1) + 1;
      if (is(t, j, ";")) ++j;
    }
    return j;
  }
  return plain_stmt_end(t, i);
}

// --- Suppressions ----------------------------------------------------------

struct Allow {
  std::string rule;
  std::string reason;
  int line = 0;
  bool used = false;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parse `esamr-lint: allow(<rule>) — <reason>` comments. Malformed ones
/// (no parenthesized rule, or an empty reason) become `suppression` findings:
/// a suppression that does not say why is itself a violation.
void collect_allows(const std::string& path, const std::vector<Comment>& comments,
                    std::vector<Allow>* allows, std::vector<Finding>* findings) {
  for (const auto& c : comments) {
    const std::size_t at = c.text.find("esamr-lint:");
    if (at == std::string::npos) continue;
    std::string rest = trim(c.text.substr(at + std::string("esamr-lint:").size()));
    const bool is_allow = rest.rfind("allow", 0) == 0;
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')');
    if (!is_allow || open == std::string::npos || close == std::string::npos || close < open) {
      findings->push_back(Finding{"suppression", path, c.line, 1,
                                  "malformed esamr-lint comment (expected "
                                  "`esamr-lint: allow(<rule>) — <reason>`)"});
      continue;
    }
    const std::string rule = trim(rest.substr(open + 1, close - open - 1));
    std::string reason = rest.substr(close + 1);
    // Strip the leading separator (em-dash, hyphens, or colon) off the reason.
    std::size_t b = 0;
    while (b < reason.size() &&
           (std::isspace(static_cast<unsigned char>(reason[b])) != 0 || reason[b] == '-' ||
            reason[b] == ':' || static_cast<unsigned char>(reason[b]) >= 0x80)) {
      ++b;
    }
    reason = trim(reason.substr(b));
    const auto ids = rule_ids();
    if (std::find(ids.begin(), ids.end(), rule) == ids.end()) {
      findings->push_back(Finding{"suppression", path, c.line, 1,
                                  "allow() names unknown rule '" + rule + "'"});
      continue;
    }
    if (reason.empty()) {
      findings->push_back(Finding{"suppression", path, c.line, 1,
                                  "allow(" + rule + ") without a reason — reasons are mandatory"});
      continue;
    }
    allows->push_back(Allow{rule, reason, c.line, false});
  }
}

// --- Path scoping ----------------------------------------------------------

std::string normalize(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}
bool contains(const std::string& p, const char* needle) {
  return p.find(needle) != std::string::npos;
}
bool ends_with(const std::string& p, const std::string& suffix) {
  return p.size() >= suffix.size() && p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// tests/ and bench/ only get the raw-sleep rule: test code intentionally
/// seeds divergence/determinism violations to exercise the dynamic checker.
bool sleep_only_scope(const std::string& p) {
  return contains(p, "tests/") || contains(p, "bench/");
}

// --- Per-file analysis -----------------------------------------------------

struct FnInfo {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // index of matching '}'
  std::set<std::string> callees;
  struct Iter {
    int line = 0;
    std::string what;
  };
  std::vector<Iter> iters;
  std::string direct_sink;  // first sink name called directly ("" = none)
  // Filled by the project-level closure:
  bool reaches_sink = false;
  std::string witness;
};

struct FileAnalysis {
  std::string path;
  Lexed lx;
  std::vector<Allow> allows;
  std::vector<FnInfo> fns;
  std::vector<Finding> findings;
};

/// Variables declared as std::unordered_map/std::unordered_set anywhere in
/// the file (locals, parameters, members — name-level, no scoping).
std::set<std::string> unordered_vars(const std::vector<Tok>& t) {
  std::set<std::string> vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::K::ident ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
      continue;
    }
    if (!is(t, i + 1, "<")) continue;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">" && --depth == 0) break;
    }
    ++j;
    while (is(t, j, "&") || is(t, j, "*")) ++j;
    if (is_ident(t, j) && control_keywords().count(t[j].text) == 0) vars.insert(t[j].text);
  }
  return vars;
}

/// Extract function definitions: `name (params) [const noexcept ...] {` with
/// constructor init-list handling. Control-flow keywords and lambdas never
/// match (no identifier directly before the '(').
void extract_functions(FileAnalysis* fa) {
  const auto& t = fa->lx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || control_keywords().count(t[i].text) != 0) continue;
    if (!is(t, i + 1, "(")) continue;
    std::size_t j = match(t, i + 1);
    if (j >= t.size()) continue;
    ++j;
    // Skip trailing qualifiers / trailing return / ctor init list.
    while (j < t.size()) {
      const std::string& x = t[j].text;
      if (x == "const" || x == "noexcept" || x == "override" || x == "final" ||
          x == "mutable" || x == "&" || x == "&&") {
        ++j;
      } else if (x == "(" && j > 0 && t[j - 1].text == "noexcept") {
        j = match(t, j) + 1;
      } else if (x == "->") {
        // Trailing return type: skip to the body brace or a terminator.
        int angle = 0;
        ++j;
        while (j < t.size() && !(angle == 0 && (t[j].text == "{" || t[j].text == ";" ||
                                                t[j].text == "="))) {
          if (t[j].text == "<") ++angle;
          if (t[j].text == ">") --angle;
          ++j;
        }
      } else if (x == ":") {
        // Constructor init list: member inits use parens or braces; the brace
        // that follows a ')' / '}' / ',' -free position is the body.
        ++j;
        int depth = 0;
        while (j < t.size()) {
          const std::string& y = t[j].text;
          if (y == "(" || y == "[") ++depth;
          if (y == ")" || y == "]") --depth;
          if (depth == 0 && y == "{") {
            const bool init_brace =
                j > 0 && (t[j - 1].kind == Tok::K::ident || t[j - 1].text == ">");
            if (!init_brace) break;
            j = match(t, j);
            if (j >= t.size()) break;
          }
          if (depth == 0 && y == ";") break;  // not a definition after all
          ++j;
        }
      } else {
        break;
      }
    }
    if (!is(t, j, "{")) continue;
    // A call is preceded by an operator / statement punctuation; a definition
    // is preceded by a type token (identifier, '>', '&', '*', '::', '~') or
    // nothing at all.
    if (i > 0) {
      const Tok& p = t[i - 1];
      const bool decl_prev =
          (p.kind == Tok::K::ident && control_keywords().count(p.text) == 0) ||
          p.text == ">" || p.text == "&" || p.text == "*" || p.text == "::" ||
          p.text == "~" || p.text == ";" || p.text == "}" || p.text == "{" ||
          p.kind == Tok::K::pp;
      if (!decl_prev) continue;
    }
    FnInfo fn;
    fn.name = t[i].text;
    fn.line = t[i].line;
    fn.body_begin = j;
    fn.body_end = match(t, j);
    if (fn.body_end >= t.size()) continue;
    fa->fns.push_back(std::move(fn));
  }
}

/// Fill callees, unordered-container iterations, and direct sinks per
/// function body. Tokens in nested lambdas belong to the enclosing function.
void analyze_bodies(FileAnalysis* fa) {
  const auto& t = fa->lx.toks;
  const std::set<std::string> uvars = unordered_vars(t);
  for (auto& fn : fa->fns) {
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      // Callees: identifier followed by '(' (member and free calls alike).
      if (is_ident(t, i) && control_keywords().count(t[i].text) == 0 && is(t, i + 1, "(")) {
        const bool std_qualified =
            i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
        if (!std_qualified || sink_names().count(t[i].text) != 0) {
          fn.callees.insert(t[i].text);
          if (fn.direct_sink.empty() && sink_names().count(t[i].text) != 0) {
            fn.direct_sink = t[i].text;
          }
        }
      }
      // CheckedFile is a sink by mention (constructions read `CheckedFile f(...)`).
      if (is_ident(t, i) && t[i].text == "CheckedFile") {
        fn.callees.insert("CheckedFile");
        if (fn.direct_sink.empty()) fn.direct_sink = "CheckedFile";
      }
      // Range-for over an unordered container (declared variable or a
      // directly-spelled unordered_{map,set} temporary).
      if (is(t, i, "for") && is(t, i + 1, "(")) {
        const std::size_t close = match(t, i + 1);
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
          if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
          if (depth == 1 && t[j].text == ":") {
            colon = j;
            break;
          }
        }
        if (colon != 0) {
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (!is_ident(t, j)) continue;
            if (uvars.count(t[j].text) != 0 || t[j].text == "unordered_map" ||
                t[j].text == "unordered_set") {
              fn.iters.push_back(FnInfo::Iter{t[i].line, t[j].text});
              break;
            }
          }
        }
      }
      // Iterator-style walk: uvar.begin() / uvar.cbegin().
      if (is_ident(t, i) && uvars.count(t[i].text) != 0 && is(t, i + 1, ".") &&
          (is(t, i + 2, "begin") || is(t, i + 2, "cbegin")) && is(t, i + 3, "(")) {
        fn.iters.push_back(FnInfo::Iter{t[i].line, t[i].text});
      }
    }
  }
}

// --- Single-file token rules -----------------------------------------------

void rule_collective_divergence(FileAnalysis* fa) {
  const auto& t = fa->lx.toks;
  std::set<std::pair<int, int>> seen;  // (line, col) dedupe across nested regions
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& kw = t[i].text;
    if (kw != "if" && kw != "while" && kw != "for" && kw != "switch") continue;
    std::size_t open = i + 1;
    if (is(t, open, "constexpr")) ++open;
    if (!is(t, open, "(")) continue;
    const std::size_t close = match(t, open);
    bool rank_dep = false;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (is_ident(t, j) && (t[j].text == "rank" || t[j].text == "rank_")) {
        rank_dep = true;
        break;
      }
    }
    if (!rank_dep) continue;
    const std::size_t region_end = stmt_end(t, i);  // body + else chain
    for (std::size_t j = close + 1; j + 1 < region_end && j + 1 < t.size(); ++j) {
      if (!is_ident(t, j) || collective_names().count(t[j].text) == 0) continue;
      if (!is(t, j + 1, "(")) continue;
      if (j >= 2 && t[j - 1].text == "::" && t[j - 2].text == "std") continue;
      if (!seen.insert({t[j].line, t[j].col}).second) continue;
      fa->findings.push_back(Finding{
          "collective-divergence", fa->path, t[j].line, t[j].col,
          "collective '" + t[j].text + "' inside a rank-dependent '" + kw +
              "' (condition at line " + std::to_string(t[i].line) +
              ") — a subset of ranks entering a collective is a hang at scale"});
    }
  }
}

void rule_payload_vector(FileAnalysis* fa) {
  if (!contains(fa->path, "src/par/")) return;
  const auto& t = fa->lx.toks;
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || t[i].text != "uint8_t") continue;
    std::size_t j = i - 1;
    if (j >= 2 && t[j].text == "::" && t[j - 1].text == "std") j -= 2;
    if (j < 1 || t[j].text != "<" || t[j - 1].text != "vector") continue;
    if (!is(t, i + 1, ">")) continue;
    fa->findings.push_back(Finding{
        "payload-vector", fa->path, t[j - 1].line, t[j - 1].col,
        "raw std::vector<uint8_t> payload type in src/par — use par::Buffer / "
        "std::vector<std::byte> (see src/par/buffer.h)"});
  }
}

void rule_raw_sleep(FileAnalysis* fa) {
  if (contains(fa->path, "par/backoff.")) return;
  const auto& t = fa->lx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || t[i].text != "sleep_for") continue;
    if (!is(t, i + 1, "(")) continue;
    fa->findings.push_back(Finding{
        "raw-sleep", fa->path, t[i].line, t[i].col,
        "raw sleep_for outside par/backoff — unseeded, unaccounted delay; use "
        "par::detail::sleep_s/sleep_us or par::SeededBackoff (src/par/backoff.h)"});
  }
}

void rule_raw_getenv(FileAnalysis* fa) {
  if (ends_with(fa->path, "par/check.cc")) return;
  const auto& t = fa->lx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || t[i].text != "getenv") continue;
    if (!is(t, i + 1, "(")) continue;
    fa->findings.push_back(Finding{
        "raw-getenv", fa->path, t[i].line, t[i].col,
        "getenv outside par/check.cc — ESAMR_CHECK is the one environment switch; take "
        "options through RunOptions or name the value as a constant"});
  }
}

void rule_comm_entry(FileAnalysis* fa) {
  if (!ends_with(fa->path, "par/comm.h") && !ends_with(fa->path, "par/request.h")) return;
  const auto& t = fa->lx.toks;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || entry_names().count(t[i].text) == 0) continue;
    if (!is(t, i + 1, "(")) continue;
    // Declarations are preceded by a type token; calls by an operator,
    // statement punctuation, or a flow keyword (`return f(...)`).
    const Tok& p = t[i - 1];
    const bool decl_prev =
        (p.kind == Tok::K::ident && control_keywords().count(p.text) == 0) ||
        p.text == ">" || p.text == "&" || p.text == "*";
    if (!decl_prev) continue;
    const std::size_t close = match(t, i + 1);
    bool has_loc = false;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (is_ident(t, j) && t[j].text == "source_location") {
        has_loc = true;
        break;
      }
    }
    if (has_loc) continue;
    fa->findings.push_back(Finding{
        "comm-entry", fa->path, t[i].line, t[i].col,
        "comm entry '" + t[i].text +
            "' does not thread std::source_location — the checker's race/deadlock/"
            "mismatch reports need the user call site (see comm.h contract)"});
  }
}

void rule_checked_io(FileAnalysis* fa) {
  if (ends_with(fa->path, "io/checked_file.h")) return;
  const auto& t = fa->lx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i)) continue;
    const std::string& x = t[i].text;
    if (x != "fopen" && x != "fwrite" && x != "fprintf") continue;
    if (!is(t, i + 1, "(")) continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;  // member
    fa->findings.push_back(Finding{
        "checked-io", fa->path, t[i].line, t[i].col,
        "raw " + x + " — unchecked stdio writes truncate silently on a full disk; "
        "use io::CheckedFile (src/io/checked_file.h)"});
  }
}

// --- Project assembly ------------------------------------------------------

FileAnalysis analyze_file_ctx(const std::string& path, const std::string& text) {
  FileAnalysis fa;
  fa.path = normalize(path);
  fa.lx = lex(text);
  collect_allows(fa.path, fa.lx.comments, &fa.allows, &fa.findings);
  if (sleep_only_scope(fa.path)) {
    rule_raw_sleep(&fa);
    return fa;
  }
  extract_functions(&fa);
  analyze_bodies(&fa);
  rule_collective_divergence(&fa);
  rule_payload_vector(&fa);
  rule_raw_sleep(&fa);
  rule_raw_getenv(&fa);
  rule_comm_entry(&fa);
  rule_checked_io(&fa);
  return fa;
}

/// Cross-file determinism closure: a function reaches a sink if it calls one
/// directly or calls (by name, any file) a function that does.
void determinism_closure(std::vector<FileAnalysis>* files) {
  std::map<std::string, std::vector<FnInfo*>> by_name;
  std::vector<FnInfo*> all;
  for (auto& fa : *files) {
    for (auto& fn : fa.fns) {
      by_name[fn.name].push_back(&fn);
      all.push_back(&fn);
    }
  }
  for (FnInfo* fn : all) {
    if (!fn->direct_sink.empty()) {
      fn->reaches_sink = true;
      fn->witness = fn->direct_sink;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (FnInfo* fn : all) {
      if (fn->reaches_sink) continue;
      for (const auto& callee : fn->callees) {
        const auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (const FnInfo* target : it->second) {
          if (target->reaches_sink) {
            fn->reaches_sink = true;
            fn->witness = callee + " -> " + target->witness;
            changed = true;
            break;
          }
        }
        if (fn->reaches_sink) break;
      }
    }
  }
  for (auto& fa : *files) {
    for (const auto& fn : fa.fns) {
      if (!fn.reaches_sink) continue;
      for (const auto& it : fn.iters) {
        fa.findings.push_back(Finding{
            "determinism", fa.path, it.line, 1,
            "iteration over unordered container '" + it.what + "' in '" + fn.name +
                "()', which reaches '" + fn.witness +
                "' — hash order would feed wire traffic / digests / checkpoints"});
      }
    }
  }
}

/// Move findings covered by a same-line or preceding-line allow() into the
/// suppressed list; everything else survives.
void apply_suppressions(std::vector<FileAnalysis>* files, Report* report) {
  for (auto& fa : *files) {
    for (auto& f : fa.findings) {
      bool suppressed = false;
      if (f.rule != "suppression") {
        for (auto& a : fa.allows) {
          if (a.rule == f.rule && (a.line == f.line || a.line == f.line - 1)) {
            a.used = true;
            report->suppressed.push_back(Suppressed{f.rule, f.path, f.line, a.reason});
            suppressed = true;
            break;
          }
        }
      }
      if (!suppressed) report->findings.push_back(std::move(f));
    }
  }
}

void finish(std::vector<FileAnalysis>* files, const Options& opts, Report* report) {
  determinism_closure(files);
  apply_suppressions(files, report);
  if (!opts.rules.empty()) {
    std::erase_if(report->findings,
                  [&](const Finding& f) { return opts.rules.count(f.rule) == 0; });
    std::erase_if(report->suppressed,
                  [&](const Suppressed& s) { return opts.rules.count(s.rule) == 0; });
  }
  std::sort(report->findings.begin(), report->findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.col, a.rule) <
                     std::tie(b.path, b.line, b.col, b.rule);
            });
  std::sort(report->suppressed.begin(), report->suppressed.end(),
            [](const Suppressed& a, const Suppressed& b) {
              return std::tie(a.path, a.line, a.rule) < std::tie(b.path, b.line, b.rule);
            });
  report->files_scanned = static_cast<int>(files->size());
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> rule_ids() {
  return {"collective-divergence", "determinism", "payload-vector",
          "raw-sleep", "raw-getenv", "comm-entry", "checked-io"};
}

Report analyze_source(const std::string& path, const std::string& text, const Options& opts) {
  std::vector<FileAnalysis> files;
  files.push_back(analyze_file_ctx(path, text));
  Report report;
  finish(&files, opts, &report);
  return report;
}

Report analyze_paths(const std::vector<std::string>& paths, const Options& opts) {
  namespace fs = std::filesystem;
  std::vector<std::string> inputs;
  for (const auto& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".h" || ext == ".cc") inputs.push_back(e.path().string());
      }
    } else if (fs::is_regular_file(p)) {
      inputs.push_back(p);
    } else {
      throw std::runtime_error("esamr-lint: no such file or directory: " + p);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  std::vector<FileAnalysis> files;
  files.reserve(inputs.size());
  for (const auto& p : inputs) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("esamr-lint: cannot read " + p);
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back(analyze_file_ctx(p, ss.str()));
  }
  Report report;
  finish(&files, opts, &report);
  return report;
}

std::string to_json(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const auto& f = report.findings[i];
    os << (i != 0 ? "," : "") << "\n    {\"rule\": \"" << json_escape(f.rule)
       << "\", \"path\": \"" << json_escape(f.path) << "\", \"line\": " << f.line
       << ", \"col\": " << f.col << ", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (report.findings.empty() ? "" : "\n  ") << "],\n  \"suppressed\": [";
  for (std::size_t i = 0; i < report.suppressed.size(); ++i) {
    const auto& s = report.suppressed[i];
    os << (i != 0 ? "," : "") << "\n    {\"rule\": \"" << json_escape(s.rule)
       << "\", \"path\": \"" << json_escape(s.path) << "\", \"line\": " << s.line
       << ", \"reason\": \"" << json_escape(s.reason) << "\"}";
  }
  os << (report.suppressed.empty() ? "" : "\n  ") << "],\n  \"summary\": {\"files\": "
     << report.files_scanned << ", \"findings\": " << report.findings.size()
     << ", \"suppressed\": " << report.suppressed.size() << "}\n}\n";
  return os.str();
}

std::string to_text(const Report& report) {
  std::ostringstream os;
  for (const auto& f : report.findings) {
    os << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  for (const auto& s : report.suppressed) {
    os << s.path << ":" << s.line << ": suppressed [" << s.rule << "] — " << s.reason << "\n";
  }
  os << "esamr-lint: " << report.files_scanned << " files, " << report.findings.size()
     << " finding(s), " << report.suppressed.size() << " suppressed (with reasons)\n";
  return os.str();
}

}  // namespace esamr::lint
