// esamr-lint contract tests.
//
// Three-sided pin per rule, over the fixture corpus in
// tools/esamr-lint/fixtures (which mirrors the tree layout so the real path
// scoping applies): the violating snippet fires with the exact rule id, file,
// and line; the reasoned allow() suppresses it (and the suppression is
// counted, not dropped); the clean snippet — including the old grep gates'
// false-positive surface of comments and string literals — stays silent.
// Plus the zero-findings contract on the live tree: the same invocation the
// `lint_static` ctest case and CI gate run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.h"

namespace {

using esamr::lint::Options;
using esamr::lint::Report;

std::string fixture(const std::string& rel) {
  return std::string(ESAMR_SOURCE_DIR) + "/tools/esamr-lint/fixtures/" + rel;
}

/// (rule, file basename, line) triples, sorted, for exact-match assertions.
std::vector<std::string> triples(const Report& r) {
  std::vector<std::string> out;
  for (const auto& f : r.findings) {
    const std::size_t slash = f.path.find_last_of('/');
    out.push_back(f.rule + " " + f.path.substr(slash + 1) + ":" + std::to_string(f.line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Report run(const std::string& rel) { return esamr::lint::analyze_paths({fixture(rel)}); }

struct RuleCase {
  const char* dir;
  const char* rule;
  std::vector<std::string> expected;  // violate-side triples
};

const std::vector<RuleCase>& cases() {
  static const std::vector<RuleCase> c = {
      {"collective_divergence", "collective-divergence",
       {"collective-divergence diverge.cc:13", "collective-divergence diverge.cc:7",
        "collective-divergence diverge.cc:9"}},
      {"determinism", "determinism", {"determinism weights.cc:10"}},
      {"payload_vector", "payload-vector",
       {"payload-vector legacy.h:12", "payload-vector legacy.h:9"}},
      {"raw_sleep", "raw-sleep", {"raw-sleep spin.cc:7"}},
      {"raw_getenv", "raw-getenv", {"raw-getenv knob.cc:7", "raw-getenv knob.cc:8"}},
      {"comm_entry", "comm-entry", {"comm-entry comm.h:11", "comm-entry comm.h:12"}},
      {"checked_io", "checked-io",
       {"checked-io dump.cc:6", "checked-io dump.cc:7", "checked-io dump.cc:8"}},
  };
  return c;
}

TEST(LintFixtures, ViolationsFireWithExactRuleFileAndLine) {
  for (const auto& c : cases()) {
    const Report r = run(std::string(c.dir) + "/violate");
    EXPECT_EQ(triples(r), c.expected) << c.dir << "/violate";
    EXPECT_TRUE(r.suppressed.empty()) << c.dir << "/violate";
  }
}

TEST(LintFixtures, ReasonedAllowSuppressesAndIsCounted) {
  for (const auto& c : cases()) {
    const Report r = run(std::string(c.dir) + "/suppressed");
    EXPECT_TRUE(r.findings.empty()) << c.dir << "/suppressed: " << esamr::lint::to_text(r);
    ASSERT_EQ(r.suppressed.size(), 1u) << c.dir << "/suppressed";
    EXPECT_EQ(r.suppressed[0].rule, c.rule);
    EXPECT_FALSE(r.suppressed[0].reason.empty()) << c.dir;
  }
}

TEST(LintFixtures, CleanSnippetsStaySilent) {
  for (const auto& c : cases()) {
    const Report r = run(std::string(c.dir) + "/clean");
    EXPECT_TRUE(r.findings.empty()) << c.dir << "/clean: " << esamr::lint::to_text(r);
    EXPECT_TRUE(r.suppressed.empty()) << c.dir << "/clean";
  }
}

TEST(LintSuppression, AllowWithoutReasonIsItselfAFinding) {
  const Report r = esamr::lint::analyze_source(
      "src/solver/x.cc",
      "// esamr-lint: allow(raw-sleep)\n"
      "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n");
  ASSERT_EQ(r.findings.size(), 2u) << esamr::lint::to_text(r);
  EXPECT_EQ(r.findings[0].rule, "suppression");  // the reason-less allow
  EXPECT_EQ(r.findings[1].rule, "raw-sleep");    // ...which therefore does not suppress
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(LintSuppression, AllowNamingUnknownRuleIsAFinding) {
  const Report r = esamr::lint::analyze_source(
      "src/solver/x.cc", "// esamr-lint: allow(no-such-rule) — because\nint x;\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "suppression");
  EXPECT_NE(r.findings[0].message.find("unknown rule"), std::string::npos);
}

TEST(LintScoping, TestsAndBenchOnlyGetTheRawSleepRule) {
  // A divergent collective in tests/ is deliberate checker-seeding, not a
  // finding; a raw sleep in tests/ is still a finding.
  const Report coll = esamr::lint::analyze_source(
      "tests/test_x.cc", "void f(C& c) { if (c.rank() == 0) c.barrier(); }\n");
  EXPECT_TRUE(coll.findings.empty()) << esamr::lint::to_text(coll);
  const Report sleep = esamr::lint::analyze_source(
      "bench/bench_x.cc", "void f() { std::this_thread::sleep_for(s); }\n");
  ASSERT_EQ(sleep.findings.size(), 1u);
  EXPECT_EQ(sleep.findings[0].rule, "raw-sleep");
}

TEST(LintOptions, RuleFilterRestrictsFindings) {
  Options opts;
  opts.rules.insert("checked-io");
  const Report r = esamr::lint::analyze_paths(
      {fixture("collective_divergence/violate"), fixture("checked_io/violate")}, opts);
  ASSERT_EQ(r.findings.size(), 3u) << esamr::lint::to_text(r);
  for (const auto& f : r.findings) EXPECT_EQ(f.rule, "checked-io");
}

TEST(LintJson, ReportSerializesFindingsAndSummary) {
  const Report r = run("raw_sleep/violate");
  const std::string j = esamr::lint::to_json(r);
  EXPECT_NE(j.find("\"rule\": \"raw-sleep\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"findings\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"suppressed\": []"), std::string::npos) << j;
}

// The zero-findings contract: the exact scan the `lint_static` ctest case and
// the CI lint gate run must be clean on the live tree. A failure here names
// the offending file/line in the assertion message.
TEST(LintLiveTree, ZeroFindings) {
  const std::string root(ESAMR_SOURCE_DIR);
  const Report r = esamr::lint::analyze_paths(
      {root + "/src", root + "/tests", root + "/bench"});
  EXPECT_TRUE(r.findings.empty()) << esamr::lint::to_text(r);
  EXPECT_GT(r.files_scanned, 90);  // the walk really covered the tree
}

}  // namespace
