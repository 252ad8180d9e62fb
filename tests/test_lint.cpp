// Tests for the km_lint determinism scanner (tools/lint).
//
// Two layers: in-process rule tests against tests/lint_fixtures/ and
// inline snippets (library API), plus a subprocess test that runs the
// km_lint binary and checks its exit-code and JSON report contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

#ifdef __unix__
#include <sys/wait.h>
#endif

namespace {

using km::lint::Finding;
using km::lint::scan_file;
using km::lint::scan_source;

std::string fixture(const std::string& name) {
  return std::string(KM_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

TEST(LintRules, CatalogueListsAllSevenRules) {
  std::vector<std::string> ids;
  for (const km::lint::RuleInfo& r : km::lint::rules()) {
    ids.emplace_back(r.id);
  }
  const std::vector<std::string> expected = {
      "random-device",  "c-rand",        "wall-clock",   "pointer-key-map",
      "unordered-iter", "unseeded-rng",  "trace-outside-module"};
  EXPECT_EQ(ids, expected);
  for (const km::lint::RuleInfo& r : km::lint::rules()) {
    EXPECT_FALSE(r.summary.empty()) << r.id;
  }
}

struct FixtureCase {
  const char* file;
  const char* logical;  // path the scanner sees (drives path scoping)
  const char* rule;
};

// Print the rule, not the struct's bytes: the printed value names the
// CTest case, and raw pointer bytes would rename it on every run.
void PrintTo(const FixtureCase& fc, std::ostream* os) { *os << fc.rule; }

class LintFixture : public ::testing::TestWithParam<FixtureCase> {};

// Every fixture seeds exactly one violation of its rule plus an
// allowlisted counterpart; the allow() escape must swallow the latter.
TEST_P(LintFixture, FiresOnceAndAllowSuppresses) {
  const FixtureCase& fc = GetParam();
  auto findings = scan_file(fixture(fc.file), fc.logical);
  ASSERT_TRUE(findings.has_value()) << fc.file;
  ASSERT_EQ(findings->size(), 1u)
      << fc.file << " rules: " << ::testing::PrintToString(
             rules_of(*findings));
  EXPECT_EQ((*findings)[0].rule, fc.rule);
  EXPECT_EQ((*findings)[0].path, fc.logical);
  EXPECT_GT((*findings)[0].line, 0u);
  EXPECT_FALSE((*findings)[0].message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LintFixture,
    ::testing::Values(
        FixtureCase{"random_device.cpp", "tests/random_device.cpp",
                    "random-device"},
        FixtureCase{"c_rand.cpp", "tests/c_rand.cpp", "c-rand"},
        // wall_clock's allowed counterpart must sit on a sanctioned path
        // or its escape would fire trace-outside-module.
        FixtureCase{"wall_clock.cpp", "src/sim/trace.cpp", "wall-clock"},
        FixtureCase{"trace_outside_module.cpp",
                    "src/runtime/trace_outside_module.cpp",
                    "trace-outside-module"},
        FixtureCase{"pointer_key_map.cpp", "tests/pointer_key_map.cpp",
                    "pointer-key-map"},
        // unordered-iter is path-scoped: scan under src/sim/.
        FixtureCase{"unordered_iter.cpp", "src/sim/unordered_iter.cpp",
                    "unordered-iter"},
        FixtureCase{"unseeded_rng.cpp", "tests/unseeded_rng.cpp",
                    "unseeded-rng"}));

TEST(LintRules, CleanFixtureHasNoFindings) {
  auto findings = scan_file(fixture("clean.cpp"), "src/sim/clean.cpp");
  ASSERT_TRUE(findings.has_value());
  EXPECT_TRUE(findings->empty())
      << ::testing::PrintToString(rules_of(*findings));
}

TEST(LintRules, MissingFileReturnsNullopt) {
  EXPECT_FALSE(scan_file(fixture("does_not_exist.cpp"), "x.cpp"));
}

TEST(LintRules, LinesAreOneBased) {
  const auto findings =
      scan_source("src/sim/x.cpp", "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintRules, CommentsAndStringsDoNotFire) {
  const auto findings = scan_source("src/sim/x.cpp",
                                    "// std::random_device in a comment\n"
                                    "/* rand() in a block comment */\n"
                                    "const char* s = \"std::rand()\";\n");
  EXPECT_TRUE(findings.empty())
      << ::testing::PrintToString(rules_of(findings));
}

TEST(LintRules, AllowListAcceptsMultipleRules) {
  const auto findings = scan_source(
      "src/sim/x.cpp",
      "// km-lint: allow(wall-clock, random-device) -- test\n"
      "std::random_device rd;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, AllowForOtherRuleDoesNotSuppress) {
  const auto findings =
      scan_source("src/sim/x.cpp",
                  "// km-lint: allow(wall-clock) -- wrong rule\n"
                  "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "random-device");
}

TEST(LintRules, WallClockEscapeIsScopedToTheTraceModule) {
  const std::string code =
      "// km-lint: allow(wall-clock) -- timing\n"
      "auto t = std::chrono::steady_clock::now();\n";
  // Sanctioned homes: the tracing module and engine.cpp's wall_ms reads.
  EXPECT_TRUE(scan_source("src/sim/trace.cpp", code).empty());
  EXPECT_TRUE(scan_source("src/sim/trace.hpp", code).empty());
  EXPECT_TRUE(scan_source("src/sim/engine.cpp", code).empty());
  // Anywhere else the escape comment itself is the finding.
  const auto findings = scan_source("src/runtime/results.cpp", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "trace-outside-module");
  // An unescaped clock read still fires plain wall-clock, once.
  const auto bare = scan_source(
      "src/runtime/results.cpp",
      "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].rule, "wall-clock");
}

TEST(LintRules, PointerKeyDetectsNestedAndConstKeys) {
  EXPECT_EQ(scan_source("x.cpp", "std::unordered_map<const Node*, int> m;\n")
                .size(),
            1u);
  EXPECT_TRUE(
      scan_source("x.cpp", "std::map<std::pair<int, int>, Node*> m;\n")
          .empty());  // pointer *values* are fine, keys are not
}

TEST(LintRules, UnorderedIterIsScopedToOrderSensitivePaths) {
  const std::string code =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> counts;\n"
      "int f() { int t = 0; for (auto& kv : counts) t += kv.second; "
      "return t; }\n";
  EXPECT_EQ(scan_source("src/sim/x.cpp", code).size(), 1u);
  EXPECT_EQ(scan_source("tools/x.cpp", code).size(), 1u);
  // The algorithm kernels are order-sensitive too: their iteration feeds
  // per-link send order, which the portable golden snapshots pin.
  EXPECT_EQ(scan_source("src/core/x.cpp", code).size(), 1u);
  // Paths outside the tree (third-party, build dirs) stay unscanned.
  EXPECT_TRUE(scan_source("extern/x.cpp", code).empty());
}

TEST(LintRules, UnorderedIterMatchesMemberChains) {
  // `for (... : edges.adjacency)` walks the container as surely as a
  // bare name does: the rule matches the chain's last identifier.
  auto findings = scan_file(fixture("unordered_iter_member.cpp"),
                            "src/core/unordered_iter_member.cpp");
  ASSERT_TRUE(findings.has_value());
  ASSERT_EQ(findings->size(), 2u)
      << ::testing::PrintToString(rules_of(*findings));
  for (const Finding& f : *findings) EXPECT_EQ(f.rule, "unordered-iter");
  EXPECT_LT((*findings)[0].line, (*findings)[1].line);
}

TEST(LintRules, SeededEngineAndEngineTypeUsesDoNotFire) {
  EXPECT_TRUE(
      scan_source("x.cpp", "std::mt19937_64 gen(seed);\n").empty());
  EXPECT_TRUE(
      scan_source("x.cpp", "void seed(std::mt19937& gen);\n").empty());
  EXPECT_EQ(scan_source("x.cpp", "std::mt19937 gen;\n").size(), 1u);
  EXPECT_EQ(scan_source("x.cpp", "auto r = std::mt19937_64();\n").size(),
            1u);
}

#ifdef __unix__
int run_km_lint(const std::string& args) {
  const std::string cmd = std::string(KM_LINT_BIN) + " " + args;
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(LintCli, ExitCodesFollowContract) {
  EXPECT_EQ(run_km_lint("--quiet --root " KM_LINT_FIXTURE_DIR
                        " " +
                        fixture("clean.cpp")),
            0);
  EXPECT_EQ(run_km_lint("--quiet --root " KM_LINT_FIXTURE_DIR
                        " " +
                        fixture("random_device.cpp")),
            1);
  EXPECT_EQ(run_km_lint("--quiet " + fixture("no_such_file.cpp")), 2);
  EXPECT_EQ(run_km_lint("--bogus-flag"), 2);
}

TEST(LintCli, JsonReportCarriesVersionAndFindings) {
  const std::string out =
      ::testing::TempDir() + "/km_lint_report.json";
  EXPECT_EQ(run_km_lint("--quiet --json " + out + " --root " +
                        KM_LINT_FIXTURE_DIR + " " +
                        fixture("random_device.cpp")),
            1);
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"km.lint_report/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"random-device\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
}
#endif  // __unix__

}  // namespace
