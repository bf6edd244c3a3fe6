// The bench harnesses' shared helpers (bench/bench_util.h): the --json
// summary must be a valid JSON document whatever bytes its keys and
// values hold; the floor-gated benches' flag parser must read every CI
// command line as before and reject anything that could silently turn a
// floor off; and the advisor-identity check must compare every step.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_util.h"

namespace pinum {
namespace {

using bench::BenchFlags;
using bench::BenchFlagSpec;
using bench::JsonSummary;

TEST(JsonSummaryTest, QuoteEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonSummary::Quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonSummary::Quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonSummary::Quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(JsonSummary::Quote(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  // DEL and UTF-8 bytes are legal inside a JSON string as they are.
  EXPECT_EQ(JsonSummary::Quote("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(JsonSummaryTest, WriteToEscapesKeysAndValues) {
  JsonSummary summary;
  summary.Set("count", int64_t{3});
  summary.Set("line\nbreak \"key\"", std::string("tab\there\x02"));
  summary.Set("ratio", std::numeric_limits<double>::infinity());
  const std::string path = ::testing::TempDir() + std::to_string(getpid()) +
                           "_summary.json";
  ASSERT_TRUE(summary.WriteTo(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(text.str(),
            "{\n"
            "  \"count\": 3,\n"
            "  \"line\\nbreak \\\"key\\\"\": \"tab\\there\\u0002\",\n"
            "  \"ratio\": \"inf\"\n"
            "}\n");
}

/// Parses `args` (argv without the program name) against `spec`.
bool Parse(const BenchFlagSpec& spec, std::vector<const char*> args,
           BenchFlags* flags) {
  args.insert(args.begin(), "bench");
  return bench::ParseBenchFlags(static_cast<int>(args.size()), args.data(),
                                spec, flags);
}

TEST(BenchFlagsTest, CiCommandLinesParseToTheirValues) {
  // Each gated bench's command lines in .github/workflows/ci.yml (the
  // floor-guarded run, the sanitized --smoke run, the fault matrix's
  // seeded run), with the values each bench reads from them.
  struct Case {
    const BenchFlagSpec* spec;
    std::vector<const char*> args;
    int replicas;
    bool smoke;
    const char* json;
    uint64_t seed;
    std::map<std::string, double> floors;
  };
  const std::vector<Case> cases = {
      {&bench::kServingThroughputFlags,
       {"--smoke", "--json", "bench_serving_throughput.json"},
       1, true, "bench_serving_throughput.json", 1, {}},
      {&bench::kAdvisorScaleFlags,
       {"--min-speedup", "2", "--json", "bench_advisor_scale.json"},
       3, false, "bench_advisor_scale.json", 1, {{"--min-speedup", 2}}},
      {&bench::kAdvisorScaleFlags, {"--smoke"}, 1, true, "", 1,
       {{"--min-speedup", 0}}},
      {&bench::kAdvisorSearchFlags,
       {"--min-quality-ratio", "1", "--json", "bench_advisor_search.json"},
       3, false, "bench_advisor_search.json", 1,
       {{"--min-quality-ratio", 1}}},
      {&bench::kAdvisorSearchFlags, {"--smoke"}, 1, true, "", 1,
       {{"--min-quality-ratio", 0}}},
      {&bench::kSnapshotFlags,
       {"--min-speedup", "5", "--min-mmap-speedup", "1", "--json",
        "bench_snapshot.json"},
       3, false, "bench_snapshot.json", 1,
       {{"--min-speedup", 5}, {"--min-mmap-speedup", 1}}},
      {&bench::kSnapshotFlags, {"--smoke"}, 1, true, "", 1,
       {{"--min-speedup", 0}, {"--min-mmap-speedup", 0}}},
      {&bench::kIncrementalResealFlags,
       {"--min-speedup", "3", "--json", "bench_incremental_reseal.json"},
       3, false, "bench_incremental_reseal.json", 1, {{"--min-speedup", 3}}},
      {&bench::kIncrementalResealFlags, {"--smoke"}, 1, true, "", 1,
       {{"--min-speedup", 0}}},
      {&bench::kLiveServingFlags,
       {"--min-speedup", "3", "--json", "bench_live_serving.json"},
       3, false, "bench_live_serving.json", 1, {{"--min-speedup", 3}}},
      {&bench::kLiveServingFlags, {"--smoke"}, 1, true, "", 1,
       {{"--min-speedup", 0}}},
      {&bench::kDegradedServingFlags,
       {"--min-ratio", "0.3", "--json", "bench_degraded_serving.json"},
       3, false, "bench_degraded_serving.json", 1, {{"--min-ratio", 0.3}}},
      {&bench::kDegradedServingFlags, {"--smoke", "--seed", "2"}, 1, true,
       "", 2, {{"--min-ratio", 0}}},
      // An explicit replica count wins over --smoke's 1x, in any position.
      {&bench::kSnapshotFlags, {"--smoke", "5"}, 5, true, "", 1,
       {{"--min-speedup", 0}, {"--min-mmap-speedup", 0}}},
  };
  for (const Case& c : cases) {
    std::string line;
    for (const char* arg : c.args) line += std::string(" ") + arg;
    SCOPED_TRACE("args:" + line);
    BenchFlags flags;
    ASSERT_TRUE(Parse(*c.spec, c.args, &flags));
    EXPECT_EQ(flags.replicas, c.replicas);
    EXPECT_EQ(flags.smoke, c.smoke);
    EXPECT_EQ(flags.json_path, c.json);
    EXPECT_EQ(flags.seed, c.seed);
    EXPECT_EQ(flags.floors, c.floors);
  }
}

TEST(BenchFlagsTest, RejectsAnythingThatCouldDisableAFloor) {
  const std::vector<std::pair<const BenchFlagSpec*,
                              std::vector<const char*>>> rejected = {
      // Unknown flags: a typo, and another bench's floor.
      {&bench::kAdvisorScaleFlags, {"--smoke", "--min-sped", "1e9"}},
      {&bench::kAdvisorScaleFlags, {"--min-ratio", "0.3"}},
      {&bench::kAdvisorScaleFlags, {"--smoke=1"}},
      // Missing values.
      {&bench::kAdvisorScaleFlags, {"--smoke", "--min-speedup"}},
      {&bench::kAdvisorScaleFlags, {"--min-speedup", "--smoke"}},
      {&bench::kAdvisorScaleFlags, {"--json"}},
      {&bench::kLiveServingFlags, {"--seed"}},
      // Malformed values.
      {&bench::kAdvisorScaleFlags, {"--min-speedup", "abc"}},
      {&bench::kAdvisorScaleFlags, {"--min-speedup", "2x"}},
      {&bench::kAdvisorScaleFlags, {"--min-speedup", ""}},
      {&bench::kAdvisorScaleFlags, {"--min-speedup", "nan"}},
      {&bench::kAdvisorScaleFlags, {"--min-speedup", "inf"}},
      {&bench::kLiveServingFlags, {"--seed", "1.5"}},
      {&bench::kLiveServingFlags, {"--seed", "+1"}},
      {&bench::kLiveServingFlags, {"--seed", "99999999999999999999"}},
      {&bench::kSnapshotFlags, {"abc"}},
      {&bench::kSnapshotFlags, {"3x"}},
      // Negative (and zero-replica) values.
      {&bench::kDegradedServingFlags, {"--min-ratio", "-0.3"}},
      {&bench::kLiveServingFlags, {"--seed", "-1"}},
      {&bench::kSnapshotFlags, {"-2"}},
      {&bench::kSnapshotFlags, {"0"}},
      // A second positional argument, or one on a bench without replicas.
      {&bench::kSnapshotFlags, {"3", "4"}},
      {&bench::kAdvisorSearchFlags, {"3"}},
      // --seed on a bench that does not read it.
      {&bench::kSnapshotFlags, {"--smoke", "--seed", "5"}},
  };
  for (const auto& [spec, args] : rejected) {
    std::string line;
    for (const char* arg : args) line += std::string(" ") + arg;
    SCOPED_TRACE("args:" + line);
    BenchFlags flags;
    EXPECT_FALSE(Parse(*spec, args, &flags));
  }
}

TEST(SameAdviceTest, ComparesEveryStepButNotFullEvaluations) {
  AdvisorResult a;
  a.chosen = {3, 7};
  a.steps = {{3, 10.0, 100, 90.0}, {7, 5.0, 50, 85.0}};
  a.workload_cost_before = 100;
  a.workload_cost_after = 85;
  a.total_size_bytes = 150;
  a.evaluations = 12;
  a.full_evaluations = 12;
  AdvisorResult b = a;
  // The delta path resolves only each iteration's base.
  b.full_evaluations = 3;
  std::string why;
  EXPECT_TRUE(bench::SameAdvice(a, b, &why));
  // Final costs, sizes and picks still agree; one step's benefit is one
  // ulp off.
  b.steps[1].benefit = std::nextafter(5.0, 6.0);
  EXPECT_FALSE(bench::SameAdvice(a, b, &why));
  EXPECT_EQ(why, "step 1 differs");
}

}  // namespace
}  // namespace pinum
