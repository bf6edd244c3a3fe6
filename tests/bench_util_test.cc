// The bench harnesses' shared helpers (bench/bench_util.h): the --json
// summary must be a valid JSON document whatever bytes its keys and
// values hold.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "../bench/bench_util.h"

namespace pinum {
namespace {

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

}  // namespace
}  // namespace pinum
