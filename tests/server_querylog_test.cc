// Wide-event query-log schema tests: every terminal outcome — done,
// failed, cancelled, degraded — must leave exactly one JSONL record with
// the full field set (identity, options, volume, timing, SLO crossings,
// cumulative stats, lifecycle events, headline estimate). The records are
// what CI uploads as artifacts and what a response-time tuner would train
// on, so the schema is pinned here.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "gola/gola.h"
#include "obs/jsonl.h"
#include "server/dispatcher.h"

namespace gola {
namespace server {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64},
      {"a", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 512);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 5)),
                       Value::Float(rng.LogNormal(1.1, 0.6))});
  }
  return builder.Finish();
}

const char kSql[] = "SELECT AVG(a) AS m FROM d";

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Structural sanity for one JSONL line: braces and brackets balance
/// outside of string literals and the line is a single object.
void ExpectBalancedJson(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << line;
  }
  EXPECT_FALSE(in_string) << line;
  EXPECT_EQ(depth, 0) << line;
}

bool Contains(const std::string& line, const std::string& needle) {
  return line.find(needle) != std::string::npos;
}

/// Extracts the raw value token following `"key": ` (number, string, or
/// the opening of an array/object). Empty when the key is absent.
std::string RawValue(const std::string& line, const std::string& key) {
  std::string marker = "\"" + key + "\": ";
  size_t pos = line.find(marker);
  if (pos == std::string::npos) return "";
  pos += marker.size();
  size_t end = pos;
  if (line[pos] == '"') {
    end = pos + 1;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\') ++end;
      ++end;
    }
    return line.substr(pos + 1, end - pos - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(pos, end - pos);
}

class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    path_ = std::string("querylog_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
    ASSERT_TRUE(obs::QueryLog().Open(path_));
    GOLA_CHECK_OK(engine_.RegisterTable("d", MakeData(20'000, 99)));
  }
  void TearDown() override {
    fail::DisarmAll();
    engine_.sessions().Shutdown();
    obs::QueryLog().Close();
    std::remove(path_.c_str());
  }

  /// Joins the dispatcher (so every Finish — and its wide event — has
  /// completed), then returns the emitted records.
  std::vector<std::string> DrainRecords() {
    engine_.sessions().Shutdown();
    return ReadLines(path_);
  }

  GolaOptions BaseOptions() {
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 24;
    opts.seed = 4242;
    return opts;
  }

  Engine engine_;
  std::string path_;
};

TEST_F(QueryLogTest, SuccessRecordCarriesFullSchema) {
  SessionOptions options;
  options.gola = BaseOptions();
  options.label = "panel-1";
  auto session = engine_.SubmitOnline(kSql, std::move(options));
  GOLA_CHECK_OK(session.status());
  GOLA_CHECK_OK((*session)->Await().status());

  auto lines = DrainRecords();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& rec = lines[0];
  ExpectBalancedJson(rec);

  // Schema version and row kind, shared with the convergence JSONL rows.
  EXPECT_EQ(RawValue(rec, "schema"), "1");
  EXPECT_EQ(RawValue(rec, "kind"), "query_wide_event");
  // Identity.
  EXPECT_EQ(RawValue(rec, "session_id"), std::to_string((*session)->id()));
  EXPECT_EQ(RawValue(rec, "label"), "panel-1");
  EXPECT_EQ(RawValue(rec, "table"), "d");
  EXPECT_EQ(RawValue(rec, "sql"), kSql);
  // Outcome.
  EXPECT_EQ(RawValue(rec, "state"), "done");
  EXPECT_EQ(RawValue(rec, "degradation"), "none");
  EXPECT_EQ(RawValue(rec, "error"), "");
  // Options and volume.
  EXPECT_EQ(RawValue(rec, "num_batches"), "8");
  EXPECT_EQ(RawValue(rec, "bootstrap_replicates"), "24");
  EXPECT_EQ(RawValue(rec, "seed"), "4242");
  EXPECT_EQ(RawValue(rec, "batches_done"), "8");
  EXPECT_EQ(RawValue(rec, "total_batches"), "8");
  EXPECT_EQ(RawValue(rec, "updates_dropped"), "0");
  // Timing is populated and sane.
  EXPECT_GT(std::stod(RawValue(rec, "seconds_to_first_update")), 0);
  EXPECT_GE(std::stod(RawValue(rec, "seconds_to_done")),
            std::stod(RawValue(rec, "seconds_to_first_update")));
  // SLO crossings, cumulative stats, and events are present as structures.
  EXPECT_TRUE(Contains(rec, "\"slo\": ["));
  EXPECT_TRUE(Contains(rec, "\"target_rsd\": 0.05"));
  EXPECT_TRUE(Contains(rec, "\"stats\": {"));
  EXPECT_GT(std::stoll(RawValue(rec, "rows_in")), 0);
  EXPECT_TRUE(Contains(rec, "\"events\": ["));
  // Headline estimate with CI: AVG over LogNormal(1.1, 0.6) lands near 3.6.
  EXPECT_EQ(RawValue(rec, "has_estimate"), "true");
  double estimate = std::stod(RawValue(rec, "estimate"));
  EXPECT_GT(estimate, 0);
  EXPECT_LE(std::stod(RawValue(rec, "ci_lo")), estimate);
  EXPECT_GE(std::stod(RawValue(rec, "ci_hi")), estimate);
  EXPECT_GE(std::stod(RawValue(rec, "max_rsd")), 0);
}

TEST_F(QueryLogTest, FailedSessionRecordsError) {
  // Every morsel faults and retries are off: the first batch is fatal.
  GOLA_CHECK_OK(fail::Arm("exec.morsel", "always"));
  SessionOptions options;
  options.gola = BaseOptions();
  options.gola.max_morsel_retries = 0;
  auto session = engine_.SubmitOnline(kSql, std::move(options));
  GOLA_CHECK_OK(session.status());
  EXPECT_FALSE((*session)->Await().ok());
  fail::DisarmAll();

  auto lines = DrainRecords();
  ASSERT_EQ(lines.size(), 1u);
  ExpectBalancedJson(lines[0]);
  EXPECT_EQ(RawValue(lines[0], "state"), "failed");
  EXPECT_TRUE(Contains(RawValue(lines[0], "error"), "failpoint"));
  EXPECT_EQ(RawValue(lines[0], "has_estimate"), "false");
}

TEST_F(QueryLogTest, CancelledSessionRecordsEvent) {
  SessionOptions options;
  options.gola = BaseOptions();
  options.gola.num_batches = 200;  // long enough that Cancel lands mid-run
  auto session = engine_.SubmitOnline(kSql, std::move(options));
  GOLA_CHECK_OK(session.status());
  (*session)->Cancel();
  (void)(*session)->Await();
  ASSERT_EQ((*session)->state(), SessionState::kCancelled);

  auto lines = DrainRecords();
  ASSERT_EQ(lines.size(), 1u);
  ExpectBalancedJson(lines[0]);
  EXPECT_EQ(RawValue(lines[0], "state"), "cancelled");
  EXPECT_TRUE(Contains(lines[0], "\"name\": \"cancel_requested\""));
}

TEST_F(QueryLogTest, DegradedSessionRecordsRung) {
  // An impossible 1ms deadline over plenty of batches: the degradation
  // ladder engages, and both the final rung and the moment each rung was
  // climbed land in the record.
  SessionOptions options;
  options.gola = BaseOptions();
  options.gola.num_batches = 40;
  options.gola.deadline_ms = 1;
  auto session = engine_.SubmitOnline(kSql, std::move(options));
  GOLA_CHECK_OK(session.status());
  GOLA_CHECK_OK((*session)->Await().status());
  ASSERT_NE((*session)->degradation(), Degradation::kNone);

  auto lines = DrainRecords();
  ASSERT_EQ(lines.size(), 1u);
  ExpectBalancedJson(lines[0]);
  EXPECT_EQ(RawValue(lines[0], "state"), "done");
  EXPECT_NE(RawValue(lines[0], "degradation"), "none");
  EXPECT_EQ(RawValue(lines[0], "deadline_ms"), "1");
  EXPECT_TRUE(Contains(lines[0], "\"name\": \"degrade:"));
}

TEST_F(QueryLogTest, OneRecordPerConcurrentSession) {
  std::vector<SessionPtr> fleet;
  for (int i = 0; i < 3; ++i) {
    SessionOptions options;
    options.gola = BaseOptions();
    auto session = engine_.SubmitOnline(kSql, std::move(options));
    GOLA_CHECK_OK(session.status());
    fleet.push_back(*session);
  }
  for (const auto& session : fleet) {
    GOLA_CHECK_OK(session->Await().status());
  }

  auto lines = DrainRecords();
  ASSERT_EQ(lines.size(), 3u);
  std::vector<std::string> seen;
  for (const auto& rec : lines) {
    ExpectBalancedJson(rec);
    EXPECT_EQ(RawValue(rec, "state"), "done");
    std::string id = RawValue(rec, "session_id");
    for (const auto& other : seen) EXPECT_NE(other, id);
    seen.push_back(id);
  }
}

}  // namespace
}  // namespace server
}  // namespace gola
