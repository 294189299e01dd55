// Per-group convergence telemetry: cell extraction from result tables
// (including the absent-RSD regression — a failed parse must never read as
// "fully converged"), top-K ranking, churn counting, and the JSON block
// every surface renders.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gola/controller.h"
#include "gola/gola.h"
#include "obs/group_telemetry.h"

namespace gola {
namespace {

/// A grouped result table in the engine's emission shape: key column `g`,
/// aggregate `m` with `m_lo`/`m_hi`/`m_rsd` companions.
Table MakeGroupedResult(
    const std::vector<std::tuple<std::string, Value, Value, Value, Value>>& rows) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kString},
      {"m", TypeId::kFloat64},
      {"m_lo", TypeId::kFloat64},
      {"m_hi", TypeId::kFloat64},
      {"m_rsd", TypeId::kFloat64}});
  TableBuilder builder(schema, 64);
  for (const auto& [g, m, lo, hi, rsd] : rows) {
    builder.AppendRow({Value::String(g), m, lo, hi, rsd});
  }
  return builder.Finish();
}

TEST(ExtractGroupCellsTest, GroupedTableYieldsOneCellPerRow) {
  Table t = MakeGroupedResult({
      {"us", Value::Float(10), Value::Float(9), Value::Float(11), Value::Float(0.05)},
      {"de", Value::Float(20), Value::Float(15), Value::Float(25), Value::Float(0.20)},
  });
  std::vector<obs::GroupCell> cells = ExtractGroupCells(t);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].group_key, "us");
  EXPECT_EQ(cells[0].column, "m");
  EXPECT_TRUE(cells[0].has_estimate);
  EXPECT_TRUE(cells[0].has_rsd);
  EXPECT_DOUBLE_EQ(cells[0].estimate, 10);
  EXPECT_DOUBLE_EQ(cells[0].half_width(), 1);
  EXPECT_EQ(cells[1].group_key, "de");
  EXPECT_DOUBLE_EQ(cells[1].rsd, 0.20);
}

TEST(ExtractGroupCellsTest, ScalarTableUsesStarKey) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"m", TypeId::kFloat64},
      {"m_lo", TypeId::kFloat64},
      {"m_hi", TypeId::kFloat64},
      {"m_rsd", TypeId::kFloat64}});
  TableBuilder builder(schema, 8);
  builder.AppendRow({Value::Float(5), Value::Float(4), Value::Float(6),
                     Value::Float(0.1)});
  std::vector<obs::GroupCell> cells = ExtractGroupCells(builder.Finish());
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].group_key, "*");
}

TEST(ExtractGroupCellsTest, UnparseableRsdIsAbsentNotZero) {
  // Regression (satellite of ISSUE 8): a null RSD companion once read as
  // rsd = 0 via ValueOr(0) — i.e. "fully converged" for a cell whose error
  // is actually unknown.
  Table t = MakeGroupedResult({
      {"us", Value::Float(10), Value::Float(9), Value::Float(11), Value::Null()},
  });
  std::vector<obs::GroupCell> cells = ExtractGroupCells(t);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].has_estimate);
  EXPECT_FALSE(cells[0].has_rsd);
}

TEST(ExtractGroupCellsTest, NullEstimateIsAbsent) {
  Table t = MakeGroupedResult({
      {"us", Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {"de", Value::Float(3), Value::Float(2), Value::Float(4), Value::Float(0.2)},
  });
  std::vector<obs::GroupCell> cells = ExtractGroupCells(t);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].has_estimate);
  EXPECT_DOUBLE_EQ(cells[0].half_width(), 0);
  EXPECT_TRUE(cells[1].has_estimate);
}

TEST(ExtractHeadlineTest, UnparseableRsdStaysAbsent) {
  Table t = MakeGroupedResult({
      {"us", Value::Float(10), Value::Float(9), Value::Float(11), Value::Null()},
  });
  const HeadlineCell cell = ExtractHeadline(t);
  EXPECT_TRUE(cell.has_estimate);
  EXPECT_FALSE(cell.has_rsd());
  EXPECT_LT(cell.rsd, 0);  // -1 sentinel, never a fake converged 0
}

TEST(ExtractHeadlineTest, UnparseableEstimateMeansNoEstimate) {
  Table t = MakeGroupedResult({
      {"us", Value::Null(), Value::Float(9), Value::Float(11), Value::Float(0.1)},
  });
  const HeadlineCell cell = ExtractHeadline(t);
  EXPECT_FALSE(cell.has_estimate);
  EXPECT_DOUBLE_EQ(cell.half_width(), 0);
}

obs::GroupCell Cell(const std::string& key, double rsd, double half = 1) {
  obs::GroupCell c;
  c.group_key = key;
  c.column = "m";
  c.has_estimate = true;
  c.estimate = 10;
  c.ci_lo = 10 - half;
  c.ci_hi = 10 + half;
  c.has_rsd = true;
  c.rsd = rsd;
  return c;
}

TEST(GroupTelemetryTrackerTest, TopKRanksWorstFirst) {
  obs::GroupTelemetryTracker tracker(/*top_k=*/3);
  std::vector<obs::GroupCell> cells = {Cell("a", 0.01), Cell("b", 0.30),
                                       Cell("c", 0.10), Cell("d", 0.20),
                                       Cell("e", 0.05)};
  const obs::GroupConvergenceSummary& s = tracker.Observe(cells);
  EXPECT_EQ(s.cells_total, 5);
  EXPECT_EQ(s.groups_total, 5);
  ASSERT_EQ(s.top.size(), 3u);
  EXPECT_EQ(s.top[0].group_key, "b");
  EXPECT_EQ(s.top[1].group_key, "d");
  EXPECT_EQ(s.top[2].group_key, "c");
  EXPECT_DOUBLE_EQ(s.worst_rsd, 0.30);
}

TEST(GroupTelemetryTrackerTest, AbsentRsdOutranksNumericRsd) {
  obs::GroupTelemetryTracker tracker(2);
  obs::GroupCell unknown = Cell("mystery", 0);
  unknown.has_rsd = false;
  const obs::GroupConvergenceSummary& s =
      tracker.Observe({Cell("a", 0.99), unknown});
  ASSERT_EQ(s.top.size(), 2u);
  EXPECT_EQ(s.top[0].group_key, "mystery");  // unbounded uncertainty first
  EXPECT_EQ(s.cells_without_rsd, 1);
  EXPECT_DOUBLE_EQ(s.worst_rsd, 0.99);  // max over *measurable* cells
}

TEST(GroupTelemetryTrackerTest, ChurnCountsAppearedAndDisappeared) {
  obs::GroupTelemetryTracker tracker(8);
  tracker.Observe({Cell("a", 0.1), Cell("b", 0.1)});
  const obs::GroupConvergenceSummary& s2 =
      tracker.Observe({Cell("b", 0.1), Cell("c", 0.1), Cell("d", 0.1)});
  EXPECT_EQ(s2.groups_appeared, 2);     // c, d
  EXPECT_EQ(s2.groups_disappeared, 1);  // a
  // First observation: everything counts as appeared against an empty set.
  obs::GroupTelemetryTracker fresh(8);
  EXPECT_EQ(fresh.Observe({Cell("x", 0.1)}).groups_appeared, 1);
}

TEST(GroupTelemetryTrackerTest, MultiAggregateCellsShareGroupCount) {
  // Two aggregates per group: 4 cells, 2 groups.
  std::vector<obs::GroupCell> cells = {Cell("a", 0.1), Cell("b", 0.2)};
  for (auto c : {Cell("a", 0.3), Cell("b", 0.4)}) {
    c.column = "n";
    cells.push_back(c);
  }
  obs::GroupTelemetryTracker tracker(8);
  const obs::GroupConvergenceSummary& s = tracker.Observe(cells);
  EXPECT_EQ(s.cells_total, 4);
  EXPECT_EQ(s.groups_total, 2);
}

TEST(GroupConvergenceSummaryTest, ToJsonRendersAbsentAsNull) {
  obs::GroupTelemetryTracker tracker(2);
  obs::GroupCell unknown;
  unknown.group_key = "g\"1";  // must be escaped
  unknown.column = "m";
  const std::string json = tracker.Observe({unknown, Cell("a", 0.5)}).ToJson();
  EXPECT_NE(json.find("\"cells_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rsd\": null"), std::string::npos);
  EXPECT_NE(json.find("\"estimate\": null"), std::string::npos);
  EXPECT_NE(json.find("g\\\"1"), std::string::npos);
  EXPECT_NE(json.find("\"rsd\": 0.5"), std::string::npos);
}

TEST(GroupTelemetryEndToEndTest, GroupedQueryPopulatesUpdateSummary) {
  // End-to-end: a real grouped online query fills OnlineUpdate::groups with
  // a bounded summary — the top 8 of its 12 cells — whose worst RSD matches
  // the emission's max_rsd.
  Rng rng(7);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kString}, {"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 256);
  const char* groups[] = {"a", "b", "c", "d", "e", "f",
                          "g", "h", "i", "j", "k", "l"};
  for (int64_t i = 0; i < 12000; ++i) {
    builder.AppendRow({Value::String(groups[rng.UniformInt(0, 11)]),
                       Value::Float(rng.LogNormal(2.0, 1.0))});
  }
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", builder.Finish()));
  GolaOptions opts;
  opts.num_batches = 5;
  opts.bootstrap_replicates = 50;
  auto online =
      engine.ExecuteOnline("SELECT g, AVG(x) AS m FROM d GROUP BY g", opts);
  ASSERT_TRUE(online.ok());
  auto update = (*online)->Step();
  ASSERT_TRUE(update.ok());
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(update->groups.groups_total, 12);
    EXPECT_EQ(update->groups.cells_total, 12);
    EXPECT_EQ(update->groups.top.size(), 8u);
    EXPECT_GT(update->groups.worst_rsd, 0);
    EXPECT_NEAR(update->groups.worst_rsd, update->max_rsd, 1e-12);
    EXPECT_EQ(update->groups.groups_appeared, 12);
  } else {
    EXPECT_TRUE(update->groups.empty());
  }
}

}  // namespace
}  // namespace gola
