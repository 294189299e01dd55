// Convergence-recorder tests: the JSONL trajectory written via
// GolaOptions::convergence_path is parsed back and checked for one record
// per batch, monotone fraction_processed, and well-formed CI fields; plus
// the materialize_results=false satellite (intermediate updates skip the
// result-table copy, the final one does not, and recording still works).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table MakeSessions(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"session_id", TypeId::kInt64},
      {"ad_id", TypeId::kInt64},
      {"buffer_time", TypeId::kFloat64},
      {"play_time", TypeId::kFloat64},
  });
  TableBuilder builder(schema, /*chunk_size=*/256);
  for (int64_t i = 0; i < n; ++i) {
    double buffer = rng.Exponential(30.0);
    double play = std::max(0.0, 600.0 - 4.0 * buffer + rng.Normal(0, 50));
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 8)),
                       Value::Float(buffer), Value::Float(play)});
  }
  return builder.Finish();
}

constexpr const char* kSbi =
    "SELECT AVG(play_time) FROM sessions "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";

constexpr const char* kGrouped =
    "SELECT ad_id, AVG(play_time) AS apt FROM sessions GROUP BY ad_id "
    "ORDER BY ad_id";

/// Extracts `"key": <number>` from a JSONL line; fails the test when the
/// key is missing or non-numeric (null is reported via `found=false`).
bool NumField(const std::string& line, const std::string& key, double* out) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "missing key " << key << " in: " << line;
    return false;
  }
  pos += needle.size();
  if (line.compare(pos, 4, "null") == 0) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + pos, &end);
  if (end == line.c_str() + pos) {
    ADD_FAILURE() << "non-numeric " << key << " in: " << line;
    return false;
  }
  return true;
}

std::vector<std::string> RunAndReadJsonl(Engine* engine, const char* sql,
                                         GolaOptions opts,
                                         const std::string& path) {
  std::remove(path.c_str());
  opts.convergence_path = path;
  auto online = engine->ExecuteOnline(sql, opts);
  GOLA_CHECK_OK(online.status());
  GOLA_CHECK_OK((*online)->Run().status());

  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ConvergenceTest, TrajectoryIsMonotoneAndWellFormed) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(4000, 7)));
  GolaOptions opts;
  opts.num_batches = 10;
  std::string path = ::testing::TempDir() + "convergence_sbi.jsonl";
  auto lines = RunAndReadJsonl(&engine, kSbi, opts, path);
  ASSERT_EQ(lines.size(), 10u) << "one JSONL record per OnlineUpdate";

  double prev_fraction = 0, prev_elapsed = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    double batch = 0, fraction = 0, elapsed = 0, max_rsd = 0, uncertain = 0;
    ASSERT_TRUE(NumField(line, "batch_index", &batch));
    ASSERT_TRUE(NumField(line, "fraction_processed", &fraction));
    ASSERT_TRUE(NumField(line, "elapsed_seconds", &elapsed));
    ASSERT_TRUE(NumField(line, "max_rsd", &max_rsd));
    ASSERT_TRUE(NumField(line, "uncertain_tuples", &uncertain));
    EXPECT_EQ(static_cast<int>(batch), static_cast<int>(i) + 1);

    // Monotone progress.
    EXPECT_GT(fraction, prev_fraction) << line;
    EXPECT_GE(elapsed, prev_elapsed) << line;
    prev_fraction = fraction;
    prev_elapsed = elapsed;
    EXPECT_GE(max_rsd, 0) << line;
    EXPECT_GE(uncertain, 0) << line;

    // Well-formed CI around the headline estimate.
    double estimate = 0, lo = 0, hi = 0, rsd = 0;
    ASSERT_TRUE(NumField(line, "estimate", &estimate)) << line;
    ASSERT_TRUE(NumField(line, "ci_lo", &lo));
    ASSERT_TRUE(NumField(line, "ci_hi", &hi));
    ASSERT_TRUE(NumField(line, "rsd", &rsd));
    EXPECT_LE(lo, hi) << line;
    EXPECT_GE(estimate, lo - 1e-9) << line;
    EXPECT_LE(estimate, hi + 1e-9) << line;
    EXPECT_GE(rsd, 0) << line;

    // Versioned row of the shared JSONL schema.
    double schema = 0;
    ASSERT_TRUE(NumField(line, "schema", &schema));
    EXPECT_EQ(schema, 1);
    EXPECT_NE(line.find("\"kind\": \"update\""), std::string::npos) << line;

    // Phase breakdown present and non-negative.
    double delta = 0, emit = 0;
    ASSERT_TRUE(NumField(line, "delta_exec_seconds", &delta));
    ASSERT_TRUE(NumField(line, "emit_seconds", &emit));
    EXPECT_GE(delta, 0);
    EXPECT_GE(emit, 0);
  }
  EXPECT_NEAR(prev_fraction, 1.0, 1e-9);
  std::remove(path.c_str());
}

TEST(ConvergenceTest, SkippedMaterializationStillRecordsEstimates) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(4000, 9)));
  GolaOptions opts;
  opts.num_batches = 6;
  opts.materialize_results = false;
  std::string path = ::testing::TempDir() + "convergence_nomat.jsonl";

  std::remove(path.c_str());
  opts.convergence_path = path;
  auto online = engine.ExecuteOnline(kGrouped, opts);
  GOLA_CHECK_OK(online.status());
  int intermediate_rows = 0;
  auto last = (*online)->Run([&](const OnlineUpdate& update) {
    if (update.batch_index < update.total_batches) {
      intermediate_rows += static_cast<int>(update.result.num_rows());
    }
    return true;
  });
  GOLA_CHECK_OK(last.status());

  // Intermediate updates skipped the result copy; the final one did not.
  EXPECT_EQ(intermediate_rows, 0);
  EXPECT_GT(last->result.num_rows(), 0);

  // The recorder still saw estimates every batch (it reads the root
  // emission, not the materialized update).
  std::ifstream in(path);
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++records;
    double estimate = 0, rows = 0;
    EXPECT_TRUE(NumField(line, "estimate", &estimate)) << line;
    ASSERT_TRUE(NumField(line, "result_rows", &rows));
    EXPECT_GT(rows, 0) << line;
  }
  EXPECT_EQ(records, 6);
  std::remove(path.c_str());
}

TEST(ConvergenceTest, FinalAnswerUnchangedByMaterializeToggle) {
  // materialize_results must be a pure reporting knob: the drained answer
  // is bit-identical with it on and off.
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(3000, 21)));
  GolaOptions opts;
  opts.num_batches = 8;

  auto run = [&](bool materialize) {
    GolaOptions o = opts;
    o.materialize_results = materialize;
    auto online = engine.ExecuteOnline(kGrouped, o);
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    return last->result;
  };
  Table with = run(true);
  Table without = run(false);
  ASSERT_EQ(with.num_rows(), without.num_rows());
  ASSERT_EQ(with.schema()->num_fields(), without.schema()->num_fields());
  for (int64_t r = 0; r < with.num_rows(); ++r) {
    for (size_t c = 0; c < with.schema()->num_fields(); ++c) {
      EXPECT_EQ(with.At(r, static_cast<int>(c)).ToString(),
                without.At(r, static_cast<int>(c)).ToString())
          << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace gola
