// Chaos suite (fault-injection under a randomized workload): run a spread of
// structurally different nested-aggregate queries twice — once clean, once
// with probabilistic failpoints armed across every hot path — and require
// every per-batch update to be bit-identical. This is the end-to-end claim of
// the resilience layer: injected faults are invisible in results, visible
// only in retry counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gola/gola.h"
#include "test_util.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g1", TypeId::kInt64},
      {"g2", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
      {"c", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 200);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 4)),
                       Value::Int(rng.UniformInt(1, 7)),
                       Value::Float(rng.LogNormal(1.5, 0.6)),
                       Value::Float(rng.Normal(40, 12)),
                       Value::Float(rng.UniformDouble(0, 100))});
  }
  return builder.Finish();
}

/// Structurally different shapes: global and grouped aggregates, correlated
/// and uncorrelated subqueries, one and two uncertain conjuncts.
const char* kWorkload[] = {
    "SELECT AVG(a) AS m, COUNT(*) AS n FROM d d "
    "WHERE b > (SELECT AVG(b) FROM d)",
    "SELECT g1, SUM(a) AS m FROM d d "
    "WHERE c < 1.1 * (SELECT AVG(c) FROM d) GROUP BY g1 ORDER BY g1",
    "SELECT g2, AVG(b) AS m, COUNT(*) AS n FROM d d "
    "WHERE a > (SELECT AVG(a) FROM d u WHERE u.g2 = d.g2) "
    "GROUP BY g2 ORDER BY g2",
    "SELECT MAX(c) AS m, MIN(b) AS mn FROM d d "
    "WHERE a > 0.8 * (SELECT AVG(a) FROM d) AND b < (SELECT AVG(b) FROM d)",
    "SELECT g1, STDDEV(c) AS m FROM d d "
    "WHERE b >= (SELECT AVG(b) FROM d u WHERE u.g1 = d.g1) "
    "GROUP BY g1 ORDER BY g1",
};

std::vector<OnlineUpdate> RunQuery(Engine* engine, const std::string& sql,
                                   const GolaOptions& opts) {
  auto online = engine->ExecuteOnline(sql, opts);
  GOLA_CHECK_OK(online.status());
  auto updates = test::Drain(online->get());
  GOLA_CHECK_OK(updates.status());
  return *updates;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    GOLA_CHECK_OK(engine_.RegisterTable("d", MakeData(2000, 404)));
  }
  void TearDown() override { fail::DisarmAll(); }

  Engine engine_;
};

TEST_F(ChaosTest, WorkloadIsBitIdenticalUnderInjectedFaults) {
  ThreadPool pool(4);
  int64_t total_fires = 0;

  for (size_t q = 0; q < sizeof(kWorkload) / sizeof(kWorkload[0]); ++q) {
    const std::string sql = kWorkload[q];
    SCOPED_TRACE(sql);

    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 24;
    opts.seed = 9000 + static_cast<uint64_t>(q);
    // With p≈0.02 per hit, exhausting 4 retries needs 5 consecutive fires
    // (p^5 ≈ 3e-9 per morsel) — the workload completes with certainty while
    // still exercising the retry path many times across the suite.
    opts.max_morsel_retries = 4;
    opts.retry_backoff_ms = 0;
    opts.pool = &pool;

    fail::DisarmAll();
    std::vector<OnlineUpdate> clean = RunQuery(&engine_, sql, opts);

    fail::SetSeed(500 + q);
    GOLA_CHECK_OK(fail::Configure(
        "exec.morsel=prob(0.02),threadpool.task=prob(0.02),"
        "bootstrap.replicate=prob(0.01)"));
    std::vector<OnlineUpdate> chaotic = RunQuery(&engine_, sql, opts);
    total_fires += fail::Fires("exec.morsel") + fail::Fires("threadpool.task") +
                   fail::Fires("bootstrap.replicate");
    fail::DisarmAll();

    EXPECT_TRUE(test::StreamsEqual(chaotic, clean));
  }
  EXPECT_GT(total_fires, 0)
      << "chaos run never injected a fault — probabilities too low for the "
         "workload size, the suite is not testing anything";
}

TEST_F(ChaosTest, ForcedRebuildsAcrossTheWorkloadStayCorrect) {
  // Same bit-identity bar, but with a *guaranteed* envelope failure per
  // query: faults during the recompute path itself must also be invisible.
  for (size_t q = 0; q < sizeof(kWorkload) / sizeof(kWorkload[0]); ++q) {
    const std::string sql = kWorkload[q];
    SCOPED_TRACE(sql);

    GolaOptions opts;
    opts.num_batches = 6;
    opts.bootstrap_replicates = 20;
    opts.seed = 7100 + static_cast<uint64_t>(q);
    opts.max_morsel_retries = 4;
    opts.retry_backoff_ms = 0;

    fail::DisarmAll();
    std::vector<OnlineUpdate> clean = RunQuery(&engine_, sql, opts);
    // Clean runs at this scale are recompute-free, so final answers with and
    // without the forced rebuild coming out identical is a real statement
    // about Rebuild correctness, not an accident of matching schedules.
    ASSERT_EQ(clean.back().recomputes_so_far, 0) << sql;

    GOLA_CHECK_OK(fail::Arm("gola.check_envelopes", "nth(3)"));
    GOLA_CHECK_OK(fail::Arm("gola.rebuild", "once"));
    std::vector<OnlineUpdate> forced = RunQuery(&engine_, sql, opts);
    fail::DisarmAll();

    ASSERT_FALSE(forced.empty());
    EXPECT_GT(forced.back().recomputes_so_far, 0) << sql;
    // A rebuild re-installs classification envelopes at a different batch
    // than the clean run, so the deterministic/uncertain split — and with it
    // the replicate state behind the CI companion cells (_lo/_hi/_rsd) —
    // legitimately diverges. The converged *estimates* must still be exact.
    EXPECT_TRUE(test::TablesEqual(test::EstimateColumns(forced.back().result),
                                  test::EstimateColumns(clean.back().result)));
  }
}

}  // namespace
}  // namespace gola
