// Per-session isolation under pressure: degradation and fault handling are
// private to the session they hit. One query blowing its deadline_ms ladder
// or absorbing injected failpoints must leave a concurrent session over the
// same table (sharing the same scan!) producing answers bit-identical to a
// solo run — and each session checkpoints to its own path.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "gola/gola.h"
#include "server/dispatcher.h"
#include "test_util.h"

namespace gola {
namespace server {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 512);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 5)),
                       Value::Float(rng.LogNormal(1.1, 0.6)),
                       Value::Float(rng.Normal(30, 9))});
  }
  return builder.Finish();
}

const char kSqlA[] = "SELECT g, AVG(a) AS m FROM d GROUP BY g ORDER BY g";
const char kSqlB[] = "SELECT AVG(b) AS m, COUNT(*) AS n FROM d WHERE a > 1.5";

GolaOptions BaseOptions() {
  GolaOptions opts;
  opts.num_batches = 10;
  opts.bootstrap_replicates = 24;
  opts.seed = 4242;
  return opts;
}

OnlineUpdate Solo(Engine& engine, const std::string& sql,
                  const GolaOptions& opts) {
  auto exec = engine.ExecuteOnline(sql, opts);
  GOLA_CHECK_OK(exec.status());
  auto final_update = (*exec)->Run();
  GOLA_CHECK_OK(final_update.status());
  return *final_update;
}

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    GOLA_CHECK_OK(engine_.RegisterTable("d", MakeData(20'000, 77)));
  }
  void TearDown() override {
    fail::DisarmAll();
    engine_.sessions().Shutdown();
  }

  Engine engine_;
};

TEST_F(ServerChaosTest, DeadlineDegradesOneSessionWhileTheOtherRunsClean) {
  const GolaOptions clean_opts = BaseOptions();
  const OnlineUpdate solo_b = Solo(engine_, kSqlB, clean_opts);

  // Session A: an impossible 1ms deadline over plenty of work — the ladder
  // must engage. Session B: same table, same scan, no deadline.
  SessionOptions a_opts;
  a_opts.gola = clean_opts;
  a_opts.gola.num_batches = 40;
  a_opts.gola.deadline_ms = 1;
  auto a = engine_.SubmitOnline(kSqlA, std::move(a_opts));
  GOLA_CHECK_OK(a.status());

  SessionOptions b_opts;
  b_opts.gola = clean_opts;
  auto b = engine_.SubmitOnline(kSqlB, std::move(b_opts));
  GOLA_CHECK_OK(b.status());

  // Per-session checkpoint destinations: each session serializes its own
  // state to its own path, mid-sweep, without touching the other's.
  OnlineUpdate first;
  if ((*b)->Next(&first, std::chrono::milliseconds(2000))) {
    Status ca = (*a)->Checkpoint("server_chaos_a.ckpt");
    Status cb = (*b)->Checkpoint("server_chaos_b.ckpt");
    // Either the checkpoint landed or the session already finished the race.
    EXPECT_TRUE(ca.ok() || (*a)->state() >= SessionState::kDone) << ca.ToString();
    EXPECT_TRUE(cb.ok() || (*b)->state() >= SessionState::kDone) << cb.ToString();
  }

  auto a_final = (*a)->Await();
  auto b_final = (*b)->Await();
  GOLA_CHECK_OK(a_final.status());
  GOLA_CHECK_OK(b_final.status());

  // A degraded (it still answers — degradation is graceful, not fatal)…
  EXPECT_EQ((*a)->state(), SessionState::kDone);
  EXPECT_NE((*a)->degradation(), Degradation::kNone);
  // …and B never noticed: no degradation, final answer bit-identical to the
  // solo run, down to the bootstrap CI cells.
  EXPECT_EQ((*b)->state(), SessionState::kDone);
  EXPECT_EQ((*b)->degradation(), Degradation::kNone);
  EXPECT_EQ(b_final->max_rsd, solo_b.max_rsd);
  EXPECT_TRUE(test::TablesEqual(b_final->result, solo_b.result)) << kSqlB;

  std::remove("server_chaos_a.ckpt");
  std::remove("server_chaos_b.ckpt");
}

TEST_F(ServerChaosTest, InjectedFaultsStayInvisibleAcrossConcurrentSessions) {
  GolaOptions opts = BaseOptions();
  opts.num_batches = 6;
  opts.bootstrap_replicates = 20;
  // Injected envelope failures surface as retryable faults; give the
  // executor headroom to absorb them (chaos_test.cc calibration).
  opts.max_morsel_retries = 4;
  opts.retry_backoff_ms = 0;

  const OnlineUpdate solo_a = Solo(engine_, kSqlA, opts);
  const OnlineUpdate solo_b = Solo(engine_, kSqlB, opts);

  // Force an envelope failure plus a fault inside the rebuild itself. The
  // failpoints are process-global, so *which* session absorbs each fire is
  // a race — the invariant is that no matter who absorbs them, both
  // sessions terminate cleanly and both converged estimates stay exact.
  GOLA_CHECK_OK(fail::Arm("gola.check_envelopes", "nth(2)"));
  GOLA_CHECK_OK(fail::Arm("gola.rebuild", "once"));

  SessionOptions sa;
  sa.gola = opts;
  auto a = engine_.SubmitOnline(kSqlA, std::move(sa));
  GOLA_CHECK_OK(a.status());
  SessionOptions sb;
  sb.gola = opts;
  auto b = engine_.SubmitOnline(kSqlB, std::move(sb));
  GOLA_CHECK_OK(b.status());

  auto a_final = (*a)->Await();
  auto b_final = (*b)->Await();
  fail::DisarmAll();
  GOLA_CHECK_OK(a_final.status());
  GOLA_CHECK_OK(b_final.status());

  EXPECT_EQ((*a)->state(), SessionState::kDone);
  EXPECT_EQ((*b)->state(), SessionState::kDone);
  EXPECT_EQ((*a)->degradation(), Degradation::kNone);
  EXPECT_EQ((*b)->degradation(), Degradation::kNone);
  // At least one of the two absorbed the forced recompute.
  EXPECT_GT(a_final->recomputes_so_far + b_final->recomputes_so_far, 0);

  // Estimates only: the forced rebuild legitimately moves the CI cells
  // (see test::EstimateColumns).
  EXPECT_TRUE(test::TablesEqual(test::EstimateColumns(a_final->result),
                                test::EstimateColumns(solo_a.result)))
      << kSqlA;
  EXPECT_TRUE(test::TablesEqual(test::EstimateColumns(b_final->result),
                                test::EstimateColumns(solo_b.result)))
      << kSqlB;
}

}  // namespace
}  // namespace server
}  // namespace gola
