// Per-update QueryStats attached to OnlineUpdate, in memory and over a
// segment file, and the registry's coverage of the engine layers. That
// instrumentation never perturbs results (metrics and tracing on vs off,
// bit-identical) is a variant of the differential harness
// (differential_test.cc).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "gola/gola.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/segment/segment.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"

namespace gola {
namespace {

double PhaseSum(const obs::QueryStats& s) {
  return s.scan_seconds + s.envelope_check_seconds + s.delta_exec_seconds +
         s.emit_seconds + s.rebuild_seconds + s.materialize_seconds;
}

class ObsEquivalenceTest : public ::testing::Test {
 protected:
  static Engine* engine() {
    static Engine* instance = [] {
      auto* e = new Engine();
      ConvivaGenOptions conviva;
      conviva.num_rows = 6000;
      conviva.num_ads = 12;
      conviva.num_contents = 200;
      GOLA_CHECK_OK(e->RegisterTable("conviva", GenerateConviva(conviva)));
      return e;
    }();
    return instance;
  }

  void TearDown() override {
    obs::SetMetricsEnabled(true);
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
  }
};

TEST_F(ObsEquivalenceTest, QueryStatsAccountForTheBatch) {
  obs::SetMetricsEnabled(true);
  GolaOptions opts;
  opts.num_batches = 6;
  opts.bootstrap_replicates = 30;
  opts.seed = 7;
  auto online = engine()->ExecuteOnline(SbiQuery(), opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  int64_t total_rows_in = 0;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    const obs::QueryStats& s = update->stats;
    EXPECT_GT(s.morsels, 0);
    EXPECT_GT(s.rows_in, 0);
    EXPECT_GE(s.delta_exec_seconds, 0.0);
    EXPECT_GE(s.envelope_check_seconds, 0.0);
    EXPECT_GE(s.emit_seconds, 0.0);
    EXPECT_GE(s.materialize_seconds, 0.0);
    // The phase breakdown cannot exceed the whole step.
    EXPECT_LE(PhaseSum(s), update->batch_seconds + 1e-6);
    EXPECT_EQ(update->materialize_seconds, s.materialize_seconds);
    if (s.failure_cause == nullptr) {
      EXPECT_EQ(s.rebuild_seconds, 0.0);
    } else {
      EXPECT_GT(s.rebuild_seconds, 0.0);
    }
    total_rows_in += s.rows_in;
  }
  // Every streamed row enters the pipeline at least once (rebuilds rescan).
  EXPECT_GE(total_rows_in, 6000);
}

TEST_F(ObsEquivalenceTest, SegmentBatchFetchIsTheScanPhase) {
  // Over a segment-backed table, fetching a mini-batch gathers and decodes
  // its rows; that time must land in scan_seconds, inside batch_seconds.
  ConvivaGenOptions conviva;
  conviva.num_rows = 6000;
  conviva.num_ads = 12;
  conviva.num_contents = 200;
  conviva.chunk_size = 600;
  const std::string path = ::testing::TempDir() + "/obs_scan_phase." +
                           std::to_string(::getpid()) + ".gseg";
  GOLA_CHECK_OK(WriteSegmentFile(GenerateConviva(conviva), path));
  {
    Engine segments;
    GOLA_CHECK_OK(segments.RegisterSegmentTable("conviva", path));
    GolaOptions opts;
    opts.num_batches = 6;
    opts.bootstrap_replicates = 30;
    opts.seed = 7;
    auto online = segments.ExecuteOnline(SbiQuery(), opts);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      const obs::QueryStats& s = update->stats;
      EXPECT_GT(s.scan_seconds, 0.0) << "batch " << update->batch_index;
      EXPECT_LE(PhaseSum(s), update->batch_seconds + 1e-6)
          << "batch " << update->batch_index;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ObsEquivalenceTest, RegistryCoversEngineLayersAfterADrain) {
  obs::SetMetricsEnabled(true);
  ThreadPool pool(2);
  GolaOptions opts;
  opts.num_batches = 5;
  opts.bootstrap_replicates = 20;
  opts.pool = &pool;
  auto online = engine()->ExecuteOnline(SbiQuery(), opts);
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE((*online)->Run().ok());

  std::string text = obs::MetricsRegistry::Global().RenderText();
  // The acceptance criterion: ThreadPool, pipeline-stage and uncertain-set
  // metrics all visible in one exposition.
  EXPECT_NE(text.find("gola_threadpool_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("gola_pipeline_stage_us"), std::string::npos);
  EXPECT_NE(text.find("gola_pipeline_morsel_us"), std::string::npos);
  EXPECT_NE(text.find("gola_online_uncertain_tuples"), std::string::npos);
  EXPECT_NE(text.find("gola_online_batches_total"), std::string::npos);
}

}  // namespace
}  // namespace gola
