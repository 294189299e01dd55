// Concurrent-session layer tests: the tentpole claim is that N queries
// multiplexed over the dispatcher's shared mini-batch sweep — with or
// without scan sharing — produce answers BIT-IDENTICAL to the same query
// run solo through ExecuteOnline. Plus admission control, cancellation,
// attach-in-flight, per-session checkpoints, and catalog replacement under
// live sessions.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

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
    builder.AppendRow({Value::Int(rng.UniformInt(1, 6)),
                       Value::Float(rng.LogNormal(1.2, 0.5)),
                       Value::Float(rng.Normal(50, 15))});
  }
  return builder.Finish();
}

/// Structurally different same-table queries — the "dashboard fleet".
const char* kFleet[] = {
    "SELECT AVG(a) AS m, COUNT(*) AS n FROM d",
    "SELECT g, SUM(a) AS s FROM d d "
    "WHERE b > (SELECT AVG(b) FROM d) GROUP BY g ORDER BY g",
    "SELECT MAX(b) AS mx, MIN(a) AS mn FROM d WHERE a > 1.0",
};
constexpr size_t kFleetSize = sizeof(kFleet) / sizeof(kFleet[0]);

GolaOptions TestOptions() {
  GolaOptions opts;
  opts.num_batches = 8;
  opts.bootstrap_replicates = 24;
  opts.seed = 991;
  return opts;
}

/// Solo reference: the same SQL through the single-query path.
OnlineUpdate Solo(Engine& engine, const std::string& sql,
                  const GolaOptions& opts) {
  auto exec = engine.ExecuteOnline(sql, opts);
  GOLA_CHECK_OK(exec.status());
  auto final_update = (*exec)->Run();
  GOLA_CHECK_OK(final_update.status());
  return *final_update;
}

/// Submits `m` fleet sessions (cycling kFleet), awaits them, and checks
/// every final update against the solo run.
///
/// The scan-share counts need the first session's scan alive while the
/// rest attach (the share holds scans by weak_ptr). A blocker session
/// makes that overlap hold by construction: its convergence file is a
/// FIFO, so its executor's open() holds the dispatcher thread until every
/// fleet session is queued and this thread opens the read end. The
/// dispatcher then promotes the whole fleet in one pass, before any of it
/// steps. The blocker builds a private scan, so it counts as neither a hit
/// nor a miss.
void RunFleetAndCompare(int m, bool share_scan) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(12'000, 5)));
  const GolaOptions opts = TestOptions();

  std::vector<OnlineUpdate> solo;
  for (size_t q = 0; q < kFleetSize; ++q) {
    solo.push_back(Solo(engine, kFleet[q], opts));
  }

  const std::string fifo = ::testing::TempDir() + "/server_session_fleet." +
                           std::to_string(::getpid()) + ".fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << fifo;
  SessionOptions blocker_options;
  blocker_options.gola = opts;
  blocker_options.gola.convergence_path = fifo;
  blocker_options.share_scan = false;
  auto blocker = engine.SubmitOnline(kFleet[0], std::move(blocker_options));
  GOLA_CHECK_OK(blocker.status());

  std::vector<SessionPtr> fleet;
  for (int i = 0; i < m; ++i) {
    SessionOptions options;
    options.gola = opts;
    options.share_scan = share_scan;
    auto session =
        engine.SubmitOnline(kFleet[static_cast<size_t>(i) % kFleetSize],
                            std::move(options));
    GOLA_CHECK_OK(session.status());
    fleet.push_back(*session);
  }
  // Release the dispatcher; drain the blocker's rows until it closes.
  std::thread reader([&fifo] {
    std::ifstream in(fifo);
    std::string line;
    while (std::getline(in, line)) {
    }
  });

  for (int i = 0; i < m; ++i) {
    auto final_update = fleet[static_cast<size_t>(i)]->Await();
    GOLA_CHECK_OK(final_update.status());
    EXPECT_EQ(fleet[static_cast<size_t>(i)]->state(), SessionState::kDone);
    EXPECT_EQ(fleet[static_cast<size_t>(i)]->scan_shared(), share_scan);
    EXPECT_TRUE(test::UpdatesEqual(*final_update,
                                   solo[static_cast<size_t>(i) % kFleetSize]))
        << kFleet[static_cast<size_t>(i) % kFleetSize];
  }
  GOLA_CHECK_OK((*blocker)->Await().status());
  reader.join();
  std::remove(fifo.c_str());
  if (share_scan) {
    // One partitioner build, m-1 attaches.
    EXPECT_EQ(engine.sessions().scan_stats().misses, 1);
    EXPECT_EQ(engine.sessions().scan_stats().hits, m - 1);
  } else {
    EXPECT_EQ(engine.sessions().scan_stats().hits, 0);
  }
}

TEST(ServerSessionTest, SharedScanFleetBitIdenticalToSolo) {
  RunFleetAndCompare(/*m=*/6, /*share_scan=*/true);
}

TEST(ServerSessionTest, UnsharedFleetBitIdenticalToSolo) {
  RunFleetAndCompare(/*m=*/6, /*share_scan=*/false);
}

// M client threads submit and consume concurrently through the cursor API —
// the server-side reality of satellite tests: multi-threaded ExecuteOnline
// via sessions, updates streamed per client, finals bit-identical to solo.
TEST(ServerSessionTest, ConcurrentClientThreadsBitIdentical) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(12'000, 9)));
  const GolaOptions opts = TestOptions();

  std::vector<OnlineUpdate> solo;
  for (size_t q = 0; q < kFleetSize; ++q) {
    solo.push_back(Solo(engine, kFleet[q], opts));
  }

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      SessionOptions options;
      options.gola = opts;
      options.share_scan = (i % 2 == 0);  // mixed modes in the same sweep
      auto session =
          engine.SubmitOnline(kFleet[static_cast<size_t>(i) % kFleetSize],
                              std::move(options));
      if (!session.ok()) {
        ++failures;
        return;
      }
      // Drain the cursor: batch indexes must be strictly increasing (the
      // drop-oldest policy may skip, never reorder or repeat).
      int last_batch = 0;
      OnlineUpdate update;
      while ((*session)->Next(&update, std::chrono::milliseconds(2000))) {
        if (update.batch_index <= last_batch) ++failures;
        last_batch = update.batch_index;
      }
      auto final_update = (*session)->Await();
      if (!final_update.ok() ||
          final_update->max_rsd !=
              solo[static_cast<size_t>(i) % kFleetSize].max_rsd) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerSessionTest, AttachInFlightSharesScanAndStaysExact) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(20'000, 3)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 40;

  const OnlineUpdate solo = Solo(engine, kFleet[1], opts);

  SessionOptions first;
  first.gola = opts;
  auto a = engine.SubmitOnline(kFleet[0], std::move(first));
  GOLA_CHECK_OK(a.status());
  // Wait until A is actually streaming, so B attaches to an in-flight scan.
  OnlineUpdate u;
  ASSERT_TRUE((*a)->Next(&u, std::chrono::milliseconds(5000)));

  SessionOptions second;
  second.gola = opts;
  auto b = engine.SubmitOnline(kFleet[1], std::move(second));
  GOLA_CHECK_OK(b.status());
  auto b_final = (*b)->Await();
  GOLA_CHECK_OK(b_final.status());
  EXPECT_TRUE((*b)->scan_shared());
  // B starts from its own batch 0 cursor — attach-in-flight shares the
  // partitioner, not the batch position, so the answer is the solo answer.
  EXPECT_EQ(b_final->max_rsd, solo.max_rsd);
  EXPECT_TRUE(test::TablesEqual(b_final->result, solo.result)) << "attach-in-flight";
  GOLA_CHECK_OK((*a)->Await().status());
}

TEST(ServerSessionTest, AdmissionControl) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(1000, 1)));

  DispatcherOptions limits;
  limits.max_queued_sessions = 0;  // reject everything at the door
  Dispatcher dispatcher(&engine.catalog(), limits);
  auto rejected = dispatcher.Submit(kFleet[0], {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Synchronous errors for queries that could never stream.
  Dispatcher open(&engine.catalog(), {});
  EXPECT_FALSE(open.Submit("SELECT nope FROM missing", {}).ok());
  EXPECT_FALSE(open.Submit("SELECT g FROM d", {}).ok());  // no aggregate

  open.Shutdown();
  auto after = open.Submit(kFleet[0], {});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(ServerSessionTest, CancelTerminatesSession) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(50'000, 2)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 200;  // long enough to still be live when cancelled

  auto session = engine.SubmitOnline(kFleet[0], [&] {
    SessionOptions o;
    o.gola = opts;
    return o;
  }());
  GOLA_CHECK_OK(session.status());
  (*session)->Cancel();
  auto final_update = (*session)->Await();
  EXPECT_FALSE(final_update.ok());
  EXPECT_EQ((*session)->state(), SessionState::kCancelled);
  // Idempotent on a terminal session.
  (*session)->Cancel();
  EXPECT_EQ((*session)->state(), SessionState::kCancelled);
}

TEST(ServerSessionTest, PerSessionCheckpointRoundTrips) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(30'000, 4)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 120;

  const OnlineUpdate solo = Solo(engine, kFleet[1], opts);

  SessionOptions options;
  options.gola = opts;
  auto session = engine.SubmitOnline(kFleet[1], std::move(options));
  GOLA_CHECK_OK(session.status());
  OnlineUpdate u;
  ASSERT_TRUE((*session)->Next(&u, std::chrono::milliseconds(5000)));

  const std::string path = "server_session_test.ckpt";
  Status st = (*session)->Checkpoint(path);
  // The dispatcher may have drained the session between the cursor read and
  // the checkpoint; only a live session can snapshot.
  if (st.ok()) {
    // Resuming from the per-session checkpoint completes to the same
    // bit-identical answer as the uninterrupted solo run.
    auto resumed = engine.ResumeOnline(kFleet[1], path, opts);
    GOLA_CHECK_OK(resumed.status());
    auto resumed_final = (*resumed)->Run();
    GOLA_CHECK_OK(resumed_final.status());
    EXPECT_EQ(resumed_final->max_rsd, solo.max_rsd);
    EXPECT_TRUE(test::TablesEqual(resumed_final->result, solo.result)) << "resume";
    std::remove(path.c_str());
  } else {
    EXPECT_GE((*session)->state(), SessionState::kDone);
  }
  GOLA_CHECK_OK((*session)->Await().status());
}

// Satellite 1: replacing a table while sessions stream it. Running sessions
// keep their snapshot; submissions after the swap see the new data.
TEST(ServerSessionTest, RegisterTableReplaceWhileRunning) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(20'000, 7)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 60;

  const OnlineUpdate solo_v1 = Solo(engine, kFleet[0], opts);

  SessionOptions options;
  options.gola = opts;
  auto session = engine.SubmitOnline(kFleet[0], std::move(options));
  GOLA_CHECK_OK(session.status());
  OnlineUpdate u;
  ASSERT_TRUE((*session)->Next(&u, std::chrono::milliseconds(5000)));

  // Swap the table out from under the live session.
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(5'000, 1234)));

  auto final_update = (*session)->Await();
  GOLA_CHECK_OK(final_update.status());
  EXPECT_TRUE(test::TablesEqual(final_update->result, solo_v1.result))
      << "snapshot under replacement";

  // A fresh session (and a fresh solo run) both see the replacement.
  const OnlineUpdate solo_v2 = Solo(engine, kFleet[0], opts);
  SessionOptions fresh;
  fresh.gola = opts;
  auto session2 = engine.SubmitOnline(kFleet[0], std::move(fresh));
  GOLA_CHECK_OK(session2.status());
  auto final2 = (*session2)->Await();
  GOLA_CHECK_OK(final2.status());
  EXPECT_TRUE(test::TablesEqual(final2->result, solo_v2.result)) << "post-replacement";
  EXPECT_GT(engine.catalog().version(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace gola
