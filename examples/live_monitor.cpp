// Live introspection demo: runs a multi-batch online query slowly enough
// to watch from the outside. With GOLA_HTTP_PORT set, this program starts
// an embedded server with the introspection routes (/metrics, /statusz,
// /timez, /tracez, /flightz) while batches stream; the convergence JSONL
// gets one row per update that tools/plot_convergence.py turns into a
// Figure-3-style plot.
//
//   GOLA_HTTP_PORT=8080 ./live_monitor &
//   curl -s localhost:8080/statusz | python3 -m json.tool
//
// Knobs (all env): GOLA_MONITOR_ROWS (table size, default 400000),
// GOLA_MONITOR_BATCHES (default 40), GOLA_MONITOR_BATCH_MS (pause after
// each batch so scrapes catch the query mid-flight, default 150),
// GOLA_CONVERGENCE_PATH (default live_monitor.convergence.jsonl),
// GOLA_CHECKPOINT_PATH (when set: checkpoint after every batch, and resume
// from the file when it already exists — kill -9 this process mid-query,
// rerun it with the same env, and it continues at the next batch with a
// bit-identical final answer; the CI chaos job does exactly that).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "gola/gola.h"
#include "obs/http_server.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"

namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoll(v, nullptr, 10) : fallback;
}

}  // namespace

int main() {
  using namespace gola;

  const int64_t rows = EnvInt("GOLA_MONITOR_ROWS", 400'000);
  const int batches = static_cast<int>(EnvInt("GOLA_MONITOR_BATCHES", 40));
  const int batch_ms = static_cast<int>(EnvInt("GOLA_MONITOR_BATCH_MS", 150));

  Engine engine;
  ConvivaGenOptions gen;
  gen.num_rows = rows;
  gen.num_ads = 16;
  GOLA_CHECK_OK(engine.RegisterTable("conviva", GenerateConviva(gen)));

  GolaOptions opts;
  opts.num_batches = batches;
  opts.bootstrap_replicates = 80;
  const char* conv = std::getenv("GOLA_CONVERGENCE_PATH");
  opts.convergence_path = conv ? conv : "live_monitor.convergence.jsonl";

  // Crash-resume demo: with GOLA_CHECKPOINT_PATH set, pick up where a
  // previous (possibly SIGKILLed) process left off, and checkpoint after
  // every batch so at most one batch of work is ever lost.
  const char* ckpt_env = std::getenv("GOLA_CHECKPOINT_PATH");
  const std::string checkpoint_path = ckpt_env ? ckpt_env : "";
  FILE* existing =
      checkpoint_path.empty() ? nullptr : std::fopen(checkpoint_path.c_str(), "rb");
  const bool resuming = existing != nullptr;
  if (existing) std::fclose(existing);

  auto online = resuming
                    ? engine.ResumeOnline(SbiQuery(), checkpoint_path, opts)
                    : engine.ExecuteOnline(SbiQuery(), opts);
  GOLA_CHECK_OK(online.status());
  if (resuming) {
    std::printf("resumed from %s at batch %d/%d\n", checkpoint_path.c_str(),
                (*online)->batches_processed(), (*online)->total_batches());
  }

  // GOLA_HTTP_PORT (0 = ephemeral) makes this binary scrape-able without
  // flag parsing.
  obs::HttpServer server;
  if (const char* port = std::getenv("GOLA_HTTP_PORT")) {
    obs::AttachIntrospectionRoutes(&server);
    GOLA_CHECK_OK(server.Start(std::atoi(port)));
    std::printf("introspection: http://127.0.0.1:%d/statusz\n", server.port());
  } else {
    std::printf("introspection server off (set GOLA_HTTP_PORT to enable)\n");
  }
  std::printf("convergence log: %s\n\n", opts.convergence_path.c_str());
  std::printf("%8s %9s %10s %12s %12s\n", "batch", "data(%)", "rsd(%)",
              "uncertain", "recomputes");

  Table final_result;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    GOLA_CHECK_OK(update.status());
    if (update->result.num_rows() > 0) final_result = update->result;
    std::printf("%8d %9.1f %10.3f %12lld %12d\n", update->batch_index,
                100 * update->fraction_processed, 100 * update->max_rsd,
                static_cast<long long>(update->uncertain_tuples),
                update->recomputes_so_far);
    std::fflush(stdout);
    if (!checkpoint_path.empty()) {
      GOLA_CHECK_OK((*online)->Checkpoint(checkpoint_path));
    }
    if (batch_ms > 0 && !(*online)->done()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(batch_ms));
    }
  }
  // Final answer last, on its own marker line: the kill-resume smoke diffs
  // this block between an interrupted+resumed run and a clean one.
  std::printf("\nfinal result:\n%s", final_result.ToString(100).c_str());
  std::printf("\ndone: %d batches, convergence trajectory in %s\n", batches,
              opts.convergence_path.c_str());
  return 0;
}
