#include "baseline/naive_ola.h"

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gola {

NaiveOlaExecutor::NaiveOlaExecutor(const Catalog* catalog, CompiledQuery query,
                                   const NaiveOlaOptions& options)
    : catalog_(catalog), query_(std::move(query)), options_(options) {}

Result<std::unique_ptr<NaiveOlaExecutor>> NaiveOlaExecutor::Create(
    const Catalog* catalog, CompiledQuery query, const NaiveOlaOptions& options) {
  std::unique_ptr<NaiveOlaExecutor> exec(
      new NaiveOlaExecutor(catalog, std::move(query), options));
  GOLA_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(exec->query_.root().table));
  MiniBatchOptions part_opts;
  part_opts.num_batches = options.num_batches;
  part_opts.row_shuffle = options.row_shuffle;
  part_opts.seed = options.seed;
  exec->partitioner_ = std::make_unique<MiniBatchPartitioner>(*table, part_opts);
  return exec;
}

Result<NaiveOlaUpdate> NaiveOlaExecutor::Step() {
  if (done()) return Status::ExecutionError("all mini-batches already processed");
  Stopwatch timer;
  const int i = next_batch_;
  obs::TraceSpan batch_span("naive_batch", "index", i);

  std::vector<std::shared_ptr<const Chunk>> prefix =
      partitioner_->BatchesSharedUpTo(i + 1);
  rows_through_ += static_cast<int64_t>(prefix.back()->num_rows());
  const int64_t rows_through = rows_through_;
  double scale = static_cast<double>(partitioner_->total_rows()) /
                 static_cast<double>(rows_through);

  BatchExecutor exec(catalog_);
  BatchExecOptions opts;
  opts.scale = scale;
  opts.pool = options_.pool;
  NaiveOlaUpdate update;
  update.batch_index = i + 1;
  GOLA_ASSIGN_OR_RETURN(update.result,
                        exec.ExecuteOnChunks(query_, query_.root().table, prefix, opts));
  // Every block rescans the full prefix.
  update.rows_scanned = rows_through * static_cast<int64_t>(query_.blocks.size());
  update.batch_seconds = timer.ElapsedSeconds();
  next_batch_ = i + 1;
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Histogram* batch_us =
        reg.GetHistogram("gola_baseline_batch_us{engine=\"naive\"}");
    static obs::Counter* rows_scanned =
        reg.GetCounter("gola_baseline_rows_scanned_total{engine=\"naive\"}");
    batch_us->Record(static_cast<int64_t>(update.batch_seconds * 1e6));
    rows_scanned->Add(update.rows_scanned);
  }
  return update;
}

}  // namespace gola
