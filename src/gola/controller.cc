#include "gola/controller.h"

#include <algorithm>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "gola/update_json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/trace.h"

namespace gola {

const char* DegradationName(Degradation d) {
  switch (d) {
    case Degradation::kNone: return "none";
    case Degradation::kSkipMaterialize: return "skip_materialize";
    case Degradation::kReducedReplicates: return "reduced_replicates";
    case Degradation::kStoppedEarly: return "stopped_early";
  }
  return "unknown";
}

OnlineQueryExecutor::OnlineQueryExecutor(const Catalog* catalog, CompiledQuery query,
                                         const GolaOptions& options)
    : catalog_(catalog), query_(std::move(query)), options_(options) {}

Result<std::unique_ptr<OnlineQueryExecutor>> OnlineQueryExecutor::Create(
    const Catalog* catalog, CompiledQuery query, const GolaOptions& options,
    std::shared_ptr<const MiniBatchPartitioner> shared_scan) {
  std::unique_ptr<OnlineQueryExecutor> exec(
      new OnlineQueryExecutor(catalog, std::move(query), options));
  GOLA_RETURN_NOT_OK(exec->Prepare(std::move(shared_scan)));
  return exec;
}

namespace {

/// Options are user input: reject nonsense up front instead of failing (or
/// silently misbehaving) batches later.
Status ValidateOptions(const GolaOptions& o) {
  if (o.num_batches < 1) {
    return Status::InvalidArgument("num_batches must be >= 1");
  }
  if (o.bootstrap_replicates < 0) {
    return Status::InvalidArgument("bootstrap_replicates must be >= 0");
  }
  if (o.epsilon_mult < 0 || !(o.epsilon_mult == o.epsilon_mult)) {
    return Status::InvalidArgument("epsilon_mult must be a non-negative number");
  }
  if (!(o.ci_level > 0 && o.ci_level < 1)) {
    return Status::InvalidArgument("ci_level must be in (0, 1)");
  }
  if (o.min_group_support < 0) {
    return Status::InvalidArgument("min_group_support must be >= 0");
  }
  if (o.max_morsel_retries < 0) {
    return Status::InvalidArgument("max_morsel_retries must be >= 0");
  }
  if (o.retry_backoff_ms < 0) {
    return Status::InvalidArgument("retry_backoff_ms must be >= 0");
  }
  if (o.deadline_ms < 0 || !(o.deadline_ms == o.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be a non-negative number");
  }
  if (o.active_replicates < -1 || o.active_replicates > o.bootstrap_replicates) {
    return Status::InvalidArgument(
        "active_replicates must be -1 (all) or in [0, bootstrap_replicates]");
  }
  return Status::OK();
}

}  // namespace

Status OnlineQueryExecutor::Prepare(
    std::shared_ptr<const MiniBatchPartitioner> shared_scan) {
  // One-time, process-wide arming of failpoints from GOLA_FAILPOINTS (a bad
  // spec is a warning, not a query failure — fault injection is a test rig).
  static const Status env_status = fail::ConfigureFromEnv();
  if (!env_status.ok()) {
    GOLA_LOG(Warn) << "GOLA_FAILPOINTS ignored: " << env_status.ToString();
  }
  GOLA_RETURN_NOT_OK(ValidateOptions(options_));
  if (query_.blocks.empty()) return Status::PlanError("empty query");
  const std::string streamed = ToLower(query_.root().table);
  for (const auto& block : query_.blocks) {
    if (ToLower(block.table) != streamed) {
      return Status::NotImplemented(
          "online execution streams a single table; block scans " + block.table);
    }
    if (!block.is_aggregate) {
      return Status::NotImplemented(
          "online execution requires aggregation (plain SELECT has no "
          "converging running result)");
    }
  }
  GOLA_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(streamed));

  weights_ = std::make_unique<PoissonWeights>(options_.bootstrap_replicates,
                                              SplitMix64(options_.seed ^ 0xB00757AAULL));
  // Attach to a shared mini-batch scan when the session layer provides one
  // and it demonstrably partitions *this* table under *these* options;
  // anything off falls back to a private partitioner (correctness never
  // rides on the cache being right).
  if (shared_scan != nullptr &&
      shared_scan->total_rows() == table->num_rows() &&
      (shared_scan->num_batches() == options_.num_batches ||
       // Tiny tables: the partitioner clamps to >=1-row batches, so fewer
       // batches than requested is the legitimate shared shape too.
       (table->num_rows() < options_.num_batches &&
        shared_scan->num_batches() ==
            static_cast<int>(std::max<int64_t>(1, table->num_rows()))))) {
    partitioner_ = std::move(shared_scan);
    scan_shared_ = true;
  } else {
    if (shared_scan != nullptr) {
      GOLA_LOG(Warn) << "shared scan rejected (rows/batches mismatch); "
                        "building a private partitioner";
    }
    MiniBatchOptions part_opts;
    part_opts.num_batches = options_.num_batches;
    part_opts.row_shuffle = options_.row_shuffle;
    part_opts.seed = options_.seed;
    partitioner_ = std::make_shared<MiniBatchPartitioner>(*table, part_opts);
  }

  blocks_.reserve(query_.blocks.size());
  for (const auto& block : query_.blocks) {
    blocks_.push_back(std::make_unique<OnlineBlockExec>(&block, catalog_, &options_,
                                                        weights_.get()));
  }
  if (!options_.trace_path.empty()) obs::Tracer::Global().Enable();

  // --- live introspection wiring (observes only; never changes results) --
  registry_id_ = obs::QueryRegistry::Global().Register(
      Format("%s (%d blocks, %d batches)", streamed.c_str(),
             static_cast<int>(query_.blocks.size()), options_.num_batches));

  // Per-session telemetry. The labeled /metrics families only exist when
  // the caller (session layer) supplied a session_id — cardinality stays
  // bounded by the session retention policy. The time-series store has its
  // own eviction, so every query gets convergence series there; solo
  // queries are keyed by their registry id.
  labels_ = options_.metrics_labels;
  if (labels_.table.empty()) labels_.table = streamed;
  if (obs::MetricsEnabled() && !labels_.session_id.empty()) {
    auto& reg = obs::MetricsRegistry::Global();
    obs::MetricLabels session_labels;
    session_labels.session_id = labels_.session_id;
    session_labels.table = labels_.table;
    batches_labeled_ = reg.GetCounter("gola_online_batches_total", session_labels);
    batch_us_labeled_ = reg.GetHistogram("gola_online_batch_us", session_labels);
    static const char* kPhases[6] = {"scan",    "envelope", "delta",
                                     "emit",    "rebuild",  "materialize"};
    for (int p = 0; p < 6; ++p) {
      obs::MetricLabels phase_labels = session_labels;
      phase_labels.phase = kPhases[p];
      phase_us_labeled_[p] = reg.GetHistogram("gola_online_phase_us", phase_labels);
    }
  }
  if (obs::MetricsEnabled()) {
    obs::MetricLabels ts_labels;
    ts_labels.session_id = labels_.session_id.empty()
                               ? Format("q%llu", static_cast<unsigned long long>(
                                                     registry_id_))
                               : labels_.session_id;
    ts_labels.table = labels_.table;
    auto& ts = obs::TimeSeriesStore::Global();
    ts_max_rsd_ = ts.Register("gola_query_max_rsd", ts_labels);
    ts_half_width_ = ts.Register("gola_query_ci_halfwidth", ts_labels);
    ts_fraction_ = ts.Register("gola_query_fraction_processed", ts_labels);
    ts_uncertain_ = ts.Register("gola_query_uncertain_tuples", ts_labels);
    // Estimator-quality series (DESIGN.md §14): the worst cell's CI
    // half-width (grouped queries converge on their worst group, not the
    // headline scalar) and the top-ranked per-group RSDs. Rank labels are
    // part of the series name — same inline-label idiom as the SLO
    // histograms; /timez JSON-escapes names, so the quotes are safe.
    ts_half_width_worst_ = ts.Register("gola_query_ci_halfwidth_worst", ts_labels);
    for (int r = 0; r < kGroupRsdRanks; ++r) {
      ts_group_rsd_[r] =
          ts.Register(Format("gola_group_rsd{rank=\"%d\"}", r + 1), ts_labels);
    }
    // Per-group telemetry and the convergence watchdog ride the same
    // MetricsEnabled() gate as every other recording path, so the CI
    // overhead guard's GOLA_METRICS A/B measures their cost too.
    group_tracker_ = std::make_unique<obs::GroupTelemetryTracker>();
    watchdog_ = std::make_unique<obs::ConvergenceWatchdog>();
  }

  if (!options_.convergence_path.empty()) {
    convergence_ = std::make_unique<obs::JsonlWriter>();
    if (!convergence_->Open(options_.convergence_path, /*truncate=*/true)) {
      GOLA_LOG(Warn) << "convergence output disabled: cannot open "
                     << options_.convergence_path;
      convergence_.reset();
    }
  }

  flight_path_ = options_.flight_path;
  if (flight_path_.empty()) {
    if (const char* env = std::getenv("GOLA_FLIGHT_PATH")) flight_path_ = env;
  }
  if (!flight_path_.empty()) {
    obs::FlightRecorder::InstallCrashHandler(flight_path_ + ".crash");
  }
  obs::FlightRecorder::Global().Note("query_start", streamed.c_str(),
                                     static_cast<int64_t>(registry_id_));

  // The engine's clock starts with Prepare's own wall time (the timer runs
  // since construction), so the first update and the SLO time-to-RSD count
  // the partitioner build.
  elapsed_ = total_timer_.ElapsedSeconds();
  total_timer_.Restart();
  return Status::OK();
}

OnlineQueryExecutor::~OnlineQueryExecutor() {
  if (registry_id_ != 0) obs::QueryRegistry::Global().Deregister(registry_id_);
  auto& ts = obs::TimeSeriesStore::Global();
  ts.Retire(ts_max_rsd_);
  ts.Retire(ts_half_width_);
  ts.Retire(ts_fraction_);
  ts.Retire(ts_uncertain_);
  ts.Retire(ts_half_width_worst_);
  for (int r = 0; r < kGroupRsdRanks; ++r) ts.Retire(ts_group_rsd_[r]);
}

Result<OnlineUpdate> OnlineQueryExecutor::Step() {
  if (done()) return Status::ExecutionError("all mini-batches already processed");
  Stopwatch batch_timer;

  const int i = next_batch_;  // 0-based
  OnlineUpdate update;
  {
    obs::TraceSpan batch_span("batch", "index", i);
    obs::FlightRecorder::Global().Note("batch_begin", nullptr, i);
    // Pin the batch for the whole step: streamed partitioners retain only a
    // small window of recent batches. On a segment-backed table this fetch
    // gathers and decodes the batch.
    std::shared_ptr<const Chunk> batch_pin;
    {
      Stopwatch scan_timer;
      obs::TraceSpan scan_span("scan", "batch", i);
      batch_pin = partitioner_->BatchShared(i);
      update.stats.scan_seconds = scan_timer.ElapsedSeconds();
    }
    const Chunk& batch = *batch_pin;

    // Multiplicity m = N / |D_i| (§2.2); computed from rows rather than k/i
    // so the uneven final batch stays unbiased.
    rows_through_ += static_cast<int64_t>(batch.num_rows());
    const int64_t rows_through = rows_through_;
    double scale = static_cast<double>(partitioner_->total_rows()) /
                   static_cast<double>(rows_through);

    for (auto& block : blocks_) {
      GOLA_ASSIGN_OR_RETURN(RangeFailure violated,
                            block->ProcessBatch(batch, scale, &env_, &update.stats));
      if (violated != RangeFailure::kNone) {
        // Range failure (§3.2): recompute the whole query over D_i with the
        // current variation ranges, block by block in dependency order.
        ++recomputes_;
        update.stats.failure_cause = RangeFailureName(violated);
        obs::FlightRecorder::Global().Note("range_failure",
                                           RangeFailureName(violated), i);
        std::vector<std::shared_ptr<const Chunk>> seen_pins =
            partitioner_->BatchesSharedUpTo(i + 1);
        std::vector<const Chunk*> seen;
        seen.reserve(seen_pins.size());
        for (const auto& p : seen_pins) seen.push_back(p.get());
        for (auto& b : blocks_) {
          // Rebuild starts from a Reset, so a failed attempt (injected fault
          // or thrown stage) can simply be rerun.
          Status st = b->Rebuild(seen, scale, &env_, &update.stats);
          for (int r = 1;
               !st.ok() && fail::Retryable(st) && r <= options_.max_morsel_retries;
               ++r) {
            if (obs::MetricsEnabled()) {
              obs::MetricsRegistry::Global()
                  .GetCounter("gola_online_rebuild_retries_total")
                  ->Increment();
            }
            obs::FlightRecorder::Global().Note("rebuild_retry", nullptr, r);
            st = b->Rebuild(seen, scale, &env_, &update.stats);
          }
          GOLA_RETURN_NOT_OK(st);
        }
        obs::FlightRecorder::Global().Note("rebuild_done", nullptr, recomputes_);
        // A recompute is exactly the pathological event a postmortem wants
        // context for: persist the recent-event ring while it is fresh.
        if (!flight_path_.empty()) {
          Status st = obs::FlightRecorder::Global().Dump(flight_path_);
          if (!st.ok()) {
            GOLA_LOG(Warn) << "flight-recorder dump failed: " << st.ToString();
          }
        }
        break;
      }
    }
    next_batch_ = i + 1;

    // Deadline pressure is evaluated after the in-flight batch finished, so
    // the answer below reflects every row folded so far and a well-formed
    // query always completes at least one batch. The clock is wall time
    // since Prepare (plus any pre-resume spend) — caller think-time between
    // Steps counts against the deadline, as a dashboard user would expect.
    ApplyDeadlinePressure(resumed_elapsed_ + total_timer_.ElapsedSeconds());
    update.degradation = degradation_;

    Stopwatch materialize_timer;
    obs::TraceSpan materialize_span("materialize", "batch", i);
    update.batch_index = next_batch_;
    update.total_batches = partitioner_->num_batches();
    update.fraction_processed = static_cast<double>(rows_through) /
                                static_cast<double>(partitioner_->total_rows());
    update.scale = scale;
    const RootEmission& emission = blocks_.back()->root_emission();
    // Live monitors watching huge group-bys via /statusz or the
    // convergence file can skip the per-batch result copy; the final batch
    // always materializes so the drained answer stays complete.
    if (options_.materialize_results || done()) {
      update.result = emission.result;
    }
    update.max_rsd = emission.max_rsd;
    update.uncertain_groups = emission.uncertain_groups;
    for (const auto& block : blocks_) {
      update.uncertain_tuples += block->uncertain_size();
    }
    update.recomputes_so_far = recomputes_;
    update.materialize_seconds = materialize_timer.ElapsedSeconds();
    update.stats.materialize_seconds = update.materialize_seconds;
  }
  update.batch_seconds = batch_timer.ElapsedSeconds();
  elapsed_ += update.batch_seconds;
  update.elapsed_seconds = elapsed_;

  // Pipeline volume of this batch: delta of the blocks' cumulative counters.
  {
    int64_t morsels = 0, rows_in = 0, rows_folded = 0, rows_uncertain = 0;
    for (const auto& block : blocks_) {
      const PipelineMetrics& m = block->metrics();
      morsels += m.morsels.load(std::memory_order_relaxed);
      rows_in += m.rows_in.load(std::memory_order_relaxed);
      rows_folded += m.rows_folded.load(std::memory_order_relaxed);
      rows_uncertain += m.rows_uncertain.load(std::memory_order_relaxed);
    }
    update.stats.morsels = morsels - prev_morsels_;
    update.stats.rows_in = rows_in - prev_rows_in_;
    update.stats.rows_folded = rows_folded - prev_rows_folded_;
    update.stats.rows_uncertain = rows_uncertain - prev_rows_uncertain_;
    prev_morsels_ = morsels;
    prev_rows_in_ = rows_in;
    prev_rows_folded_ = rows_folded;
    prev_rows_uncertain_ = rows_uncertain;
  }

  // The headline cell is extracted once per update, from the root emission
  // — populated even when materialize_results skipped the result copy.
  const Table& root = blocks_.back()->root_emission().result;
  update.headline = ExtractHeadline(root);
  update.result_rows = root.num_rows();

  Observe(&update);
  return update;
}

void OnlineQueryExecutor::Observe(OnlineUpdate* update) {
  const OnlineUpdate& u = *update;

  // 1. Metrics: global families, plus the per-session labeled ones when the
  // session layer set a session_id.
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* batches_total = reg.GetCounter("gola_online_batches_total");
    static obs::Counter* recomputes_total =
        reg.GetCounter("gola_online_recomputes_total");
    static obs::Histogram* batch_us = reg.GetHistogram("gola_online_batch_us");
    static obs::Gauge* uncertain_tuples =
        reg.GetGauge("gola_online_uncertain_tuples");
    static obs::Gauge* uncertain_groups =
        reg.GetGauge("gola_online_uncertain_groups");
    batches_total->Add(1);
    if (u.stats.failure_cause != nullptr) recomputes_total->Add(1);
    batch_us->Record(static_cast<int64_t>(u.batch_seconds * 1e6));
    uncertain_tuples->Set(u.uncertain_tuples);
    uncertain_groups->Set(u.uncertain_groups);
    if (batches_labeled_ != nullptr) {
      batches_labeled_->Add(1);
      batch_us_labeled_->Record(static_cast<int64_t>(u.batch_seconds * 1e6));
      const double phase_seconds[6] = {
          u.stats.scan_seconds,       u.stats.envelope_check_seconds,
          u.stats.delta_exec_seconds, u.stats.emit_seconds,
          u.stats.rebuild_seconds,    u.stats.materialize_seconds};
      for (int p = 0; p < 6; ++p) {
        phase_us_labeled_[p]->Record(static_cast<int64_t>(phase_seconds[p] * 1e6));
      }
    }
  }

  // 2. Group tracker and watchdog. Grouped queries converge on their worst
  // group, so the worst cell's CI half-width — not the headline scalar — is
  // the width signal the watchdog and /timez watch.
  if (group_tracker_ != nullptr) {
    update->groups = group_tracker_->Observe(
        ExtractGroupCells(blocks_.back()->root_emission().result));
  }
  const double worst_half_width =
      std::max(u.headline.half_width(), u.groups.worst_half_width);
  if (watchdog_ != nullptr) {
    update->alerts = watchdog_->Observe(u.batch_index, u.headline.has_rsd(),
                                        u.max_rsd, worst_half_width,
                                        u.uncertain_tuples);
    for (const obs::WatchdogAlert& a : u.alerts) {
      obs::FlightRecorder::Global().Note("watchdog", a.kind.c_str(),
                                         a.batch_index);
      obs::MetricsRegistry::Global()
          .GetCounter(Format("gola_watchdog_alerts_total{kind=\"%s\"}",
                             a.kind.c_str()))
          ->Increment();
      if (warnings_.size() < 16) {
        warnings_.push_back(
            Format("batch %lld: %s — %s",
                   static_cast<long long>(a.batch_index), a.kind.c_str(),
                   a.detail.c_str()));
      }
    }
  }

  // 3. /timez series.
  if (obs::MetricsEnabled()) {
    auto& ts = obs::TimeSeriesStore::Global();
    ts.Append(ts_max_rsd_, u.max_rsd);
    ts.Append(ts_half_width_, u.headline.half_width());
    ts.Append(ts_fraction_, u.fraction_processed);
    ts.Append(ts_uncertain_, static_cast<double>(u.uncertain_tuples));
    ts.Append(ts_half_width_worst_, worst_half_width);
    // Ranked worst-group RSDs; a rank with no measurable cell this update
    // simply has no sample (absent ≠ 0).
    for (int r = 0; r < kGroupRsdRanks; ++r) {
      if (r >= static_cast<int>(u.groups.top.size())) break;
      const obs::GroupCell& cell = u.groups.top[r];
      if (cell.has_rsd) ts.Append(ts_group_rsd_[r], cell.rsd);
    }
  }

  // 4. SLO crossings are tracked unconditionally (the wide-event query log
  // consumes them even with metrics off); only the histogram export is
  // gated.
  const std::vector<size_t> newly_met =
      slo_.Observe(u.elapsed_seconds, u.max_rsd, u.headline.has_estimate);
  if (obs::MetricsEnabled()) {
    for (size_t idx : newly_met) {
      const obs::SloCrossing& c = slo_.crossings()[idx];
      obs::MetricsRegistry::Global()
          .GetHistogram(Format("gola_slo_time_to_rsd_us{table=\"%s\",target=\"%g%%\"}",
                               labels_.table.c_str(), c.target_rsd * 100))
          ->Record(static_cast<int64_t>(c.seconds * 1e6));
    }
  }
  update->slo = slo_.crossings();

  // 5. The /statusz entry and 6. the convergence row: one rendering of the
  // shared fields, each view appending its own.
  const std::string shared = UpdateJson(u);
  std::string entry = shared + Format(", \"done\": %s, \"warnings\": [",
                                     done() ? "true" : "false");
  for (size_t w = 0; w < warnings_.size(); ++w) {
    entry += (w ? ", \"" : "\"") + JsonEscape(warnings_[w]) + "\"";
  }
  entry += "]";
  obs::QueryRegistry::Global().Update(registry_id_, std::move(entry));
  if (convergence_ != nullptr) {
    convergence_->Append(Format("{\"schema\": %d, \"kind\": \"update\", ",
                                obs::kJsonlSchema) +
                         shared + "}");
  }

  // 7. Last batch drained: flush the query timeline for Perfetto.
  if (done() && !options_.trace_path.empty() && !trace_written_) {
    trace_written_ = true;
    Status st = obs::Tracer::Global().WriteJson(options_.trace_path);
    if (!st.ok()) {
      GOLA_LOG(Warn) << "failed to write trace to " << options_.trace_path << ": "
                     << st.ToString();
    }
  }
}

void OnlineQueryExecutor::ApplyDeadlinePressure(double wall_seconds) {
  if (options_.deadline_ms <= 0 || next_batch_ == 0) return;
  double frac = wall_seconds * 1000.0 / options_.deadline_ms;
  Degradation level = Degradation::kNone;
  if (frac >= 1.0) {
    level = Degradation::kStoppedEarly;
  } else if (frac >= 0.75) {
    level = Degradation::kReducedReplicates;
  } else if (frac >= 0.5) {
    level = Degradation::kSkipMaterialize;
  }
  if (level <= degradation_) return;  // monotone ladder
  degradation_ = level;
  ApplyDegradationEffects();
  obs::FlightRecorder::Global().Note("degrade", DegradationName(degradation_),
                                     next_batch_);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter(Format("gola_online_degradations_total{level=\"%s\"}",
                           DegradationName(degradation_)))
        ->Increment();
  }
}

void OnlineQueryExecutor::ApplyDegradationEffects() {
  // Each rung includes the ones below it (documented order, DESIGN.md §10).
  if (degradation_ >= Degradation::kSkipMaterialize) {
    options_.materialize_results = false;
  }
  if (degradation_ >= Degradation::kReducedReplicates) {
    options_.active_replicates = std::max(1, options_.bootstrap_replicates / 2);
  }
  if (degradation_ >= Degradation::kStoppedEarly) {
    stopped_early_ = true;
  }
}

HeadlineCell ExtractHeadline(const Table& result) {
  // First aggregate-bearing column, first row, located via its `<col>_lo`
  // companion (CI columns are emitted as `<col>_lo`/`_hi`/`_rsd`).
  HeadlineCell cell;
  if (result.num_rows() == 0) return cell;
  const Schema& schema = *result.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const std::string& name = schema.field(c).name;
    if (name.size() <= 3 || name.substr(name.size() - 3) != "_lo") continue;
    auto value_col = schema.FieldIndex(name.substr(0, name.size() - 3));
    auto rsd_col = schema.FieldIndex(name.substr(0, name.size() - 3) + "_rsd");
    if (!value_col.ok()) continue;
    // A value that fails to parse (null aggregate, string column sharing
    // the suffix) must propagate as *absent*: reading a failed parse as 0
    // would make an unparseable cell look fully converged (rsd = 0) and
    // pin its CI at [0, 0].
    const Result<double> estimate = result.At(0, *value_col).ToDouble();
    const Result<double> lo = result.At(0, static_cast<int>(c)).ToDouble();
    const Result<double> hi = result.At(0, static_cast<int>(c) + 1).ToDouble();
    if (!estimate.ok() || !lo.ok() || !hi.ok()) break;
    cell.has_estimate = true;
    cell.estimate = *estimate;
    cell.ci_lo = *lo;
    cell.ci_hi = *hi;
    if (rsd_col.ok()) {
      const Result<double> rsd = result.At(0, *rsd_col).ToDouble();
      if (rsd.ok()) cell.rsd = *rsd;  // stays -1 (absent) on a failed parse
    }
    break;
  }
  return cell;
}

std::vector<obs::GroupCell> ExtractGroupCells(const Table& result) {
  std::vector<obs::GroupCell> cells;
  if (result.num_rows() == 0 || result.schema() == nullptr) return cells;
  const Schema& schema = *result.schema();
  const int num_fields = static_cast<int>(schema.num_fields());

  // Locate aggregate columns by their `_lo` companion (same convention as
  // ExtractHeadline); everything that is neither an aggregate value nor a
  // companion is a group-key column.
  struct AggCol {
    std::string name;
    int value = -1, lo = -1, hi = -1, rsd = -1;
  };
  std::vector<AggCol> aggs;
  std::vector<bool> is_key(num_fields, true);
  for (int c = 0; c < num_fields; ++c) {
    const std::string& name = schema.field(c).name;
    if (name.size() <= 3 || name.substr(name.size() - 3) != "_lo") continue;
    const std::string base = name.substr(0, name.size() - 3);
    auto value_col = schema.FieldIndex(base);
    if (!value_col.ok()) continue;
    AggCol agg;
    agg.name = base;
    agg.value = *value_col;
    agg.lo = c;
    auto hi_col = schema.FieldIndex(base + "_hi");
    if (hi_col.ok()) agg.hi = *hi_col;
    auto rsd_col = schema.FieldIndex(base + "_rsd");
    if (rsd_col.ok()) agg.rsd = *rsd_col;
    is_key[agg.value] = false;
    is_key[agg.lo] = false;
    if (agg.hi >= 0) is_key[agg.hi] = false;
    if (agg.rsd >= 0) is_key[agg.rsd] = false;
    aggs.push_back(std::move(agg));
  }
  if (aggs.empty()) return cells;
  std::vector<int> key_cols;
  for (int c = 0; c < num_fields; ++c) {
    if (is_key[c]) key_cols.push_back(c);
  }

  cells.reserve(static_cast<size_t>(result.num_rows()) * aggs.size());
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    std::string key;
    if (key_cols.empty()) {
      key = "*";  // scalar query: one implicit group
    } else {
      for (size_t i = 0; i < key_cols.size(); ++i) {
        if (i) key += '|';
        key += result.At(r, key_cols[i]).ToString();
      }
    }
    for (const AggCol& agg : aggs) {
      obs::GroupCell cell;
      cell.group_key = key;
      cell.column = agg.name;
      const Result<double> estimate = result.At(r, agg.value).ToDouble();
      const Result<double> lo = result.At(r, agg.lo).ToDouble();
      const Result<double> hi =
          agg.hi >= 0 ? result.At(r, agg.hi).ToDouble() : Result<double>(0.0);
      if (estimate.ok() && lo.ok() && hi.ok()) {
        cell.has_estimate = true;
        cell.estimate = *estimate;
        cell.ci_lo = *lo;
        cell.ci_hi = *hi;
      }
      if (agg.rsd >= 0) {
        const Result<double> rsd = result.At(r, agg.rsd).ToDouble();
        if (rsd.ok()) {
          cell.has_rsd = true;
          cell.rsd = *rsd;
        }
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

Result<OnlineUpdate> OnlineQueryExecutor::Run(
    const std::function<bool(const OnlineUpdate&)>& callback) {
  OnlineUpdate last;
  while (!done()) {
    GOLA_ASSIGN_OR_RETURN(last, Step());
    if (callback && !callback(last)) break;  // user stopped the query (OLA control)
  }
  return last;
}

Result<OnlineUpdate> OnlineQueryExecutor::RunToAccuracy(double target_rsd) {
  return Run([target_rsd](const OnlineUpdate& update) {
    return update.max_rsd > target_rsd;
  });
}

}  // namespace gola
