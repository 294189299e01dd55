// perfbench: the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload flat|nested|dashboard --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// Drives the public API (Engine, OnlineQueryExecutor, MiniBatchPartitioner
// and the QueryService HTTP port), checks every answer against the exact
// answers reference.cc computes on its own, and prints a report on stderr
// and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and a Chrome trace of the run is written to the work dir.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "gola/gola.h"
#include "http_client.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference.h"
#include "server/http_service.h"
#include "storage/partitioner.h"
#include "storage/segment/segment.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace perfbench {
namespace {

using gola::Engine;
using gola::GolaOptions;
using gola::obs::TraceSpan;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// Mini-batches and bootstrap replicates of every online pass.
constexpr int kBatches = 100;
constexpr int kNestedBatches = 50;
/// nested's pool. Two workers, not one per vCPU: on a shared VM a pool that
/// fills every vCPU stalls each ParallelFor whenever the host steals any of
/// them, which spread nested's timings over 13-27 % between runs.
constexpr int kPoolWorkers = 2;
constexpr int kDashboardBatches = 20;
constexpr int kReplicates = 100;
/// Dashboard: client count and dispatcher step threads (each capped at the
/// hardware threads), and the share of the run the closed loop gets (the
/// panels run solo in-process before it, and give the end-to-end metrics).
constexpr int kClients = 4;
constexpr int kStepThreads = 2;
constexpr double kLoopShare = 0.3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a->workload = value;
    else if (flag == "--seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(value.c_str());
    else if (flag == "--trace") a->trace = value == "1";
    else if (flag == "--work-dir") a->work_dir = value;
    else return false;
  }
  return (argc % 2 == 1) && a->seconds > 0 &&
         (a->workload == "flat" || a->workload == "nested" ||
          a->workload == "dashboard");
}

/// Independent streams from one --seed (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// CPU time of the whole process: every thread, user and system. The
/// benchmark's timings are CPU time, not wall time. On the shared VM it was
/// built on, the host steals 5-30 % of the vCPUs' time, and the share drifts
/// over minutes; wall-clock figures of one build then spread by up to 25-50 %
/// between runs. Steal time is not charged to the process.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CpuSince(double t0) { return CpuSeconds() - t0; }

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-speed calibration. CPU time still drifts with the host: a vCPU
/// whose physical core's other hyperthread or caches another tenant keeps
/// busy runs slower without being stolen from (generating the same tables
/// took 27 % more CPU time in some runs than in others). So the benchmark
/// times a fixed kernel, which uses no engine code, next to every timed
/// operation, and scales each timing by kReferenceSeconds / (the kernel's
/// median CPU time in that round). Timings are thus seconds at the speed
/// where the kernel takes kReferenceSeconds, about this host's median speed.
/// The kernel mixes what the engine spends its time on: a shuffled gather
/// of an 8 MB column (the partitioner) and a grouped fold with replicate
/// weights (the bootstrap kernels).
class Calibration {
 public:
  static constexpr double kReferenceSeconds = 0.020;

  Calibration()
      : values_(kRows), gathered_(kRows), perm_(kRows), keys_(kRows),
        sums_(kGroups * kWeights) {
    uint64_t s = 0x9E3779B97F4A7C15ULL;
    auto next = [&s] {
      uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return z ^ (z >> 31);
    };
    for (size_t i = 0; i < kRows; ++i) {
      values_[i] = static_cast<double>(next() >> 11) * 0x1.0p-53;
      keys_[i] = static_cast<uint32_t>(next() % kGroups);
      perm_[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = kRows - 1; i > 0; --i) std::swap(perm_[i], perm_[next() % (i + 1)]);
  }

  /// Runs the kernel once; returns its CPU time on this thread.
  double Sample() {
    const double t0 = ThreadCpuSeconds();
    for (size_t i = 0; i < kRows; ++i) gathered_[i] = values_[perm_[i]];
    std::fill(sums_.begin(), sums_.end(), 0.0);
    for (size_t i = 0; i < kRows; ++i) {
      uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ULL;
      double* group = &sums_[keys_[i] * kWeights];
      for (size_t w = 0; w < kWeights; ++w) {
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ULL;
        group[w] += static_cast<double>(h >> 62) * gathered_[i];
      }
    }
    sink_ += sums_[keys_[0] * kWeights];
    return ThreadCpuSeconds() - t0;
  }

  double sink() const { return sink_; }

 private:
  static constexpr size_t kRows = 1 << 20;
  static constexpr size_t kGroups = 4096;
  static constexpr size_t kWeights = 8;
  std::vector<double> values_, gathered_;
  std::vector<uint32_t> perm_, keys_;
  std::vector<double> sums_;
  double sink_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile: with n samples, p99 leaves n - ceil(0.99 n)
/// samples beyond it.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Counts operations and prints each failure with its problems.
class Ledger {
 public:
  void Record(const std::string& op, const Problems& problems) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s\n", op.c_str());
    for (const auto& p : problems) std::fprintf(stderr, "  %s\n", p.c_str());
  }
  /// A check over the whole run (pooled coverage, scrapes).
  void Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED %s\n", what.c_str());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

// ------------------------------------------------------------ workloads --

struct QuerySpec {
  std::string name;
  std::string table;  // the streamed table
  std::string sql;
  Answer answer;
};

/// A workload table and its generator.
struct TableSpec {
  std::string name;
  std::function<gola::Table()> generate;
};

struct Setup {
  std::unique_ptr<Engine> engine;
  /// The last repetition's generated tables, for the reference answers.
  std::map<std::string, gola::TablePtr> generated;
  std::vector<double> total_s, generate_s, pack_s, open_s;
  std::vector<std::string> segment_files;
};

gola::Table Conviva(int64_t rows, uint64_t seed) {
  gola::ConvivaGenOptions o;
  o.num_rows = rows;
  o.seed = DeriveSeed(seed, 1);
  o.num_ads = 64;
  o.num_contents = 2000;
  return gola::GenerateConviva(o);
}

gola::Table Tpch(int64_t rows, uint64_t seed) {
  gola::TpchGenOptions o;
  o.num_rows = rows;
  o.seed = DeriveSeed(seed, 2);
  o.num_parts = 1000;
  o.num_suppliers = 200;
  return gola::GenerateTpch(o);
}

/// Generates and registers the tables kSetupRepeats times, each time into a
/// fresh engine; with `segments`, packs each table into a segment file and
/// registers it segment-backed instead. Each repetition's total is scaled to
/// the reference speed by the calibration samples taken around it.
bool RunSetup(const std::vector<TableSpec>& tables, bool segments,
              const std::string& work_dir, Calibration* cal, Setup* out) {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    out->engine.reset();  // unmaps the previous repetition's segments
    for (const auto& path : out->segment_files) std::remove(path.c_str());
    out->segment_files.clear();
    out->generated.clear();

    std::vector<double> cal_s = {cal->Sample(), cal->Sample()};
    TraceSpan span("bench.setup");
    const double t0 = CpuSeconds();
    out->engine = std::make_unique<Engine>();
    double gen = 0, pack = 0, open = 0;
    for (const auto& spec : tables) {
      const double g0 = CpuSeconds();
      auto table = std::make_shared<gola::Table>(spec.generate());
      gen += CpuSince(g0);
      out->generated[spec.name] = table;
      if (!segments) {
        if (!out->engine->RegisterTable(spec.name, table).ok()) return false;
        continue;
      }
      const std::string path = work_dir + "/" + spec.name + "." +
                               std::to_string(::getpid()) + "." + std::to_string(rep) +
                               ".gseg";
      const double p0 = CpuSeconds();
      gola::Status st = gola::WriteSegmentFile(*table, path);
      pack += CpuSince(p0);
      if (!st.ok()) {
        std::fprintf(stderr, "segment pack failed: %s\n", st.ToString().c_str());
        return false;
      }
      out->segment_files.push_back(path);
      const double o0 = CpuSeconds();
      st = out->engine->RegisterSegmentTable(spec.name, path);
      open += CpuSince(o0);
      if (!st.ok()) {
        std::fprintf(stderr, "segment open failed: %s\n", st.ToString().c_str());
        return false;
      }
    }
    const double total = CpuSince(t0);
    cal_s.push_back(cal->Sample());
    out->total_s.push_back(total * Calibration::kReferenceSeconds / Median(cal_s));
    out->generate_s.push_back(gen);
    out->pack_s.push_back(pack);
    out->open_s.push_back(open);
  }
  return true;
}

// ----------------------------------------------------- in-process passes --

/// One round's sums over the workload's queries.
struct RoundSums {
  /// Scaled to the reference speed when the round ends.
  double batch = 0, online = 0, first = 0, rsd5 = 0, rsd2 = 0;
  /// The calibration kernel's median CPU time in this round.
  double calibration_s = 0;
  double compile_ms = 0, partition = 0, prepare = 0;
  double delta = 0, emit = 0, envelope = 0, rebuild = 0, materialize = 0,
         controller = 0;
  int64_t recomputes = 0, uncertain_max = 0, rows_in = 0, rows_folded = 0,
          rows_uncertain = 0;
};

/// Per-query figures: the flat/nested pass metrics and the stderr report.
struct PerQuery {
  /// One per round, scaled to the reference speed.
  std::vector<double> batch, first, online;
  /// The first update's own OnlineUpdate::elapsed_seconds.
  std::vector<double> engine_first;
  int recomputes = 0;
  Coverage coverage;
};

struct InProcess {
  std::vector<RoundSums> rounds;
  std::map<std::string, PerQuery> per_query;
  /// Every update's Step() time, scaled to the reference speed.
  std::vector<double> step_ms;
  double pass_seconds = 0;
  int64_t passes = 0, updates = 0;
  Coverage coverage;
};

/// Runs `q` online to its final update. Timing (CPU) covers only the engine
/// calls; every check runs after the pass on the kept updates. Step()'s wall
/// time is kept too, for gola.controller_s: QueryStats' phases are wall
/// times.
Problems OnlinePass(const Engine& engine, const QuerySpec& q,
                    const GolaOptions& opts, RoundSums* round, InProcess* res) {
  Problems problems;
  std::vector<gola::OnlineUpdate> updates;
  std::vector<double> step_s, step_wall_s;
  double prepare = 0, first = -1, rsd5 = -1, rsd2 = -1, total = 0;
  {
    TraceSpan pass_span("bench.online_pass");
    const double t0 = CpuSeconds();
    std::unique_ptr<gola::OnlineQueryExecutor> exec;
    {
      TraceSpan span("bench.execute_online");
      auto created = engine.ExecuteOnline(q.sql, opts);
      if (!created.ok()) {
        problems.push_back("ExecuteOnline: " + created.status().ToString());
        return problems;
      }
      exec = std::move(*created);
    }
    prepare = CpuSince(t0);
    while (!exec->done()) {
      const auto w0 = Clock::now();
      const double s0 = CpuSeconds();
      gola::Result<gola::OnlineUpdate> u = [&] {
        TraceSpan span("bench.step");
        return exec->Step();
      }();
      step_s.push_back(CpuSince(s0));
      step_wall_s.push_back(Since(w0));
      if (!u.ok()) {
        problems.push_back("Step: " + u.status().ToString());
        return problems;
      }
      const double at = CpuSince(t0);
      if (first < 0) first = at;
      if (rsd5 < 0 && u->max_rsd <= 0.05) rsd5 = at;
      if (rsd2 < 0 && u->max_rsd <= 0.02) rsd2 = at;
      total = at;
      updates.push_back(std::move(*u));
    }
  }
  // A target never reached counts until the final (exact) update.
  if (rsd5 < 0) rsd5 = total;
  if (rsd2 < 0) rsd2 = total;

  PerQuery& mine = res->per_query[q.name];
  UpdateView prev;
  for (size_t i = 0; i < updates.size(); ++i) {
    const gola::OnlineUpdate& u = updates[i];
    const UpdateView cur{u.batch_index, u.total_batches, u.fraction_processed,
                         u.scale, u.max_rsd};
    CheckProgress(prev, cur, /*gapless=*/true, &problems);
    CheckCompanions(u.result, &problems);
    Coverage cov;
    AddCoverage(u.result, q.answer, &cov);
    mine.coverage.Add(cov);
    res->coverage.Add(cov);
    prev = cur;

    const gola::obs::QueryStats& st = u.stats;
    round->delta += st.delta_exec_seconds;
    round->emit += st.emit_seconds;
    round->envelope += st.envelope_check_seconds;
    round->rebuild += st.rebuild_seconds;
    round->materialize += st.materialize_seconds;
    round->controller += step_wall_s[i] - (st.delta_exec_seconds + st.emit_seconds +
                                      st.envelope_check_seconds +
                                      st.rebuild_seconds + st.materialize_seconds);
    round->rows_in += st.rows_in;
    round->rows_folded += st.rows_folded;
    round->rows_uncertain += st.rows_uncertain;
    round->uncertain_max = std::max(round->uncertain_max, u.uncertain_tuples);
    res->step_ms.push_back(step_s[i] * 1e3);
  }
  CheckFinal(prev, opts.num_batches, &problems);
  if (!updates.empty()) {
    const Rows rows = RowsOf(updates.back().result, q.answer, &problems);
    for (const auto& line : Diff(q.answer, rows)) problems.push_back("final online " + line);
    round->recomputes += updates.back().recomputes_so_far;
    if (mine.first.empty()) mine.recomputes = updates.back().recomputes_so_far;
  }
  if (problems.size() > 12) problems.resize(12);

  round->prepare += prepare;
  round->online += total;
  round->first += first;
  round->rsd5 += rsd5;
  round->rsd2 += rsd2;
  mine.first.push_back(first);
  if (!updates.empty()) mine.engine_first.push_back(updates.front().elapsed_seconds);
  mine.online.push_back(total);
  res->passes += 1;
  res->updates += static_cast<int64_t>(updates.size());
  return problems;
}

Problems BatchRun(const Engine& engine, const QuerySpec& q,
                  const gola::BatchExecOptions& opts, double* seconds) {
  Problems problems;
  const double t0 = CpuSeconds();
  gola::Result<gola::Table> result = [&] {
    TraceSpan span("bench.execute_batch");
    return engine.ExecuteBatch(q.sql, opts);
  }();
  *seconds = CpuSince(t0);
  if (!result.ok()) {
    problems.push_back("ExecuteBatch: " + result.status().ToString());
    return problems;
  }
  const Rows rows = RowsOf(*result, q.answer, &problems);
  for (const auto& line : Diff(q.answer, rows)) problems.push_back("batch " + line);
  return problems;
}

/// Traced runs only: the layers ExecuteOnline hides, timed by calling them
/// directly — the parser + binder, and the mini-batch partitioner build.
void ProbeLayers(const Engine& engine, const QuerySpec& q, const GolaOptions& opts,
                 RoundSums* round) {
  double t0 = CpuSeconds();
  {
    TraceSpan span("bench.compile");
    auto compiled = engine.Compile(q.sql);
    (void)compiled;
  }
  round->compile_ms += CpuSince(t0) * 1e3;

  auto table = engine.GetTable(q.table);
  if (!table.ok()) return;
  gola::MiniBatchOptions part;
  part.num_batches = opts.num_batches;
  part.row_shuffle = opts.row_shuffle;
  part.seed = opts.seed;
  std::unique_ptr<gola::MiniBatchPartitioner> built;
  t0 = CpuSeconds();
  {
    TraceSpan span("bench.partitioner_build");
    built = std::make_unique<gola::MiniBatchPartitioner>(**table, part);
  }
  round->partition += CpuSince(t0);
}

void WarmUp(const Engine& engine, const std::vector<QuerySpec>& queries,
            const GolaOptions& opts, const gola::BatchExecOptions& bopts) {
  for (const auto& q : queries) {
    (void)engine.ExecuteBatch(q.sql, bopts);
    auto exec = engine.ExecuteOnline(q.sql, opts);
    for (int i = 0; exec.ok() && i < 3 && !(*exec)->done(); ++i) (void)(*exec)->Step();
  }
}

/// Scales the timings of the round that ends to the reference speed: the
/// round's sums, and what it appended to the per-query and per-update lists.
void ScaleRound(double scale, size_t steps0,
                const std::map<std::string, std::array<size_t, 3>>& sizes0,
                RoundSums* round, InProcess* res) {
  for (double* t : {&round->batch, &round->online, &round->first, &round->rsd5, &round->rsd2}) {
    *t *= scale;
  }
  for (size_t i = steps0; i < res->step_ms.size(); ++i) res->step_ms[i] *= scale;
  for (auto& [name, pq] : res->per_query) {
    const auto it = sizes0.find(name);
    const std::array<std::vector<double>*, 3> lists = {&pq.batch, &pq.first, &pq.online};
    for (size_t k = 0; k < lists.size(); ++k) {
      for (size_t i = it == sizes0.end() ? 0 : it->second[k]; i < lists[k]->size(); ++i) {
        (*lists[k])[i] *= scale;
      }
    }
  }
}

/// Whole rounds (every query once in batch, once online) until the next
/// round would overrun `budget_s`; always at least one round. The
/// calibration kernel runs before every operation and after the last one.
void RunRounds(const Engine& engine, const std::vector<QuerySpec>& queries,
               GolaOptions opts, const gola::BatchExecOptions& bopts,
               bool trace, double budget_s, Calibration* cal, Ledger* ledger,
               InProcess* res) {
  const uint64_t base_seed = opts.seed;
  const auto start = Clock::now();
  double last_round = 0;
  while (res->rounds.empty() || Since(start) + last_round <= budget_s) {
    TraceSpan span("bench.round");
    const auto r0 = Clock::now();
    // Each round shuffles and resamples with its own seed, so the round
    // medians average over G-OLA's own randomness (where recomputes fire,
    // when an RSD target is crossed) instead of resting on one draw.
    opts.seed = DeriveSeed(base_seed, 100 + res->rounds.size()) >> 2;
    RoundSums round;
    std::vector<double> cal_s;
    const size_t steps0 = res->step_ms.size();
    std::map<std::string, std::array<size_t, 3>> sizes0;
    for (const auto& [name, pq] : res->per_query) {
      sizes0[name] = {pq.batch.size(), pq.first.size(), pq.online.size()};
    }
    for (const auto& q : queries) {
      if (trace) ProbeLayers(engine, q, opts, &round);
      double batch_s = 0;
      cal_s.push_back(cal->Sample());
      ledger->Record(q.name + " batch", BatchRun(engine, q, bopts, &batch_s));
      round.batch += batch_s;
      res->per_query[q.name].batch.push_back(batch_s);
      cal_s.push_back(cal->Sample());
      ledger->Record(q.name + " online", OnlinePass(engine, q, opts, &round, res));
    }
    cal_s.push_back(cal->Sample());
    round.calibration_s = Median(cal_s);
    ScaleRound(Calibration::kReferenceSeconds / round.calibration_s, steps0, sizes0, &round, res);
    res->pass_seconds += round.online;
    res->rounds.push_back(round);
    last_round = Since(r0);
  }
}

template <typename F>
double MedianOver(const std::vector<RoundSums>& rounds, F field) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(static_cast<double>(field(r)));
  return Median(v);
}

// -------------------------------------------------- dashboard closed loop --

struct SessionSample {
  double admit_ms = 0, first_ms = 0, total_ms = 0;
  std::vector<double> gaps_ms;
  int64_t updates_in_window = 0;
  bool started_in_window = false;
  bool completed_in_window = false;
};

struct Loop {
  std::mutex mu;
  std::vector<SessionSample> sessions;
  std::vector<double> statusz_ms;
};

void RecordSpan(bool trace, const char* name, int64_t start_ns) {
  if (!trace) return;
  auto& tracer = gola::obs::Tracer::Global();
  tracer.Record(name, start_ns, tracer.NowNs() - start_ns);
}

/// One dashboard session: POST the panel, read its SSE stream to `done`,
/// check every update and the final answer.
Problems HttpSession(int port, const QuerySpec& q, uint64_t gola_seed, bool trace,
                     Clock::time_point deadline, SessionSample* s) {
  Problems problems;
  const std::string path = "/query?batches=" + std::to_string(kDashboardBatches) +
                           "&seed=" + std::to_string(gola_seed) + "&label=" + q.name;
  auto& tracer = gola::obs::Tracer::Global();
  const int64_t start_ns = trace ? tracer.NowNs() : 0;
  const auto t0 = Clock::now();
  s->started_in_window = t0 < deadline;

  UpdateView prev;
  int64_t updates = 0;
  bool done = false;
  Json done_json;
  Clock::time_point last_event = t0;
  auto on_event = [&](const std::string& event, const std::string& data,
                      Clock::time_point at) {
    if (updates > 0 || done) {
      s->gaps_ms.push_back(std::chrono::duration<double, std::milli>(at - last_event).count());
    }
    last_event = at;
    if (event == "error") {
      problems.push_back("error event: " + data);
      return;
    }
    Json json;
    std::string error;
    if (!ParseJson(data, &json, &error)) {
      problems.push_back(event + " event: " + error);
      return;
    }
    if (event == "done") {
      done = true;
      done_json = std::move(json);
      return;
    }
    if (event != "update") return;
    auto num = [&](const char* key) {
      const Json* v = json.Find(key);
      return v != nullptr && v->is_number() ? v->number : NAN;
    };
    if (updates == 0) {
      s->first_ms = std::chrono::duration<double, std::milli>(at - t0).count();
      RecordSpan(trace, "bench.http.first_event", start_ns);
    }
    ++updates;
    if (at < deadline) ++s->updates_in_window;
    const UpdateView cur{static_cast<int>(num("batch_index")),
                         static_cast<int>(num("total_batches")),
                         num("fraction_processed"), num("scale"), num("max_rsd")};
    CheckProgress(prev, cur, /*gapless=*/false, &problems);
    if (const Json* result = json.Find("result")) CheckCompanionsJson(*result, &problems);
    prev = cur;
  };

  StreamResult stream;
  std::string error;
  const bool ok = HttpPostStream(port, path, q.sql, on_event, &stream, &error);
  const auto end = Clock::now();
  RecordSpan(trace, "bench.http.session", start_ns);
  s->admit_ms = std::chrono::duration<double, std::milli>(stream.head_at - t0).count();
  s->total_ms = std::chrono::duration<double, std::milli>(end - t0).count();
  s->completed_in_window = end < deadline;
  if (!ok) {
    problems.push_back("transport: " + error);
    return problems;
  }
  if (stream.status != 200) {
    problems.push_back("HTTP status " + std::to_string(stream.status));
    return problems;
  }
  if (!done) {
    problems.push_back("stream ended without a done event");
    return problems;
  }
  const Json* state = done_json.Find("state");
  if (state == nullptr || state->string != "done") problems.push_back("session state is not done");
  const Json* dropped = done_json.Find("updates_dropped");
  const int64_t n_dropped = dropped != nullptr ? static_cast<int64_t>(dropped->number) : -1;
  if (updates + n_dropped != kDashboardBatches) {
    problems.push_back(std::to_string(updates) + " updates received + " +
                       std::to_string(n_dropped) + " dropped != " +
                       std::to_string(kDashboardBatches) + " batches");
  }
  CheckFinal(prev, kDashboardBatches, &problems);
  const Json* result = done_json.Find("result");
  if (result == nullptr) {
    problems.push_back("done event has no result");
  } else {
    const Rows rows = RowsOfJson(*result, q.answer, &problems);
    for (const auto& line : Diff(q.answer, rows)) problems.push_back("done " + line);
  }
  if (problems.size() > 12) problems.resize(12);
  return problems;
}

/// Up to kClients closed-loop clients, each cycling through every panel
/// (from its own starting offset) and scraping /statusz after each cycle. A
/// client finishes the cycle it is in when the window closes, so every run
/// attempts whole cycles.
void RunClosedLoop(int port, const std::vector<QuerySpec>& panels,
                   uint64_t gola_seed, bool trace, double window_s,
                   Ledger* ledger, Loop* loop) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window_s));
  std::vector<std::thread> clients;
  for (int c = 0; c < std::min(kClients, HardwareThreads()); ++c) {
    clients.emplace_back([&, c] {
      try {
        while (Clock::now() < deadline) {
          for (size_t i = 0; i < panels.size(); ++i) {
            const QuerySpec& q = panels[(i + static_cast<size_t>(c)) % panels.size()];
            SessionSample s;
            ledger->Record(q.name + " session",
                           HttpSession(port, q, gola_seed, trace, deadline, &s));
            std::lock_guard<std::mutex> lock(loop->mu);
            loop->sessions.push_back(std::move(s));
          }
          if (Clock::now() >= deadline) break;
          auto& tracer = gola::obs::Tracer::Global();
          const int64_t start_ns = trace ? tracer.NowNs() : 0;
          const auto t0 = Clock::now();
          GetResult got;
          std::string error;
          Json json;
          const bool ok = HttpGet(port, "/statusz", &got, &error) && got.status == 200 &&
                          ParseJson(got.body, &json, &error) &&
                          json.Find("sessions") != nullptr;
          const double ms = Since(t0) * 1e3;
          RecordSpan(trace, "bench.http.statusz", start_ns);
          ledger->Check(ok, "GET /statusz: " +
                                (error.empty() ? "status " + std::to_string(got.status) : error));
          std::lock_guard<std::mutex> lock(loop->mu);
          loop->statusz_ms.push_back(ms);
        }
      } catch (const std::exception& e) {
        ledger->Check(false, std::string("client thread: ") + e.what());
      }
    });
  }
  for (auto& t : clients) t.join();
}

int64_t CounterValue(const char* name) {
  return gola::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// -------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AddInProcessMetrics(const InProcess& ip, double update_tail_pct,
                         std::vector<Metric>* e2e, std::vector<Metric>* layer) {
  const auto& r = ip.rounds;
  e2e->push_back({"batch_s", MedianOver(r, [](const RoundSums& x) { return x.batch; }), "s"});
  e2e->push_back({"online_s", MedianOver(r, [](const RoundSums& x) { return x.online; }), "s"});
  e2e->push_back({"first_answer_s", MedianOver(r, [](const RoundSums& x) { return x.first; }), "s"});
  e2e->push_back({"time_to_rsd5_s", MedianOver(r, [](const RoundSums& x) { return x.rsd5; }), "s"});
  e2e->push_back({"time_to_rsd2_s", MedianOver(r, [](const RoundSums& x) { return x.rsd2; }), "s"});
  e2e->push_back({"update_ms_p50", Percentile(ip.step_ms, 50), "ms"});
  e2e->push_back({"update_ms_tail", Percentile(ip.step_ms, update_tail_pct), "ms"});

  layer->push_back({"plan.compile_ms", MedianOver(r, [](const RoundSums& x) { return x.compile_ms; }), "ms"});
  layer->push_back({"storage.partition_s", MedianOver(r, [](const RoundSums& x) { return x.partition; }), "s"});
  layer->push_back({"gola.prepare_s", MedianOver(r, [](const RoundSums& x) { return x.prepare; }), "s"});
  layer->push_back({"gola.delta_s", MedianOver(r, [](const RoundSums& x) { return x.delta; }), "s"});
  layer->push_back({"gola.emit_s", MedianOver(r, [](const RoundSums& x) { return x.emit; }), "s"});
  layer->push_back({"gola.envelope_s", MedianOver(r, [](const RoundSums& x) { return x.envelope; }), "s"});
  layer->push_back({"gola.rebuild_s", MedianOver(r, [](const RoundSums& x) { return x.rebuild; }), "s"});
  layer->push_back({"gola.materialize_s", MedianOver(r, [](const RoundSums& x) { return x.materialize; }), "s"});
  layer->push_back({"gola.controller_s", MedianOver(r, [](const RoundSums& x) { return x.controller; }), "s"});
  // Counts come from the first round, whose seed depends on --seed alone,
  // so they repeat exactly for a given seed.
  const RoundSums& first = r.front();
  layer->push_back({"gola.recomputes", static_cast<double>(first.recomputes), "count"});
  layer->push_back({"gola.uncertain_max", static_cast<double>(first.uncertain_max), "count"});
  layer->push_back({"gola.rows_in", static_cast<double>(first.rows_in), "count"});
  layer->push_back({"gola.rows_folded", static_cast<double>(first.rows_folded), "count"});
  layer->push_back({"gola.rows_uncertain", static_cast<double>(first.rows_uncertain), "count"});
  layer->push_back({"gola.revisit_ratio",
                    first.rows_in == 0 ? 0.0
                                      : static_cast<double>(first.rows_uncertain) / first.rows_in,
                    "ratio"});
  layer->push_back({"bootstrap.ci_coverage", ip.coverage.ratio(), "ratio"});
}

/// Passes-as-sessions view: the session metrics over the run's in-process
/// online passes, in CPU time.
/// A run has only 3-5 queries x 4-9 rounds of passes, too few for a
/// percentile over a mix of unlike queries (its p50 jumps between query
/// clusters). So the p50s are the median query's median, and the tail is
/// the slowest query's median.
void AddPassMetrics(const InProcess& ip, std::vector<Metric>* e2e) {
  e2e->push_back({"queries_per_s", ip.passes / ip.pass_seconds, "1/s"});
  e2e->push_back({"updates_per_s", ip.updates / ip.pass_seconds, "1/s"});
  std::vector<double> first, online;
  for (const auto& [name, pq] : ip.per_query) {
    first.push_back(Median(pq.first) * 1e3);
    online.push_back(Median(pq.online) * 1e3);
  }
  e2e->push_back({"first_answer_ms_p50", Median(first), "ms"});
  e2e->push_back({"first_answer_ms_tail", Percentile(first, 100), "ms"});
  e2e->push_back({"query_ms_p50", Median(online), "ms"});
}

void AddSetupMetrics(const Setup& setup, std::vector<Metric>* e2e,
                     std::vector<Metric>* layer) {
  e2e->push_back({"setup_s", Median(setup.total_s), "s"});
  layer->push_back({"workload.generate_s", Median(setup.generate_s), "s"});
  layer->push_back({"storage.segment_pack_s", Median(setup.pack_s), "s"});
  layer->push_back({"storage.segment_open_s", Median(setup.open_s), "s"});
}

/// Server-side per-layer metrics; zero on the in-process workloads, which
/// never cross the HTTP port or read a segment. The http.* ones are the
/// closed loop's wall-clock figures as its clients see them.
struct ServerLayers {
  double queries_per_s = 0, updates_per_s = 0, first_answer_ms_p50 = 0,
         first_answer_ms_p90 = 0, query_ms_p50 = 0;
  double admit_ms_p50 = 0, scan_share_hit_ratio = 0, update_gap_ms_p50 = 0,
         statusz_ms_p50 = 0, bytes_read = 0, chunks_pruned = 0,
         encoded_predicates = 0, prefetch_hit_ratio = 0;
};

void AddServerMetrics(const ServerLayers& s, std::vector<Metric>* layer) {
  layer->push_back({"http.queries_per_s", s.queries_per_s, "1/s"});
  layer->push_back({"http.updates_per_s", s.updates_per_s, "1/s"});
  layer->push_back({"http.first_answer_ms_p50", s.first_answer_ms_p50, "ms"});
  layer->push_back({"http.first_answer_ms_p90", s.first_answer_ms_p90, "ms"});
  layer->push_back({"http.query_ms_p50", s.query_ms_p50, "ms"});
  layer->push_back({"server.admit_ms_p50", s.admit_ms_p50, "ms"});
  layer->push_back({"server.scan_share_hit_ratio", s.scan_share_hit_ratio, "ratio"});
  layer->push_back({"server.update_gap_ms_p50", s.update_gap_ms_p50, "ms"});
  layer->push_back({"obs.statusz_ms_p50", s.statusz_ms_p50, "ms"});
  layer->push_back({"storage.segment_bytes_read", s.bytes_read, "B/session"});
  layer->push_back({"storage.segment_chunks_pruned", s.chunks_pruned, "count/session"});
  layer->push_back({"exec.encoded_predicates", s.encoded_predicates, "count/session"});
  layer->push_back({"storage.prefetch_hit_ratio", s.prefetch_hit_ratio, "ratio"});
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- main --

std::vector<QuerySpec> ConvivaQueries(const ConvivaColumns& c, const std::vector<std::string>& names) {
  std::vector<QuerySpec> out;
  for (const auto& name : names) {
    if (name == "SBI") out.push_back({name, "conviva", gola::SbiQuery(), RefSbi(c)});
    if (name == "C1") out.push_back({name, "conviva", gola::C1Query(), RefC1(c)});
    if (name == "C2") out.push_back({name, "conviva", gola::C2Query(), RefC2(c)});
    if (name == "C3") out.push_back({name, "conviva", gola::C3Query(), RefC3(c)});
  }
  return out;
}

std::vector<QuerySpec> TpchQueries(const TpchColumns& t) {
  return {{"Q11", "tpch", gola::Q11Query(), RefQ11(t)},
          {"Q17", "tpch", gola::Q17Query(), RefQ17(t)},
          {"Q18", "tpch", gola::Q18Query(), RefQ18(t)},
          {"Q20", "tpch", gola::Q20Query(), RefQ20(t)}};
}

/// The dashboard's panel mix: four light single-block aggregates and the
/// nested SBI panel, all over conviva.
std::vector<QuerySpec> Panels(const ConvivaColumns& c) {
  return {
      {"geo_buffer", "conviva",
       "SELECT geo, AVG(buffer_time) AS avg_buffer, COUNT(*) AS sessions "
       "FROM conviva GROUP BY geo",
       RefGeoBuffer(c)},
      {"us_hourly", "conviva",
       "SELECT start_hour, AVG(play_time) AS avg_play FROM conviva "
       "WHERE geo = 'US' GROUP BY start_hour",
       RefUsHourly(c)},
      {"evening_ads", "conviva",
       "SELECT ad_id, COUNT(*) AS sessions, SUM(play_time) AS total_play "
       "FROM conviva WHERE start_hour >= 18 GROUP BY ad_id",
       RefEveningAds(c)},
      {"hd_quality", "conviva",
       "SELECT AVG(buffer_time) AS avg_buffer, AVG(join_failure_rate) AS avg_jfr "
       "FROM conviva WHERE bitrate_kbps > 3000",
       RefHdQuality(c)},
      {"SBI", "conviva", gola::SbiQuery(), RefSbi(c)},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload flat|nested|dashboard --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  // Keep large allocations on the heap, as bench/bench_util.h does. Under
  // glibc's default mmap threshold, a segment scan's decoded columns may
  // page-fault through fresh mappings on each batch run; whether they do
  // depends on the process's allocation history, and dashboard's batch_s
  // swung by 40 % between runs of one build.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  auto& tracer = gola::obs::Tracer::Global();
  if (args.trace) tracer.Enable();

  const bool dashboard = args.workload == "dashboard";
  const int64_t rows = args.workload == "nested" ? 250'000 : 1'000'000;
  std::vector<TableSpec> tables = {{"conviva", [&] { return Conviva(rows, args.seed); }}};
  if (args.workload == "nested") {
    tables.push_back({"tpch", [&] { return Tpch(rows, args.seed); }});
  }

  Calibration cal;
  for (int i = 0; i < 3; ++i) cal.Sample();  // warm-up
  Setup setup;
  if (!RunSetup(tables, dashboard, args.work_dir, &cal, &setup)) return 1;

  // Exact answers from the generated columns; the engine never sees them.
  std::vector<QuerySpec> queries;
  {
    const ConvivaColumns conviva = ExtractConviva(*setup.generated.at("conviva"));
    if (args.workload == "flat") {
      queries = ConvivaQueries(conviva, {"SBI", "C1", "C2"});
    } else if (args.workload == "nested") {
      queries = ConvivaQueries(conviva, {"C3"});
      for (auto& q : TpchQueries(ExtractTpch(*setup.generated.at("tpch")))) {
        queries.push_back(std::move(q));
      }
    } else {
      queries = Panels(conviva);
    }
  }
  setup.generated.clear();
  Engine& engine = *setup.engine;

  const uint64_t gola_seed = DeriveSeed(args.seed, 3) >> 2;  // fits ?seed=
  std::unique_ptr<gola::ThreadPool> pool;
  if (args.workload == "nested") {
    pool = std::make_unique<gola::ThreadPool>(std::min(kPoolWorkers, HardwareThreads()));
  }
  GolaOptions opts;
  opts.num_batches = dashboard                       ? kDashboardBatches
                     : args.workload == "nested" ? kNestedBatches
                                                 : kBatches;
  opts.bootstrap_replicates = kReplicates;
  opts.seed = gola_seed;
  opts.pool = pool.get();
  gola::BatchExecOptions bopts;
  bopts.pool = pool.get();

  Ledger ledger;
  InProcess ip;
  ServerLayers server;
  std::vector<Metric> e2e, layer;
  Loop loop;
  double loop_window = 0;
  double peak_rss_mb = 0;

  if (!dashboard) {
    WarmUp(engine, queries, opts, bopts);
    RunRounds(engine, queries, opts, bopts, args.trace, args.seconds, &cal, &ledger, &ip);
  } else {
    gola::server::DispatcherOptions dopts;
    dopts.step_threads = std::min(kStepThreads, HardwareThreads());
    engine.sessions(dopts);
    gola::obs::HttpServer http;
    gola::server::QueryService service(&engine);
    service.AttachTo(&http);
    gola::Status st = http.Start(0);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot start the query service: %s\n", st.ToString().c_str());
      return 1;
    }
    // Warm-up: each panel once over HTTP and briefly in-process.
    for (const auto& q : queries) {
      SessionSample ignored;
      (void)HttpSession(http.port(), q, gola_seed, false, Clock::now(), &ignored);
    }
    WarmUp(engine, queries, opts, bopts);

    // The panels solo, in-process, over the segment-backed table — first,
    // while the heap is as fresh as on the other workloads.
    RunRounds(engine, queries, opts, bopts, args.trace, args.seconds * (1 - kLoopShare),
              &cal, &ledger, &ip);
    // Peak RSS is read before the closed loop: its per-connection server
    // threads spread allocations over many malloc arenas, and the peak they
    // leave varies too much between runs to bound (README).
    peak_rss_mb = PeakRssMb();

    const gola::server::ScanShareStats share0 = engine.sessions().scan_stats();
    const int64_t bytes0 = CounterValue("gola_segment_bytes_read_total");
    const int64_t pruned0 = CounterValue("gola_segment_chunks_pruned_total");
    const int64_t encoded0 = CounterValue("gola_kernel_encoded_predicate_total");
    const int64_t hits0 = CounterValue("gola_scan_prefetch_hits_total");
    const int64_t misses0 = CounterValue("gola_scan_prefetch_misses_total");
    loop_window = args.seconds * kLoopShare;
    RunClosedLoop(http.port(), queries, gola_seed, args.trace, loop_window, &ledger, &loop);
    const gola::server::ScanShareStats share1 = engine.sessions().scan_stats();
    const double sessions = std::max<double>(1, loop.sessions.size());
    const double share_hits = static_cast<double>(share1.hits - share0.hits);
    const double share_all = share_hits + static_cast<double>(share1.misses - share0.misses);
    server.scan_share_hit_ratio = share_all > 0 ? share_hits / share_all : 0;
    server.bytes_read = (CounterValue("gola_segment_bytes_read_total") - bytes0) / sessions;
    server.chunks_pruned = (CounterValue("gola_segment_chunks_pruned_total") - pruned0) / sessions;
    server.encoded_predicates =
        (CounterValue("gola_kernel_encoded_predicate_total") - encoded0) / sessions;
    const double hits = static_cast<double>(CounterValue("gola_scan_prefetch_hits_total") - hits0);
    const double misses =
        static_cast<double>(CounterValue("gola_scan_prefetch_misses_total") - misses0);
    server.prefetch_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
    http.Stop();
    engine.sessions().Shutdown();
  }

  AddSetupMetrics(setup, &e2e, &layer);
  // The tail is p99 on nested, where ~1 % of the updates are recompute
  // steps (~5 rounds of 250 updates, so 12 lie beyond it), and p90 elsewhere.
  // flat's p99 (7 rounds of 300 updates) spread by 0.12 and 0.19 in two
  // 10-run sets of one build; in two runs, p99 differed by 24 %, p95 by 12 %
  // and p90 by 4 %. dashboard's solo phase runs 5-9 rounds of 100 updates.
  AddInProcessMetrics(ip, args.workload == "nested" ? 99 : 90, &e2e, &layer);
  AddPassMetrics(ip, &e2e);
  if (dashboard) {
    std::vector<double> first, total, admit, gaps;
    int64_t completed = 0, updates = 0;
    for (const auto& s : loop.sessions) {
      completed += s.completed_in_window;
      updates += s.updates_in_window;
      if (!s.started_in_window) continue;
      first.push_back(s.first_ms);
      total.push_back(s.total_ms);
      admit.push_back(s.admit_ms);
      gaps.insert(gaps.end(), s.gaps_ms.begin(), s.gaps_ms.end());
    }
    server.queries_per_s = completed / loop_window;
    server.updates_per_s = updates / loop_window;
    server.first_answer_ms_p50 = Percentile(first, 50);
    server.first_answer_ms_p90 = Percentile(first, 90);
    server.query_ms_p50 = Percentile(total, 50);
    server.admit_ms_p50 = Percentile(admit, 50);
    server.update_gap_ms_p50 = Percentile(gaps, 50);
    server.statusz_ms_p50 = Percentile(loop.statusz_ms, 50);
    std::fprintf(stderr, "closed loop: %zu sessions (%lld in the %.1f s window), %zu scrapes\n",
                 loop.sessions.size(), static_cast<long long>(completed), loop_window,
                 loop.statusz_ms.size());
  }
  AddServerMetrics(server, &layer);
  e2e.push_back({"peak_rss_mb", dashboard ? peak_rss_mb : PeakRssMb(), "MB"});

  // Pooled CI coverage must stay within 0.10 of nominal (ci_level 0.95).
  ledger.Check(ip.coverage.ratio() >= opts.ci_level - 0.10,
               "pooled CI coverage " + FormatNumber(ip.coverage.ratio()) + " over " +
                   std::to_string(ip.coverage.cells) + " cells");

  for (const auto& [name, pq] : ip.per_query) {
    std::fprintf(stderr,
                 "  %-12s batch %.4f s  first %.4f s  online %.4f s  recomputes %d  "
                 "coverage %.4f (%lld cells)  elapsed_seconds at first update %.4f s\n",
                 name.c_str(), Median(pq.batch), Median(pq.first), Median(pq.online),
                 pq.recomputes, pq.coverage.ratio(),
                 static_cast<long long>(pq.coverage.cells), Median(pq.engine_first));
  }
  std::fprintf(stderr, "%s seed=%llu: %zu rounds, %lld passes, %lld updates\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               ip.rounds.size(), static_cast<long long>(ip.passes),
               static_cast<long long>(ip.updates));
  std::fprintf(stderr,
               "calibration kernel: median %.6f s per round (reference %.3f s); "
               "online_s unscaled %.6f s (%g)\n",
               MedianOver(ip.rounds, [](const RoundSums& x) { return x.calibration_s; }),
               Calibration::kReferenceSeconds,
               MedianOver(ip.rounds,
                          [](const RoundSums& x) {
                            return x.online * x.calibration_s / Calibration::kReferenceSeconds;
                          }),
               cal.sink());
  for (const auto* list : {&e2e, &layer}) {
    for (const auto& m : *list) {
      std::fprintf(stderr, "  %-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload + ".json";
    const gola::Status st = tracer.WriteJson(path);
    std::fprintf(stderr, "trace: %s (%zu events, %lld dropped)%s\n", path.c_str(),
                 tracer.num_events(), static_cast<long long>(tracer.dropped()),
                 st.ok() ? "" : " write failed");
  }
  for (const auto& path : setup.segment_files) std::remove(path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              ledger.correct() ? "true" : "false",
              static_cast<long long>(ledger.attempted()),
              static_cast<long long>(ledger.failed()),
              MetricsJson(args.trace ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
