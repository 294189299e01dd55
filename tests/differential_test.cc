// Differential harness: every query runs through one variant matrix, and
// every variant's full update stream must be bit-identical to a reference
// stream (DESIGN.md §7.1). Three oracles tie the stream to the exact engine:
//   1. each update equals BatchExecutor::ExecuteOnChunks over its prefix
//      at scale k/i — G-OLA's contract that delta maintenance is invisible
//      (paper §3) — for the property templates and the random queries;
//   2. the final update equals ExecuteBatch;
//   3. ExecuteBatch is bit-identical across vectorized × pool × storage.
// Query sources: the paper queries over conviva and tpch, eight property
// templates (one per uncertain-conjunct form), a seeded random nested-query
// generator, and group-bys over a mixed-type table with NULLs. The random
// queries are also mutated token by token: a mutated statement must fail
// with a typed Status or run to completion, never crash. ctest runs this
// binary once per query source (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "gola/gola.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/lexer.h"
#include "storage/segment/segment.h"
#include "test_util.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

// ------------------------------------------------------------ datasets --

/// One dataset registered twice: in memory, and opened from packed segment
/// files (encoded fast paths, streamed partitioner).
struct Dataset {
  Engine memory;
  Engine segment;
};

/// Property-template data: a key, a small group column, two measures and
/// a flag.
Table PropertyData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64},
      {"grp", TypeId::kInt64},
      {"x", TypeId::kFloat64},
      {"y", TypeId::kFloat64},
      {"flag", TypeId::kInt64},
  });
  TableBuilder builder(schema, 256);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 6)),
                       Value::Float(rng.LogNormal(2.0, 0.7)),
                       Value::Float(rng.Normal(50, 15)),
                       Value::Int(rng.Bernoulli(0.3) ? 1 : 0)});
  }
  return builder.Finish();
}

/// Random-query data: two group keys and three measures.
Table RandomQueryData(int64_t n, uint64_t seed) {
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
    builder.AppendRow({Value::Int(rng.UniformInt(1, 4)), Value::Int(rng.UniformInt(1, 7)),
                       Value::Float(rng.LogNormal(1.5, 0.6)),
                       Value::Float(rng.Normal(40, 12)),
                       Value::Float(rng.UniformDouble(0, 100))});
  }
  return builder.Finish();
}

/// Every key-column type the group-id kernel specializes — int, double,
/// string and bool keys, all nullable — plus nullable numeric and string
/// measures.
Table MixedTypeData(uint64_t seed, int64_t rows) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"ki", TypeId::kInt64},
      {"kf", TypeId::kFloat64},
      {"ks", TypeId::kString},
      {"kb", TypeId::kBool},
      {"v", TypeId::kFloat64},
      {"w", TypeId::kInt64},
      {"name", TypeId::kString},
  });
  TableBuilder builder(schema, 512);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(rng.UniformInt(0, 12) == 0 ? Value::Null()
                                             : Value::Int(rng.UniformInt(-3, 3)));
    row.push_back(rng.UniformInt(0, 12) == 0
                      ? Value::Null()
                      : Value::Float(static_cast<double>(rng.UniformInt(-4, 4)) / 2.0));
    row.push_back(rng.UniformInt(0, 12) == 0
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>('a' + rng.UniformInt(0, 3)))));
    row.push_back(rng.UniformInt(0, 12) == 0 ? Value::Null()
                                             : Value::Bool(rng.UniformInt(0, 1) == 1));
    row.push_back(rng.UniformInt(0, 15) == 0 ? Value::Null()
                                             : Value::Float(rng.Normal(50, 20)));
    row.push_back(rng.UniformInt(0, 15) == 0 ? Value::Null()
                                             : Value::Int(rng.UniformInt(0, 1000)));
    row.push_back(Value::String(std::string(1, static_cast<char>('p' + rng.UniformInt(0, 2)))));
    builder.AppendRow(row);
  }
  return builder.Finish();
}

std::vector<std::pair<std::string, Table>> DatasetTables(const std::string& key) {
  if (key == "workload") {
    ConvivaGenOptions conviva;
    conviva.num_rows = 5000;
    conviva.num_ads = 12;
    conviva.num_contents = 150;
    conviva.chunk_size = 600;  // many chunks: exercises gathers + pruning
    TpchGenOptions tpch;
    tpch.num_rows = 5000;
    tpch.num_parts = 50;
    tpch.num_suppliers = 12;
    std::vector<std::pair<std::string, Table>> tables;
    tables.emplace_back("conviva", GenerateConviva(conviva));
    tables.emplace_back("tpch", GenerateTpch(tpch));
    return tables;
  }
  std::vector<std::pair<std::string, Table>> tables;
  if (key == "random") {
    tables.emplace_back("d", RandomQueryData(1200, 55));
  } else if (key == "mixed") {
    tables.emplace_back("t", MixedTypeData(11, 3000));
  } else {  // "property<data seed>"
    tables.emplace_back("d", PropertyData(1500, std::stoull(key.substr(8))));
  }
  return tables;
}

Dataset& GetDataset(const std::string& key) {
  static auto* datasets = new std::map<std::string, std::unique_ptr<Dataset>>();
  std::unique_ptr<Dataset>& slot = (*datasets)[key];
  if (slot != nullptr) return *slot;
  slot = std::make_unique<Dataset>();
  for (auto& [name, table] : DatasetTables(key)) {
    const std::string path = Format("%s/differential_%d_%s_%s.gseg",
                                    ::testing::TempDir().c_str(),
                                    static_cast<int>(::getpid()), key.c_str(),
                                    name.c_str());
    GOLA_CHECK_OK(WriteSegmentFile(table, path));
    GOLA_CHECK_OK(slot->segment.RegisterSegmentTable(name, path));
    std::remove(path.c_str());  // the open segment keeps its mapping
    GOLA_CHECK_OK(slot->memory.RegisterTable(name, std::move(table)));
  }
  return *slot;
}

// -------------------------------------------------------- query sources --

struct DiffCase {
  std::string name;
  std::string dataset;
  std::string table;  // the streamed table
  std::string sql;
  int num_batches = 6;
  int replicates = 40;
  uint64_t seed = 7;
  /// Check every update against the batch engine over its prefix.
  bool prefix_oracle = false;
  /// False when the SQL has no ORDER BY: groups then come out in
  /// first-seen order, which differs between stream and table order.
  bool ordered = true;

  GolaOptions Options() const {
    GolaOptions opts;
    opts.num_batches = num_batches;
    opts.bootstrap_replicates = replicates;
    opts.seed = seed;
    return opts;
  }
  friend void PrintTo(const DiffCase& c, std::ostream* os) {
    *os << c.name << ": " << c.sql;
  }
};

/// One template per uncertain-conjunct form: global scalar, correlated
/// scalar, membership, NOT IN, peeled affine, opaque, HAVING, and two
/// conjuncts.
std::vector<DiffCase> PropertyCases() {
  const char* kTemplates[][2] = {
      {"global_scalar",
       "SELECT AVG(y) AS a, COUNT(*) AS n FROM d "
       "WHERE x > (SELECT AVG(x) FROM d)"},
      {"correlated_scalar",
       "SELECT grp, SUM(y) AS s FROM d t "
       "WHERE x < (SELECT AVG(x) FROM d u WHERE u.grp = t.grp) "
       "GROUP BY grp ORDER BY grp"},
      {"membership",
       "SELECT COUNT(*) AS n FROM d WHERE grp IN "
       "(SELECT grp FROM d GROUP BY grp HAVING AVG(x) > 9)"},
      {"not_in_membership",
       "SELECT SUM(y) AS s FROM d WHERE grp NOT IN "
       "(SELECT grp FROM d GROUP BY grp HAVING AVG(x) > 9)"},
      {"peeled_affine",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > 1.2 * (SELECT AVG(x) FROM d)"},
      {"opaque_conjunct",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > abs((SELECT AVG(x) FROM d))"},
      {"having_subquery",
       "SELECT grp, AVG(y) AS a FROM d GROUP BY grp "
       "HAVING SUM(y) > (SELECT SUM(y) * 0.15 FROM d) ORDER BY grp"},
      {"two_conjuncts",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > (SELECT AVG(x) FROM d) AND y < (SELECT AVG(y) FROM d) "},
  };
  std::vector<DiffCase> cases;
  for (const auto& t : kTemplates) {
    for (uint64_t seed : {1u, 2u}) {
      DiffCase c;
      c.name = std::string(t[0]) + "_seed" + std::to_string(seed);
      c.dataset = "property" + std::to_string(seed * 31);
      c.table = "d";
      c.sql = t[1];
      c.num_batches = seed % 2 == 0 ? 6 : 11;
      c.replicates = 30;
      c.seed = seed * 101 + 7;
      c.prefix_oracle = true;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

/// Builds one random query from composable pieces: a grouped or scalar
/// aggregate with 1-2 uncertain conjuncts, each comparing a measure with a
/// (possibly correlated, possibly affine-wrapped) nested aggregate.
std::string RandomQuery(Rng* rng) {
  const char* measures[] = {"a", "b", "c"};
  const char* aggs[] = {"AVG", "SUM", "MIN", "MAX", "COUNT", "STDDEV"};
  const char* cmps[] = {">", "<", ">=", "<="};
  auto measure = [&] { return measures[rng->NextBelow(3)]; };
  auto agg = [&] { return aggs[rng->NextBelow(6)]; };

  std::string select;
  std::string group;
  if (rng->Bernoulli(0.5)) {
    const char* key = rng->Bernoulli(0.5) ? "g1" : "g2";
    select = Format("SELECT %s, %s(%s) AS m", key, agg(), measure());
    group = Format(" GROUP BY %s ORDER BY %s", key, key);
  } else {
    select = Format("SELECT %s(%s) AS m, COUNT(*) AS n", agg(), measure());
  }

  int num_preds = 1 + static_cast<int>(rng->NextBelow(2));
  std::string where;
  for (int p = 0; p < num_preds; ++p) {
    const char* lhs = measure();
    const char* inner_measure = measure();
    const char* inner_agg = rng->Bernoulli(0.7) ? "AVG" : "SUM";
    std::string sub;
    if (rng->Bernoulli(0.4)) {
      const char* key = rng->Bernoulli(0.5) ? "g1" : "g2";
      sub = Format("(SELECT %s(%s) FROM d u WHERE u.%s = d.%s)", inner_agg,
                   inner_measure, key, key);
    } else {
      sub = Format("(SELECT %s(%s) FROM d)", inner_agg, inner_measure);
    }
    if (rng->Bernoulli(0.3)) {
      sub = Format("%.2f * %s", rng->UniformDouble(0.5, 1.5), sub.c_str());
    }
    where += Format("%s %s %s %s", p == 0 ? " WHERE" : " AND", lhs,
                    cmps[rng->NextBelow(4)], sub.c_str());
  }
  return select + " FROM d d" + where + group;
}

std::vector<DiffCase> RandomCases() {
  const int kQueries = 25;
  Rng rng(20260705);
  std::vector<DiffCase> cases;
  for (int q = 0; q < kQueries; ++q) {
    DiffCase c;
    c.name = Format("random_%02d", q);
    c.dataset = "random";
    c.table = "d";
    c.sql = RandomQuery(&rng);
    c.num_batches = 5;
    c.replicates = 20;
    c.seed = 1000 + static_cast<uint64_t>(q);
    c.prefix_oracle = true;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Group-by arity 0–3 over mixed key types; every SimpleAggKind fast path
/// (COUNT(*)/COUNT/SUM/AVG) plus the generic per-state aggregates
/// (MIN/MAX/VAR/STDDEV) and a string-typed aggregate argument.
std::vector<DiffCase> MixedTypeCases() {
  const std::vector<std::string> queries = {
      "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
      "SELECT ki, COUNT(*), SUM(v), AVG(w) FROM t GROUP BY ki",
      "SELECT kf, COUNT(v), SUM(w), VAR(v) FROM t GROUP BY kf",
      "SELECT ks, kb, AVG(v), COUNT(*), STDDEV(v) FROM t GROUP BY ks, kb",
      "SELECT ki, kf, ks, SUM(v), COUNT(w), MIN(w), MAX(v) FROM t "
      "GROUP BY ki, kf, ks",
      "SELECT kb, COUNT(name), COUNT(*) FROM t GROUP BY kb",
  };
  std::vector<DiffCase> cases;
  for (size_t i = 0; i < queries.size(); ++i) {
    DiffCase c;
    c.name = Format("mixed_%zu", i);
    c.dataset = "mixed";
    c.table = "t";
    c.sql = queries[i];
    c.num_batches = 5;
    c.replicates = 40;
    c.seed = 23;
    c.ordered = false;
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<DiffCase> PaperCases() {
  std::vector<DiffCase> cases;
  for (const NamedQuery& q : AllQueries()) {
    DiffCase c;
    c.name = q.name;
    c.dataset = "workload";
    c.table = q.table;
    c.sql = q.sql;
    cases.push_back(std::move(c));
  }
  return cases;
}

// ------------------------------------------------------------- variants --

enum class Instruments { kOff, kMetrics, kTraced };

/// How one run differs from the defaults.
struct Variant {
  const char* name;
  bool segment = false;
  bool vectorized = true;
  int pool = 0;  // workers; 0 = serial
  Instruments instruments = Instruments::kMetrics;
  /// Checkpoint after a seeded batch j, then continue in a fresh executor
  /// from Engine::ResumeOnline.
  bool resume = false;
};

/// Default options — vectorized, serial, in memory — with metrics and
/// tracing on.
const Variant kReference = {"reference", false, true, 0, Instruments::kTraced};

const Variant kMemoryVariants[] = {
    {"pool1", false, true, 1},
    {"pool4", false, true, 4},
    {"row_at_a_time", false, false, 0},
    {"row_at_a_time_pool4", false, false, 4},
    {"uninstrumented", false, true, 0, Instruments::kOff},
    {"uninstrumented_pool4", false, true, 4, Instruments::kOff},
    {"checkpoint_resume", false, true, 0, Instruments::kMetrics, true},
};

const Variant kSegmentVariants[] = {
    {"segment", true, true, 0},
    {"segment_pool4", true, true, 4},
    {"segment_row_at_a_time", true, false, 0},
    {"segment_row_at_a_time_pool4", true, false, 4},
};

ThreadPool* Pool(int workers) {
  static ThreadPool* one = new ThreadPool(1);
  static ThreadPool* four = new ThreadPool(4);
  return workers == 0 ? nullptr : workers == 1 ? one : four;
}

/// Sets metrics / tracing for one run and restores them afterwards.
class InstrumentScope {
 public:
  explicit InstrumentScope(Instruments level)
      : metrics_were_on_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(level != Instruments::kOff);
    if (level == Instruments::kTraced) obs::Tracer::Global().Enable();
  }
  ~InstrumentScope() {
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
    obs::SetMetricsEnabled(metrics_were_on_);
  }

 private:
  const bool metrics_were_on_;
};

Result<std::vector<OnlineUpdate>> RunOnline(Dataset& data, const DiffCase& c,
                                            const Variant& v) {
  const Engine& engine = v.segment ? data.segment : data.memory;
  GolaOptions opts = c.Options();
  opts.vectorized = v.vectorized;
  opts.pool = Pool(v.pool);
  InstrumentScope instruments(v.instruments);
  GOLA_ASSIGN_OR_RETURN(std::unique_ptr<OnlineQueryExecutor> online,
                        engine.ExecuteOnline(c.sql, opts));
  if (!v.resume) return test::Drain(online.get());

  std::vector<OnlineUpdate> updates;
  Rng rng(c.seed);
  const uint64_t cuts = static_cast<uint64_t>(online->total_batches() - 1);
  const int cut = 1 + static_cast<int>(rng.NextBelow(cuts));
  while (online->batches_processed() < cut) {
    GOLA_ASSIGN_OR_RETURN(OnlineUpdate update, online->Step());
    updates.push_back(std::move(update));
  }
  const std::string path = Format("%s/differential_%d.ckpt",
                                  ::testing::TempDir().c_str(),
                                  static_cast<int>(::getpid()));
  GOLA_RETURN_NOT_OK(online->Checkpoint(path));
  online.reset();
  auto resumed = engine.ResumeOnline(c.sql, path, opts);
  std::remove(path.c_str());
  GOLA_RETURN_NOT_OK(resumed.status());
  GOLA_ASSIGN_OR_RETURN(std::vector<OnlineUpdate> tail, test::Drain(resumed->get()));
  for (OnlineUpdate& update : tail) updates.push_back(std::move(update));
  return updates;
}

// --------------------------------------------------------------- checks --

/// The rows of `t` in ascending order (Value::operator<, column by column).
Table SortedRows(const Table& t) {
  std::vector<std::vector<Value>> rows(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.schema()->num_fields(); ++c) {
      rows[static_cast<size_t>(r)].push_back(t.At(r, static_cast<int>(c)));
    }
  }
  std::sort(rows.begin(), rows.end());
  TableBuilder builder(t.schema());
  for (const auto& row : rows) builder.AppendRow(row);
  return builder.Finish();
}

/// Online against batch: the same rows, with float sums folded in another
/// order (they differ in the last few ulps).
constexpr double kBatchTolerance = 1e-10;

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

/// Every variant's full update stream equals the reference stream.
template <size_t N>
void ExpectStreamsMatchReference(const DiffCase& c, const Variant (&variants)[N]) {
  Dataset& data = GetDataset(c.dataset);
  auto reference = RunOnline(data, c, kReference);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->empty());
  for (const Variant& v : variants) {
    auto got = RunOnline(data, c, v);
    ASSERT_TRUE(got.ok()) << v.name << ": " << got.status().ToString();
    EXPECT_TRUE(test::StreamsEqual(*got, *reference)) << v.name;
  }
}

TEST_P(DifferentialTest, UpdateStreamsBitIdenticalAcrossVariants) {
  ExpectStreamsMatchReference(GetParam(), kMemoryVariants);
}

TEST_P(DifferentialTest, SegmentStreamsBitIdenticalToReference) {
  ExpectStreamsMatchReference(GetParam(), kSegmentVariants);
}

TEST_P(DifferentialTest, OnlineEqualsBatchEngine) {
  const DiffCase& c = GetParam();
  Dataset& data = GetDataset(c.dataset);
  auto reference = RunOnline(data, c, kReference);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->empty());

  if (c.prefix_oracle) {
    auto compiled = data.memory.Compile(c.sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    TablePtr table = *data.memory.GetTable(c.table);
    MiniBatchOptions part_opts;
    part_opts.num_batches = c.num_batches;
    part_opts.seed = c.seed;
    MiniBatchPartitioner partitioner(*table, part_opts);
    BatchExecutor batch(&data.memory.catalog());
    for (const OnlineUpdate& update : *reference) {
      BatchExecOptions opts;
      opts.scale = update.scale;
      auto expected = batch.ExecuteOnChunks(
          *compiled, c.table, partitioner.BatchesSharedUpTo(update.batch_index), opts);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_TRUE(test::TablesEqual(update.result, *expected, kBatchTolerance))
          << "batch " << update.batch_index;
    }
  }

  auto exact = data.memory.ExecuteBatch(c.sql);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const Table& final_result = reference->back().result;
  EXPECT_TRUE(c.ordered
                  ? test::TablesEqual(final_result, *exact, kBatchTolerance)
                  : test::TablesEqual(SortedRows(final_result), SortedRows(*exact),
                                      kBatchTolerance));
}

TEST_P(DifferentialTest, BatchBitIdenticalAcrossVariants) {
  const DiffCase& c = GetParam();
  Dataset& data = GetDataset(c.dataset);
  auto reference = data.memory.ExecuteBatch(c.sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (bool segment : {false, true}) {
    for (bool vectorized : {true, false}) {
      for (int pool : {0, 4}) {
        BatchExecOptions opts;
        opts.vectorized = vectorized;
        opts.pool = Pool(pool);
        auto got = (segment ? data.segment : data.memory).ExecuteBatch(c.sql, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(test::TablesEqual(*got, *reference))
            << (segment ? "segment" : "memory")
            << (vectorized ? " vectorized" : " row-at-a-time") << " pool " << pool;
      }
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return info.param.name;
}

// One instantiation per query source. tests/CMakeLists.txt runs each as its
// own ctest entry, so a new source needs an entry there too.
INSTANTIATE_TEST_SUITE_P(PaperQueries, DifferentialTest,
                         ::testing::ValuesIn(PaperCases()), CaseName);
INSTANTIATE_TEST_SUITE_P(PropertyTemplates, DifferentialTest,
                         ::testing::ValuesIn(PropertyCases()), CaseName);
INSTANTIATE_TEST_SUITE_P(RandomQueries, DifferentialTest,
                         ::testing::ValuesIn(RandomCases()), CaseName);
INSTANTIATE_TEST_SUITE_P(MixedTypes, DifferentialTest,
                         ::testing::ValuesIn(MixedTypeCases()), CaseName);

// --------------------------------------------------------- mutated SQL --

/// The source text of each token (quotes and all), in order.
std::vector<std::string> TokenTexts(const std::string& sql) {
  std::vector<Token> tokens = *Tokenize(sql);
  std::vector<std::string> texts;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const size_t begin = tokens[i].offset;
    const size_t end = tokens[i + 1].offset;
    texts.emplace_back(Trim(std::string_view(sql).substr(begin, end - begin)));
  }
  return texts;
}

/// One seeded token-level mutation: drop, swap with the next, duplicate,
/// or truncate after a token.
std::string Mutate(std::vector<std::string> tokens, Rng* rng) {
  const size_t i = rng->NextBelow(tokens.size());
  switch (rng->NextBelow(4)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      if (i + 1 < tokens.size()) std::swap(tokens[i], tokens[i + 1]);
      break;
    case 2:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i), tokens[i]);
      break;
    default:
      tokens.resize(i + 1);
      break;
  }
  return Join(tokens, " ");
}

TEST(DifferentialMutationTest, MutatedSqlFailsTypedOrCompletes) {
  constexpr int kMutationsPerQuery = 4;
  Dataset& data = GetDataset("random");
  Rng rng(20261020);
  int failed = 0, completed = 0;
  for (const DiffCase& c : RandomCases()) {
    const std::vector<std::string> tokens = TokenTexts(c.sql);
    for (int m = 0; m < kMutationsPerQuery; ++m) {
      const std::string sql = Mutate(tokens, &rng);
      SCOPED_TRACE(sql);
      Status status = data.memory.Compile(sql).status();
      if (status.ok()) {
        auto online = data.memory.ExecuteOnline(sql, c.Options());
        status = online.ok() ? test::Drain(online->get()).status() : online.status();
      }
      if (status.ok()) {
        ++completed;
        continue;
      }
      ++failed;
      EXPECT_NE(status.code(), StatusCode::kInternal) << status.ToString();
      EXPECT_FALSE(status.message().empty());
    }
  }
  // The mutations must reach both outcomes, or they test nothing.
  EXPECT_GT(failed, 0);
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace gola
