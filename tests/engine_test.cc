// Engine facade: table registration, EXPLAIN, CSV round trips through the
// catalog, UDF/UDAF use through SQL (batch and online), the IN-list and
// LIKE sugar, RunToAccuracy, and segment backing under GOLA_SEGMENT_DIR.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table SmallTable() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"id", TypeId::kInt64}, {"name", TypeId::kString}, {"v", TypeId::kFloat64}});
  TableBuilder builder(schema);
  const char* names[] = {"alpha", "beta", "gamma", "alphabet", "delta"};
  for (int i = 0; i < 5; ++i) {
    builder.AppendRow({Value::Int(i + 1), Value::String(names[i]),
                       Value::Float((i + 1) * 1.5)});
  }
  return builder.Finish();
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { GOLA_CHECK_OK(engine_.RegisterTable("t", SmallTable())); }
  Engine engine_;
};

TEST_F(EngineTest, RegisterAndGet) {
  auto t = engine_.GetTable("T");  // case-insensitive
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 5);
  EXPECT_FALSE(engine_.GetTable("missing").ok());
  EXPECT_FALSE(engine_.RegisterTable("bad", TablePtr()).ok());
}

TEST_F(EngineTest, ExplainShowsPlan) {
  auto plan = engine_.Explain(
      "SELECT AVG(v) FROM t WHERE v > (SELECT AVG(v) FROM t)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("block 0 [scalar]"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("where(uncertain)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("depends on: 0"), std::string::npos) << *plan;
}

TEST_F(EngineTest, InValueList) {
  auto r = engine_.ExecuteBatch("SELECT COUNT(*) FROM t WHERE id IN (1, 3, 9)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->At(0, 0).ToDouble().ValueOr(0), 2.0);
  auto n = engine_.ExecuteBatch("SELECT COUNT(*) FROM t WHERE id NOT IN (1, 3)");
  ASSERT_TRUE(n.ok());
  EXPECT_DOUBLE_EQ(n->At(0, 0).ToDouble().ValueOr(0), 3.0);
}

TEST_F(EngineTest, LikeOperator) {
  auto r = engine_.ExecuteBatch("SELECT COUNT(*) FROM t WHERE name LIKE 'alpha%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->At(0, 0).ToDouble().ValueOr(0), 2.0);  // alpha, alphabet
  auto u = engine_.ExecuteBatch("SELECT COUNT(*) FROM t WHERE name LIKE '_eta'");
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ(u->At(0, 0).ToDouble().ValueOr(0), 1.0);  // beta
  auto not_like =
      engine_.ExecuteBatch("SELECT COUNT(*) FROM t WHERE name NOT LIKE '%a%'");
  ASSERT_TRUE(not_like.ok());
  EXPECT_DOUBLE_EQ(not_like->At(0, 0).ToDouble().ValueOr(0), 0.0);
}

TEST_F(EngineTest, UdfAndUdafThroughSql) {
  ScalarFunction twice;
  twice.name = "twice";
  twice.arity = 1;
  twice.bind = [](const std::vector<TypeId>&) -> Result<TypeId> {
    return TypeId::kFloat64;
  };
  twice.eval = [](const std::vector<Column>& args) -> Result<Column> {
    Column out(TypeId::kFloat64);
    for (size_t i = 0; i < args[0].size(); ++i) out.AppendFloat(2 * args[0].NumericAt(i));
    return out;
  };
  FunctionRegistry::Global().Register(twice);

  SimpleUdafSpec product_log;
  product_log.name = "geo_mean";
  product_log.state_size = 2;
  product_log.step = [](std::vector<double>& acc, double v, double w) {
    if (v > 0) {
      acc[0] += std::log(v) * w;
      acc[1] += w;
    }
  };
  product_log.merge = [](std::vector<double>& acc, const std::vector<double>& o) {
    acc[0] += o[0];
    acc[1] += o[1];
  };
  product_log.finalize = [](const std::vector<double>& acc, double) {
    return acc[1] > 0 ? std::exp(acc[0] / acc[1]) : 0.0;
  };
  GOLA_CHECK_OK(RegisterUdaf(product_log));

  auto r = engine_.ExecuteBatch("SELECT geo_mean(twice(v)) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // geo mean of {3, 6, 9, 12, 15}.
  double expected = std::exp((std::log(3.) + std::log(6.) + std::log(9.) +
                              std::log(12.) + std::log(15.)) / 5.0);
  EXPECT_NEAR(r->At(0, 0).ToDouble().ValueOr(0), expected, 1e-9);
}

TEST_F(EngineTest, CsvRoundTripThroughEngine) {
  std::string path = ::testing::TempDir() + "/engine_roundtrip.csv";
  GOLA_CHECK_OK(WriteCsv(*(*engine_.GetTable("t")), path));
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  GOLA_CHECK_OK(engine_.RegisterTable("t2", std::move(*loaded)));
  auto a = engine_.ExecuteBatch("SELECT SUM(v) FROM t");
  auto b = engine_.ExecuteBatch("SELECT SUM(v) FROM t2");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->At(0, 0).ToDouble().ValueOr(-1), b->At(0, 0).ToDouble().ValueOr(1));
  std::remove(path.c_str());
}

TEST_F(EngineTest, RunToAccuracyStopsEarly) {
  Rng rng(3);
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder builder(schema);
  for (int i = 0; i < 20000; ++i) {
    builder.AppendRow({Value::Float(rng.Normal(100, 10))});
  }
  GOLA_CHECK_OK(engine_.RegisterTable("big", builder.Finish()));
  GolaOptions opts;
  opts.num_batches = 50;
  opts.bootstrap_replicates = 80;
  auto online = engine_.ExecuteOnline("SELECT AVG(x) FROM big", opts);
  ASSERT_TRUE(online.ok());
  auto last = (*online)->RunToAccuracy(0.005);
  ASSERT_TRUE(last.ok());
  EXPECT_LE(last->max_rsd, 0.005);
  EXPECT_LT(last->batch_index, 50) << "should stop before exhausting the data";
}

/// Names in `dir` other than "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  return names;
}

TEST(EngineSegmentDirTest, SegmentFilesAreUnlinkedAndAnswersUnchanged) {
  // Under GOLA_SEGMENT_DIR every RegisterTable round-trips its table
  // through a packed segment file. The engine unlinks each file once it is
  // mapped, so queries still run off the mapping and nothing accumulates
  // in the directory.
  std::string dir_template = ::testing::TempDir() + "gola_segdir_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const std::string dir = dir_template;
  const char* prev_env = std::getenv("GOLA_SEGMENT_DIR");
  const std::string prev = prev_env == nullptr ? "" : prev_env;

  auto make_table = [] {
    Rng rng(17);
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"g", TypeId::kInt64}, {"x", TypeId::kFloat64}});
    TableBuilder builder(schema, 512);
    for (int i = 0; i < 6000; ++i) {
      builder.AppendRow({Value::Int(rng.UniformInt(1, 6)),
                         Value::Float(rng.Normal(50, 8))});
    }
    return builder.Finish();
  };
  const char* kOnline =
      "SELECT g, AVG(x) AS m FROM d WHERE x > (SELECT AVG(x) FROM d) "
      "GROUP BY g ORDER BY g";
  const char* kBatch = "SELECT g, SUM(x) AS s FROM d GROUP BY g ORDER BY g";
  GolaOptions opts;
  opts.num_batches = 6;
  opts.bootstrap_replicates = 20;
  auto answers = [&](Engine& engine) {
    GOLA_CHECK_OK(engine.RegisterTable("d", make_table()));
    GOLA_CHECK_OK(engine.RegisterTable("d2", make_table()));
    auto batch = engine.ExecuteBatch(kBatch);
    GOLA_CHECK_OK(batch.status());
    auto online = engine.ExecuteOnline(kOnline, opts);
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    return batch->ToString(100) + last->result.ToString(100);
  };

  setenv("GOLA_SEGMENT_DIR", dir.c_str(), 1);
  std::string segment_backed;
  {
    Engine engine;
    segment_backed = answers(engine);
    EXPECT_TRUE(ListDir(dir).empty()) << "files left while tables are live";
  }
  unsetenv("GOLA_SEGMENT_DIR");
  Engine in_memory;
  const std::string reference = answers(in_memory);
  if (!prev.empty()) setenv("GOLA_SEGMENT_DIR", prev.c_str(), 1);

  EXPECT_EQ(segment_backed, reference);
  const std::vector<std::string> left = ListDir(dir);
  EXPECT_TRUE(left.empty()) << left.size() << " files left, first: "
                            << (left.empty() ? "" : left[0]);
  rmdir(dir.c_str());
}

}  // namespace
}  // namespace gola
