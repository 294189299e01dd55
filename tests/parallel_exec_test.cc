// Partition-parallel batch execution: with a worker pool the engine splits
// chunks across threads and merges partial aggregation states — results
// must be bit-identical to sequential execution.
// This is the single-node stand-in for the paper's Spark executors.
#include <gtest/gtest.h>

#include "common/random.h"
#include "gola/gola.h"
#include "test_util.h"

namespace gola {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(33);
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"g", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"s", TypeId::kString}});
    TableBuilder builder(schema, /*chunk_size=*/500);  // many chunks
    const char* cats[] = {"a", "b", "c", "d"};
    for (int i = 0; i < 20000; ++i) {
      builder.AppendRow({Value::Int(rng.UniformInt(1, 50)),
                         Value::Float(rng.LogNormal(0.5, 1.0)),
                         Value::String(cats[rng.NextBelow(4)])});
    }
    GOLA_CHECK_OK(engine_.RegisterTable("t", builder.Finish()));
  }

  void ExpectSameResults(const std::string& sql) {
    auto compiled = engine_.Compile(sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    BatchExecutor exec(&engine_.catalog());

    BatchExecOptions sequential;
    auto a = exec.Execute(*compiled, sequential);
    ASSERT_TRUE(a.ok()) << a.status().ToString();

    ThreadPool pool(4);
    BatchExecOptions parallel;
    parallel.pool = &pool;
    auto b = exec.Execute(*compiled, parallel);
    ASSERT_TRUE(b.ok()) << b.status().ToString();

    // The morsel plan and merge order never depend on the pool.
    EXPECT_TRUE(test::TablesEqual(*b, *a)) << sql;
  }

  Engine engine_;
};

TEST_F(ParallelExecTest, GlobalAggregate) {
  ExpectSameResults("SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t");
}

TEST_F(ParallelExecTest, GroupByWithFilter) {
  ExpectSameResults(
      "SELECT g, SUM(x) AS sx, COUNT(*) AS n FROM t WHERE x > 1 "
      "GROUP BY g ORDER BY g");
}

TEST_F(ParallelExecTest, NestedAggregateQuery) {
  ExpectSameResults(
      "SELECT s, AVG(x) AS m FROM t WHERE x > (SELECT AVG(x) FROM t) "
      "GROUP BY s ORDER BY s");
}

TEST_F(ParallelExecTest, MembershipQuery) {
  ExpectSameResults(
      "SELECT COUNT(*) FROM t WHERE g IN "
      "(SELECT g FROM t GROUP BY g HAVING SUM(x) > 500)");
}

TEST_F(ParallelExecTest, RepeatedRunsAreDeterministic) {
  ThreadPool pool(4);
  auto compiled = engine_.Compile("SELECT g, SUM(x) AS sx FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(compiled.ok());
  BatchExecutor exec(&engine_.catalog());
  BatchExecOptions opts;
  opts.pool = &pool;
  auto first = exec.Execute(*compiled, opts);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = exec.Execute(*compiled, opts);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->num_rows(), first->num_rows());
    for (int64_t r = 0; r < first->num_rows(); ++r) {
      EXPECT_NEAR(again->At(r, 1).ToDouble().ValueOr(0),
                  first->At(r, 1).ToDouble().ValueOr(1), 1e-9);
    }
  }
}

}  // namespace
}  // namespace gola
