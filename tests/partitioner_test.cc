// Mini-batch partitioning invariants: every row appears exactly once,
// serials are the stream positions, batches are near-uniform, the stream is
// deterministic given a seed, and any prefix is an unbiased sample.
#include "storage/partitioner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "common/random.h"

namespace gola {
namespace {

Table MakeSequential(int64_t n, int64_t chunk_size = 64) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"id", TypeId::kInt64}, {"v", TypeId::kFloat64}});
  TableBuilder builder(schema, chunk_size);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(i), Value::Float(static_cast<double>(i))});
  }
  return builder.Finish();
}

TEST(PartitionerTest, EveryRowExactlyOnce) {
  Table t = MakeSequential(1000);
  MiniBatchOptions opts;
  opts.num_batches = 7;
  MiniBatchPartitioner p(t, opts);
  std::multiset<int64_t> ids;
  for (int b = 0; b < p.num_batches(); ++b) {
    auto batch = p.BatchShared(b);
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      ids.insert(batch->column(0).GetValue(i).AsInt());
    }
  }
  ASSERT_EQ(ids.size(), 1000u);
  int64_t expect = 0;
  for (int64_t id : ids) EXPECT_EQ(id, expect++);
}

TEST(PartitionerTest, SerialsAreStreamPositions) {
  Table t = MakeSequential(100);
  MiniBatchOptions opts;
  opts.num_batches = 4;
  MiniBatchPartitioner p(t, opts);
  int64_t expected = 0;
  for (int b = 0; b < p.num_batches(); ++b) {
    for (int64_t s : p.BatchShared(b)->serials()) EXPECT_EQ(s, expected++);
  }
  EXPECT_EQ(expected, 100);
}

TEST(PartitionerTest, BatchesNearUniform) {
  Table t = MakeSequential(103);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  MiniBatchPartitioner p(t, opts);
  ASSERT_EQ(p.num_batches(), 10);
  for (int b = 0; b < 9; ++b) EXPECT_EQ(p.BatchShared(b)->num_rows(), 10u);
  EXPECT_EQ(p.BatchShared(9)->num_rows(), 13u);  // remainder absorbed by the last
}

TEST(PartitionerTest, DeterministicGivenSeed) {
  Table t = MakeSequential(500);
  MiniBatchOptions opts;
  opts.num_batches = 5;
  opts.seed = 77;
  MiniBatchPartitioner a(t, opts), b(t, opts);
  for (int i = 0; i < 5; ++i) {
    auto ba = a.BatchShared(i), bb = b.BatchShared(i);
    ASSERT_EQ(ba->num_rows(), bb->num_rows());
    for (size_t r = 0; r < ba->num_rows(); ++r) {
      EXPECT_EQ(ba->column(0).GetValue(r), bb->column(0).GetValue(r));
    }
  }
  opts.seed = 78;
  MiniBatchPartitioner c(t, opts);
  bool any_diff = false;
  auto a0 = a.BatchShared(0), c0 = c.BatchShared(0);
  for (size_t r = 0; r < a0->num_rows(); ++r) {
    if (!(a0->column(0).GetValue(r) == c0->column(0).GetValue(r))) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(PartitionerTest, PrefixIsUnbiasedSample) {
  // The mean of the first batch must estimate the full-table mean: true
  // mean of 0..9999 is 4999.5; a uniform 1000-row sample has stderr ≈ 91.
  Table t = MakeSequential(10000);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  opts.seed = 5;
  MiniBatchPartitioner p(t, opts);
  auto first = p.BatchShared(0);
  double sum = 0;
  for (size_t i = 0; i < first->num_rows(); ++i) sum += first->column(1).NumericAt(i);
  double mean = sum / static_cast<double>(first->num_rows());
  EXPECT_NEAR(mean, 4999.5, 4 * 91.0);
}

TEST(PartitionerTest, PartitionWiseModeKeepsChunksIntact) {
  Table t = MakeSequential(100, /*chunk_size=*/10);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  opts.row_shuffle = false;
  MiniBatchPartitioner p(t, opts);
  // Without row shuffling, each batch is one original chunk: its ids are 10
  // consecutive integers (in some chunk order).
  for (int b = 0; b < p.num_batches(); ++b) {
    auto batch = p.BatchShared(b);
    ASSERT_EQ(batch->num_rows(), 10u);
    int64_t base = batch->column(0).GetValue(0).AsInt();
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(batch->column(0).GetValue(i).AsInt(), base + static_cast<int64_t>(i));
    }
  }
}

TEST(RandomShuffleTest, PermutesAllRows) {
  Table t = MakeSequential(200);
  Table s = RandomShuffle(t, 3);
  EXPECT_EQ(s.num_rows(), 200);
  std::set<int64_t> ids;
  bool moved = false;
  for (int64_t i = 0; i < 200; ++i) {
    int64_t id = s.At(i, 0).AsInt();
    ids.insert(id);
    if (id != i) moved = true;
  }
  EXPECT_EQ(ids.size(), 200u);
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace gola
