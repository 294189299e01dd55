// Random shuffling and mini-batch partitioning (paper §2, §2.1).
//
// G-OLA requires that any prefix of the processed stream be a uniform random
// sample of the full input. RandomShuffle implements the paper's
// pre-processing tool (a full Fisher-Yates row shuffle); the
// MiniBatchPartitioner then cuts the shuffled stream into k equal batches
// and assigns each row its global serial number (stream position), which
// keys the deterministic bootstrap weights.
//
// Partition-wise randomness (picking whole existing chunks in random order,
// the paper's default) is also provided for data already stored in
// randomly-ordered partitions.
//
// Both modes compute one batch plan up front (row permutation, chunk order,
// chunk starts, batch bounds) and cut batches through one gather. For
// in-memory tables every batch is gathered eagerly at construction, so a
// Step never pays for it. For *streamed* tables (Table::FromSource over a
// compressed segment file) each batch is gathered from the ColumnSource on
// demand — bit-identical to the eager construction — so resident memory
// is the current batch plus estimator state, not the table (ROADMAP item
// 3). A background prefetch thread overlaps the gather/decode of batch i+1
// with the caller's estimation of batch i (PF-OLA's I/O–estimation
// overlap), with hit/miss counters exported through obs.
#ifndef GOLA_STORAGE_PARTITIONER_H_
#define GOLA_STORAGE_PARTITIONER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace gola {

/// Fisher-Yates shuffles all rows of the table (stable chunk size preserved).
Table RandomShuffle(const Table& table, uint64_t seed);

struct MiniBatchOptions {
  int num_batches = 10;
  /// When true, rows are globally shuffled before cutting batches; when
  /// false only chunk order is randomized (assumes attributes are not
  /// correlated with partitions, as discussed in §2).
  bool row_shuffle = true;
  uint64_t seed = 42;
};

/// Splits a table into `num_batches` uniform random mini-batches.
///
/// Every produced chunk carries row serials 0..N-1 in stream order; batch i
/// holds serials [i*n, (i+1)*n). The last batch absorbs the remainder so
/// batch sizes differ by at most num_batches-1 rows.
class MiniBatchPartitioner {
 public:
  MiniBatchPartitioner(const Table& table, const MiniBatchOptions& options);
  ~MiniBatchPartitioner();

  MiniBatchPartitioner(const MiniBatchPartitioner&) = delete;
  MiniBatchPartitioner& operator=(const MiniBatchPartitioner&) = delete;

  int num_batches() const { return num_batches_; }
  int64_t total_rows() const { return total_rows_; }

  /// True when batches are gathered on demand from a ColumnSource instead
  /// of being held resident.
  bool streaming() const { return stream_ != nullptr; }

  /// The i-th mini-batch (serials attached). The chunk stays alive as long
  /// as the returned pointer does.
  std::shared_ptr<const Chunk> BatchShared(int i) const;

  /// All batches in [0, upto) — used by recompute paths and baselines.
  /// The pins keep every returned chunk alive.
  std::vector<std::shared_ptr<const Chunk>> BatchesSharedUpTo(int upto) const;

 private:
  /// Stream order and batch bounds: a pure function of the table's chunk
  /// sizes and the options, shared by both modes.
  struct Plan {
    std::vector<int64_t> perm;          // stream position -> row; empty => identity
    std::vector<size_t> chunk_order;    // reordered position -> table chunk
    std::vector<int64_t> chunk_starts;  // rows before each reordered chunk, + total
    std::vector<int64_t> batch_starts;  // serial bounds, num_batches + 1
  };
  struct Stream;

  /// Rows of batch i with their serials, gathered chunk by chunk from
  /// `table` (through its ColumnSource when the table is streamed).
  Chunk GatherBatch(int i, const Table& table) const;
  std::shared_ptr<const Chunk> FetchBatch(int i, bool record_hit_miss) const;
  void PrefetchLoop();

  Plan plan_;
  std::vector<Chunk> batches_;  // eager mode only
  std::unique_ptr<Stream> stream_;
  int64_t total_rows_ = 0;
  int num_batches_ = 0;
};

}  // namespace gola

#endif  // GOLA_STORAGE_PARTITIONER_H_
