#include "storage/partitioner.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/column_source.h"

namespace gola {

namespace {

std::vector<int64_t> FisherYatesPermutation(int64_t n, uint64_t seed) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  for (int64_t i = n - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(i + 1)));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

/// Random chunk order for partition-wise randomness.
std::vector<size_t> ShuffledChunkOrder(size_t num_chunks, uint64_t seed) {
  std::vector<size_t> order(num_chunks);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    size_t j = rng.NextBelow(i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

struct StreamObs {
  obs::Counter* batches;
  obs::Counter* prefetch_hits;
  obs::Counter* prefetch_misses;
};

StreamObs& Obs() {
  static StreamObs o = [] {
    auto& reg = obs::MetricsRegistry::Global();
    StreamObs s;
    s.batches = reg.GetCounter("gola_scan_stream_batches_total");
    s.prefetch_hits = reg.GetCounter("gola_scan_prefetch_hits_total");
    s.prefetch_misses = reg.GetCounter("gola_scan_prefetch_misses_total");
    return s;
  }();
  return o;
}

}  // namespace

Table RandomShuffle(const Table& table, uint64_t seed) {
  // Two data copies total (combine + gather): page-touching copies dominate
  // this operation's cost on large tables, so avoid intermediates.
  Chunk all = table.Combined();
  std::vector<int64_t> perm =
      FisherYatesPermutation(static_cast<int64_t>(all.num_rows()), seed);
  Table out(table.schema());
  out.AppendChunk(all.Take(perm));
  return out;
}

// How many recently served batches a streamed partitioner keeps cached, so
// sessions sharing the scan a few batches apart reuse one gather.
static constexpr int kRetainBatches = 3;

struct MiniBatchPartitioner::Stream {
  Table table;  // the streamed table (a copy shares its ColumnSource)

  struct Entry {
    std::shared_ptr<const Chunk> chunk;
    bool from_prefetch = false;
    bool consumed = false;
  };
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  mutable std::map<int, Entry> cache;
  mutable int want = -1;
  bool stop = false;
  std::thread worker;
};

MiniBatchPartitioner::MiniBatchPartitioner(const Table& table,
                                           const MiniBatchOptions& options) {
  GOLA_CHECK(options.num_batches > 0);
  const size_t nchunks = table.num_chunks();
  const std::shared_ptr<const ColumnSource>& source = table.source();
  total_rows_ = table.num_rows();

  // Row shuffle: a global permutation over the chunks in table order.
  // Partition-wise randomness: a random chunk order, rows kept in place.
  if (options.row_shuffle) {
    plan_.chunk_order.resize(nchunks);
    std::iota(plan_.chunk_order.begin(), plan_.chunk_order.end(), 0);
    plan_.perm = FisherYatesPermutation(total_rows_, options.seed);
  } else {
    plan_.chunk_order = ShuffledChunkOrder(nchunks, options.seed);
  }
  plan_.chunk_starts.reserve(nchunks + 1);
  int64_t acc = 0;
  for (size_t c : plan_.chunk_order) {
    plan_.chunk_starts.push_back(acc);
    acc += source != nullptr ? source->chunk_rows(c)
                             : static_cast<int64_t>(table.chunk(c).num_rows());
  }
  plan_.chunk_starts.push_back(acc);

  int64_t k = options.num_batches;
  int64_t per_batch = total_rows_ / k;
  if (per_batch == 0) per_batch = 1;
  plan_.batch_starts.push_back(0);
  int64_t serial = 0;
  for (int64_t b = 0; b < k && serial < total_rows_; ++b) {
    int64_t len = (b == k - 1) ? (total_rows_ - serial)
                               : std::min(per_batch, total_rows_ - serial);
    serial += len;
    plan_.batch_starts.push_back(serial);
  }
  num_batches_ = static_cast<int>(plan_.batch_starts.size()) - 1;

  if (table.streamed()) {
    stream_ = std::make_unique<Stream>();
    stream_->table = table;
    stream_->worker = std::thread([this] { PrefetchLoop(); });
    return;
  }
  // Gather each batch chunk-wise, never materializing a combined copy of
  // the whole table: full-table copies are page-fault-bound on large
  // inputs, while per-batch gathers stay in allocator-recycled memory.
  batches_.reserve(static_cast<size_t>(num_batches_));
  for (int i = 0; i < num_batches_; ++i) batches_.push_back(GatherBatch(i, table));
}

MiniBatchPartitioner::~MiniBatchPartitioner() {
  if (stream_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(stream_->mu);
    stream_->stop = true;
  }
  stream_->cv.notify_all();
  if (stream_->worker.joinable()) stream_->worker.join();
}

Chunk MiniBatchPartitioner::GatherBatch(int i, const Table& table) const {
  const int64_t begin = plan_.batch_starts[static_cast<size_t>(i)];
  const int64_t end = plan_.batch_starts[static_cast<size_t>(i) + 1];
  const size_t nchunks = plan_.chunk_order.size();
  // Per reordered chunk, the local rows this batch draws from it. Rows
  // within a batch may appear in any order: serials are assigned by batch
  // position, and any fixed assignment preserves uniformity.
  std::vector<std::vector<int64_t>> local(nchunks);
  for (int64_t p = begin; p < end; ++p) {
    int64_t global = plan_.perm.empty() ? p : plan_.perm[static_cast<size_t>(p)];
    // Chunks are near-uniform; binary search keeps this O(log c).
    size_t c = static_cast<size_t>(
        std::upper_bound(plan_.chunk_starts.begin(), plan_.chunk_starts.end(), global) -
        plan_.chunk_starts.begin() - 1);
    local[c].push_back(global - plan_.chunk_starts[c]);
  }
  Chunk batch;
  for (size_t c = 0; c < nchunks; ++c) {
    if (local[c].empty()) continue;
    const size_t chunk = plan_.chunk_order[c];
    if (table.streamed()) {
      auto piece = table.source()->GatherRows(chunk, local[c]);
      GOLA_CHECK(piece.ok()) << "gathering streamed mini-batch: "
                             << piece.status().ToString();
      GOLA_CHECK_OK(batch.Append(*piece));
    } else {
      GOLA_CHECK_OK(batch.Append(table.chunk(chunk).Take(local[c])));
    }
  }
  std::vector<int64_t> serials(static_cast<size_t>(end - begin));
  std::iota(serials.begin(), serials.end(), begin);
  batch.set_serials(std::move(serials));
  return batch;
}

std::shared_ptr<const Chunk> MiniBatchPartitioner::FetchBatch(
    int i, bool record_hit_miss) const {
  Stream& s = *stream_;
  GOLA_CHECK(i >= 0 && i < num_batches_);
  std::shared_ptr<const Chunk> chunk;
  bool was_prefetched = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.cache.find(i);
    if (it != s.cache.end()) {
      chunk = it->second.chunk;
      was_prefetched = it->second.from_prefetch && !it->second.consumed;
      it->second.consumed = true;
    }
  }
  if (chunk == nullptr) {
    chunk = std::make_shared<const Chunk>(GatherBatch(i, s.table));
  }
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto& e = s.cache[i];
    if (e.chunk == nullptr) e.chunk = chunk;
    e.consumed = true;
    // Retention window: drop batches well behind the cursor; pins held by
    // callers keep their chunks alive regardless.
    for (auto it = s.cache.begin(); it != s.cache.end();) {
      if (it->first < i - kRetainBatches) {
        it = s.cache.erase(it);
      } else {
        ++it;
      }
    }
    // Overlap the next batch's gather/decode with the caller's estimation.
    if (i + 1 < num_batches_ && s.cache.find(i + 1) == s.cache.end()) {
      s.want = i + 1;
      s.cv.notify_one();
    }
  }
  if (record_hit_miss && obs::MetricsEnabled()) {
    Obs().batches->Increment();
    (was_prefetched ? Obs().prefetch_hits : Obs().prefetch_misses)->Increment();
  }
  return chunk;
}

void MiniBatchPartitioner::PrefetchLoop() {
  Stream& s = *stream_;
  for (;;) {
    int target = -1;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [&] { return s.stop || s.want >= 0; });
      if (s.stop) return;
      target = s.want;
      s.want = -1;
      if (s.cache.find(target) != s.cache.end()) continue;
    }
    auto chunk = std::make_shared<const Chunk>(GatherBatch(target, s.table));
    {
      std::lock_guard<std::mutex> lock(s.mu);
      auto& e = s.cache[target];
      if (e.chunk == nullptr) {
        e.chunk = std::move(chunk);
        e.from_prefetch = true;
      }
    }
  }
}

std::shared_ptr<const Chunk> MiniBatchPartitioner::BatchShared(int i) const {
  if (stream_ == nullptr) {
    // Alias into the eagerly materialized vector; the partitioner outlives
    // all engine uses of its batches.
    return {std::shared_ptr<const Chunk>{},
            &batches_[static_cast<size_t>(i)]};
  }
  return FetchBatch(i, /*record_hit_miss=*/true);
}

std::vector<std::shared_ptr<const Chunk>> MiniBatchPartitioner::BatchesSharedUpTo(
    int upto) const {
  std::vector<std::shared_ptr<const Chunk>> out;
  out.reserve(static_cast<size_t>(upto));
  for (int i = 0; i < upto && i < num_batches_; ++i) {
    if (stream_ == nullptr) {
      out.push_back({std::shared_ptr<const Chunk>{},
                     &batches_[static_cast<size_t>(i)]});
    } else {
      out.push_back(FetchBatch(i, /*record_hit_miss=*/false));
    }
  }
  return out;
}

}  // namespace gola
