// Output checks shared by the in-process and HTTP paths: turning an engine
// result (a Table, or its JSON rendering in an SSE event) into reference
// Rows, the per-update properties every stream must keep, and CI coverage
// against the reference's exact group values.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "http_client.h"
#include "reference.h"
#include "storage/table.h"

namespace perfbench {

/// Appends to a list of problems; an operation with any problem failed.
using Problems = std::vector<std::string>;

/// The key and value columns `answer` names, read out of an engine result.
Rows RowsOf(const gola::Table& result, const Answer& answer, Problems* problems);
/// Same for a {"columns": [...], "rows": [[...]]} JSON result.
Rows RowsOfJson(const Json& result, const Answer& answer, Problems* problems);

/// What one update of a stream looked like, for checks across updates.
struct UpdateView {
  int batch_index = 0;
  int total_batches = 0;
  double fraction = 0;
  double scale = 0;
  double max_rsd = 0;
};

/// Checks one update against the previous one of the same stream:
/// `batch_index` rises (by exactly one when `gapless`, i.e. in-process),
/// `fraction_processed` rises strictly, `max_rsd` is finite and >= 0.
void CheckProgress(const UpdateView& prev, const UpdateView& cur, bool gapless,
                   Problems* problems);
/// The final update: every batch processed, fraction 1 and scale 1.
void CheckFinal(const UpdateView& last, int expected_batches, Problems* problems);

/// Every `<col>_rsd` cell finite and >= 0, and every `<col>_lo` <= `<col>_hi`.
void CheckCompanions(const gola::Table& result, Problems* problems);
void CheckCompanionsJson(const Json& result, Problems* problems);

/// (update, cell) pairs whose CI [lo, hi] holds the exact group value.
struct Coverage {
  int64_t hits = 0;
  int64_t cells = 0;
  void Add(const Coverage& o) {
    hits += o.hits;
    cells += o.cells;
  }
  double ratio() const { return cells == 0 ? 1.0 : static_cast<double>(hits) / cells; }
};

/// Counts every CI-carrying cell of `result` whose group the reference
/// knows (groups an early estimate invents have no exact value to hold).
void AddCoverage(const gola::Table& result, const Answer& answer, Coverage* cov);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
