// The one serializer of the per-batch event. Every view of an OnlineUpdate
// — the convergence JSONL row, the /statusz entry, the SSE `update` event —
// renders the fields they share through UpdateJson and appends only its
// own, so a key means the same thing with the same value everywhere.
#ifndef GOLA_GOLA_UPDATE_JSON_H_
#define GOLA_GOLA_UPDATE_JSON_H_

#include <string>

#include "gola/controller.h"

namespace gola {

/// Per-phase seconds and pipeline volume as a JSON object:
/// {"scan_seconds", "envelope_check_seconds", "delta_exec_seconds",
/// "emit_seconds", "rebuild_seconds", "materialize_seconds", "morsels",
/// "rows_in", "rows_folded", "rows_uncertain", "failure_cause"}. One
/// rendering for an update's per-batch stats and the wide event's
/// cumulative ones.
std::string QueryStatsJson(const obs::QueryStats& stats);

/// The headline cell as members (no braces): "estimate", "ci_lo", "ci_hi"
/// and "rsd", each null when absent — an absent RSD must never read as 0.
std::string HeadlineJson(const HeadlineCell& headline);

/// The members every view of `update` shares, comma-separated and without
/// the enclosing braces, so a view wraps them with its own fields:
/// `"{" + own + ", " + UpdateJson(update) + "}"`. Keys: batch_index,
/// total_batches, fraction_processed, scale, max_rsd, uncertain_tuples,
/// uncertain_groups, recomputes, batch_seconds, elapsed_seconds,
/// degradation, result_rows, the headline cell (estimate, ci_lo, ci_hi,
/// rsd — null when absent, never 0), stats (QueryStatsJson), groups and
/// slo. Non-finite numbers render as null.
std::string UpdateJson(const OnlineUpdate& update);

}  // namespace gola

#endif  // GOLA_GOLA_UPDATE_JSON_H_
