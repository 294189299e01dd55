// The one JSONL format and the one writer behind it. Two artifacts share
// it: the convergence trajectory (GolaOptions::convergence_path, one
// `"kind": "update"` row per OnlineUpdate — the §5/Figure-3 data that
// tools/plot_convergence.py plots) and the wide-event query log
// (GOLA_QUERY_LOG_PATH, one `"kind": "query_wide_event"` row per finished
// session — identity, options, SLO crossings, cumulative QueryStats,
// lifecycle events, final estimate). Every row carries
// `"schema": kJsonlSchema`. The members both kinds have (the headline
// estimate/ci_lo/ci_hi/rsd, stats, groups, slo) are rendered by the same
// functions (gola/update_json.h, obs::SloJson), so they read alike; a wide
// event's `stats` are summed over the session, an update row's are per
// batch.
#ifndef GOLA_OBS_JSONL_H_
#define GOLA_OBS_JSONL_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gola {
namespace obs {

/// Version of the row layout above; bump on any key rename or removal.
inline constexpr int kJsonlSchema = 1;

/// One timestamped lifecycle event inside a session (seconds since
/// submit): "scan_attach", "degrade:reduced_replicates", "checkpoint",
/// "cancel_requested", and watchdog alerts by kind.
struct QueryLogEvent {
  double seconds = 0;
  std::string name;
};

/// Events as a JSON array: [{"seconds": 0.01, "name": "scan_attach"}, ...].
std::string QueryLogEventsJson(const std::vector<QueryLogEvent>& events);

/// Append-only JSONL sink. Each row is written with a single fwrite +
/// fflush under the writer's mutex, so concurrent writers never
/// interleave lines and a crash loses at most the in-flight row.
class JsonlWriter {
 public:
  JsonlWriter() = default;
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  /// Opens `path`, closing any previous file: `truncate` starts a fresh
  /// file (one query trajectory per file), otherwise rows are appended.
  /// An empty path just closes. False when the file cannot be opened.
  bool Open(const std::string& path, bool truncate = false);
  void Close();

  bool enabled() const;

  /// Writes one JSON object as one line. No-op when closed.
  void Append(std::string_view object);

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
};

/// Process-wide wide-event sink, opened (appending) from
/// GOLA_QUERY_LOG_PATH on first use; unset → disabled at the cost of one
/// branch per finished session.
JsonlWriter& QueryLog();

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_JSONL_H_
