// Accuracy-SLO tracking: the number G-OLA actually sells is not batches per
// second but *wall time until the estimate is good enough*. An
// AccuracySloTracker watches one query's max-RSD trajectory and records the
// first instant each accuracy target (RSD ≤ 5%, 2%, 1% by default) is
// reached. Those crossing times feed three consumers: the labeled
// `gola_slo_time_to_rsd_us{target=...}` histograms (fleet-level
// percentiles), the wide-event query log (per-query ground truth the
// BlinkDB-style adaptive tuner of ROADMAP item 2 will verify against), and
// bench_server's ttfe/time-to-ε counters — so bench and production report
// the same number from the same code path.
#ifndef GOLA_OBS_SLO_H_
#define GOLA_OBS_SLO_H_

#include <cstddef>
#include <string>
#include <vector>

namespace gola {
namespace obs {

/// One accuracy target and when it was first met. `seconds` is wall time
/// from the tracker's epoch (query start); -1 while unmet.
struct SloCrossing {
  double target_rsd = 0;
  double seconds = -1;
  bool met = false;
};

/// The crossings as a JSON array:
/// [{"target_rsd": 0.05, "met": true, "seconds": 0.12}, ...].
std::string SloJson(const std::vector<SloCrossing>& crossings);

/// Records the first crossing of each RSD target. Crossings are monotone by
/// construction: once a target is met its time never changes, even if a
/// later recompute pushes the RSD back above the target (the SLO question
/// is "when did the user first see an estimate this good", not "when did it
/// last hold"). Not thread-safe — one tracker per query, observed from the
/// query's own step path.
class AccuracySloTracker {
 public:
  /// Targets are de-duplicated and sorted loosest-first. The defaults are
  /// the ladder the /metrics histograms aggregate across sessions.
  explicit AccuracySloTracker(
      std::vector<double> rsd_targets = {0.05, 0.02, 0.01});

  /// Observes one refinement step. `elapsed_seconds` must be nondecreasing
  /// across calls (it is clamped up to the previous value otherwise, so a
  /// caller mixing clock bases cannot produce a non-monotone record).
  /// `has_estimate` gates recording: an empty result has no error to judge.
  /// Returns the indexes (into crossings()) of targets newly met by this
  /// observation — the caller exports exactly those to the histograms, so
  /// each crossing is recorded once.
  std::vector<size_t> Observe(double elapsed_seconds, double max_rsd,
                              bool has_estimate);

  const std::vector<SloCrossing>& crossings() const { return crossings_; }

  /// First-crossing time for an exact target value; -1 when unmet (or the
  /// target is not tracked).
  double seconds_to_rsd(double target) const;

  /// True once every tracked target has been met.
  bool all_met() const;

 private:
  std::vector<SloCrossing> crossings_;
  double last_elapsed_ = 0;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_SLO_H_
