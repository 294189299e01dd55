#include "obs/slo.h"

#include <algorithm>

#include "common/string_util.h"

namespace gola {
namespace obs {

std::string SloJson(const std::vector<SloCrossing>& crossings) {
  std::string out = "[";
  for (size_t i = 0; i < crossings.size(); ++i) {
    const SloCrossing& c = crossings[i];
    if (i) out += ", ";
    out += Format("{\"target_rsd\": %.6g, \"met\": %s, \"seconds\": %.6g}",
                  c.target_rsd, c.met ? "true" : "false", c.seconds);
  }
  return out + "]";
}

AccuracySloTracker::AccuracySloTracker(std::vector<double> rsd_targets) {
  std::sort(rsd_targets.begin(), rsd_targets.end(), std::greater<double>());
  rsd_targets.erase(std::unique(rsd_targets.begin(), rsd_targets.end()),
                    rsd_targets.end());
  crossings_.reserve(rsd_targets.size());
  for (double t : rsd_targets) {
    if (t > 0) crossings_.push_back({t, -1, false});
  }
}

std::vector<size_t> AccuracySloTracker::Observe(double elapsed_seconds,
                                                double max_rsd,
                                                bool has_estimate) {
  last_elapsed_ = std::max(last_elapsed_, elapsed_seconds);
  std::vector<size_t> newly_met;
  if (!has_estimate) return newly_met;
  for (size_t i = 0; i < crossings_.size(); ++i) {
    SloCrossing& c = crossings_[i];
    if (c.met || max_rsd > c.target_rsd) continue;
    c.met = true;
    c.seconds = last_elapsed_;
    newly_met.push_back(i);
  }
  return newly_met;
}

double AccuracySloTracker::seconds_to_rsd(double target) const {
  for (const SloCrossing& c : crossings_) {
    if (c.target_rsd == target) return c.met ? c.seconds : -1;
  }
  return -1;
}

bool AccuracySloTracker::all_met() const {
  for (const SloCrossing& c : crossings_) {
    if (!c.met) return false;
  }
  return true;
}

}  // namespace obs
}  // namespace gola
