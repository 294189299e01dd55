#include "gola/update_json.h"

#include <cmath>

#include "common/string_util.h"

namespace gola {

namespace {

/// `"key": value` with `fmt` for the value; JSON has no inf/nan, so a
/// non-finite value is null.
std::string Member(const char* key, const char* fmt, double value) {
  std::string out = Format("\"%s\": ", key);
  return out + (std::isfinite(value) ? Format(fmt, value) : "null");
}

}  // namespace

std::string QueryStatsJson(const obs::QueryStats& s) {
  std::string out = Format(
      "{\"scan_seconds\": %.6g, \"envelope_check_seconds\": %.6g, "
      "\"delta_exec_seconds\": %.6g, \"emit_seconds\": %.6g, "
      "\"rebuild_seconds\": %.6g, \"materialize_seconds\": %.6g, "
      "\"morsels\": %lld, \"rows_in\": %lld, \"rows_folded\": %lld, "
      "\"rows_uncertain\": %lld, \"failure_cause\": ",
      s.scan_seconds, s.envelope_check_seconds, s.delta_exec_seconds,
      s.emit_seconds, s.rebuild_seconds, s.materialize_seconds,
      static_cast<long long>(s.morsels), static_cast<long long>(s.rows_in),
      static_cast<long long>(s.rows_folded),
      static_cast<long long>(s.rows_uncertain));
  if (s.failure_cause == nullptr) return out + "null}";
  return out + "\"" + JsonEscape(s.failure_cause) + "\"}";
}

std::string HeadlineJson(const HeadlineCell& h) {
  std::string out;
  if (h.has_estimate) {
    out += Member("estimate", "%.10g", h.estimate) + ", ";
    out += Member("ci_lo", "%.10g", h.ci_lo) + ", ";
    out += Member("ci_hi", "%.10g", h.ci_hi) + ", ";
  } else {
    out += "\"estimate\": null, \"ci_lo\": null, \"ci_hi\": null, ";
  }
  return out + (h.has_rsd() ? Member("rsd", "%.8g", h.rsd) : "\"rsd\": null");
}

std::string UpdateJson(const OnlineUpdate& u) {
  std::string out = Format("\"batch_index\": %d, \"total_batches\": %d, ",
                           u.batch_index, u.total_batches);
  out += Member("fraction_processed", "%.8g", u.fraction_processed) + ", ";
  out += Member("scale", "%.8g", u.scale) + ", ";
  out += Member("max_rsd", "%.8g", u.max_rsd) + ", ";
  out += Format(
      "\"uncertain_tuples\": %lld, \"uncertain_groups\": %lld, "
      "\"recomputes\": %d, \"batch_seconds\": %.6g, "
      "\"elapsed_seconds\": %.6g, \"degradation\": \"%s\", "
      "\"result_rows\": %lld, ",
      static_cast<long long>(u.uncertain_tuples),
      static_cast<long long>(u.uncertain_groups), u.recomputes_so_far,
      u.batch_seconds, u.elapsed_seconds, DegradationName(u.degradation),
      static_cast<long long>(u.result_rows));
  out += HeadlineJson(u.headline);
  out += ", \"stats\": " + QueryStatsJson(u.stats);
  out += ", \"groups\": " + u.groups.ToJson();
  out += ", \"slo\": " + obs::SloJson(u.slo);
  return out;
}

}  // namespace gola
