// Independent exact answers for every query the benchmark runs, computed
// with plain loops over the generated columns. Nothing here calls the
// engine's parser, planner or executors: the only engine types touched are
// the storage containers the generators return, read column by column.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// Output rows keyed by the row's formatted group key (see FormatKey).
using Rows = std::map<std::string, std::vector<double>>;

/// The expected answer of one query.
struct Answer {
  std::vector<std::string> keys;    // group-key output columns, in order
  std::vector<std::string> values;  // aggregate output columns, in order
  /// The exact final answer, after HAVING / ORDER BY ... LIMIT.
  Rows rows;
  /// The exact value of every group before HAVING and LIMIT: an
  /// intermediate estimate may show a group the final answer drops, and its
  /// CI is still checked against that group's exact value.
  Rows all_groups;
};

struct ConvivaColumns {
  std::vector<int64_t> ad_id, start_hour;
  std::vector<std::string> geo;
  std::vector<double> buffer_time, play_time, join_failure_rate, bitrate_kbps;
};

struct TpchColumns {
  std::vector<int64_t> custkey, partkey, suppkey, shipdate;
  std::vector<double> quantity, extendedprice, availqty, supplycost;
  std::vector<std::string> container;
};

ConvivaColumns ExtractConviva(const gola::Table& table);
TpchColumns ExtractTpch(const gola::Table& table);

/// Group-key parts are joined with '|'; numbers print as %.17g of their
/// double value, so an INT64 key and its JSON rendering format alike.
std::string FormatNumber(double v);

Answer RefSbi(const ConvivaColumns& c);
Answer RefC1(const ConvivaColumns& c);
Answer RefC2(const ConvivaColumns& c);
Answer RefC3(const ConvivaColumns& c);
Answer RefQ11(const TpchColumns& t);
Answer RefQ17(const TpchColumns& t);
Answer RefQ18(const TpchColumns& t);
Answer RefQ20(const TpchColumns& t);

// Dashboard panels (SQL in main.cc, next to the workload definitions).
Answer RefGeoBuffer(const ConvivaColumns& c);
Answer RefUsHourly(const ConvivaColumns& c);
Answer RefEveningAds(const ConvivaColumns& c);
Answer RefHdQuality(const ConvivaColumns& c);

/// Relative tolerance for comparing an engine value with the reference:
/// the two sum floating-point values in different orders.
constexpr double kRelTolerance = 1e-9;

bool Close(double expected, double observed);

/// Compares observed rows with the expected final answer: the same group
/// keys, and every value within kRelTolerance. Returns one line per
/// mismatch (at most `max_lines`), empty when they agree.
std::vector<std::string> Diff(const Answer& expected, const Rows& observed,
                              size_t max_lines = 5);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
