// Shared test helpers: the one table / update comparator every suite uses,
// and a drain loop that collects an online query's full update stream.
//
// Comparison is bitwise by default: doubles by bit pattern (any NaN equals
// any NaN, -0.0 differs from 0.0), ints as ints, strings and bools exactly,
// NULL only to NULL, and a cell's type must match. Value::operator== would
// widen ints to double (rounding above 2^53) and equate -0.0 with 0.0.
#ifndef GOLA_TESTS_TEST_UTIL_H_
#define GOLA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "gola/gola.h"

namespace gola {
namespace test {

/// A cell rendered for a failure message: doubles with every digit.
inline std::string Describe(const Value& v) {
  if (v.type() == TypeId::kFloat64) return Format("%.17g", v.AsFloat());
  if (v.type() == TypeId::kString) return "'" + v.AsString() + "'";
  return v.ToString();
}

inline bool DoublesBitIdentical(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Cell equality. `rel_tol` = 0 is bitwise; rel_tol > 0 lets numeric cells
/// of either numeric type differ by rel_tol · (1 + |want|).
inline bool CellsEqual(const Value& got, const Value& want, double rel_tol) {
  if (rel_tol > 0 && IsNumeric(got.type()) && IsNumeric(want.type())) {
    double g = *got.ToDouble();
    double w = *want.ToDouble();
    if (std::isnan(g) || std::isnan(w)) return std::isnan(g) && std::isnan(w);
    return std::fabs(g - w) <= rel_tol * (1 + std::fabs(w));
  }
  if (got.type() != want.type()) return false;
  switch (want.type()) {
    case TypeId::kNull: return true;
    case TypeId::kBool: return got.AsBool() == want.AsBool();
    case TypeId::kInt64: return got.AsInt() == want.AsInt();
    case TypeId::kFloat64: return DoublesBitIdentical(got.AsFloat(), want.AsFloat());
    case TypeId::kString: return got.AsString() == want.AsString();
  }
  return false;
}

/// The table comparator. With rel_tol = 0 (the default) `got` must be
/// bit-identical to `want`: same schema, same rows, every cell bitwise
/// equal. rel_tol > 0 is only for an online answer against a batch-engine
/// answer, whose float sums run in another order: numeric cells may differ
/// by the tolerance, and `got` may carry trailing columns `want` lacks
/// (the online `_lo` / `_hi` / `_rsd` companions).
inline ::testing::AssertionResult TablesEqual(const Table& got, const Table& want,
                                              double rel_tol = 0) {
  const size_t fields = want.schema()->num_fields();
  if (rel_tol == 0 ? !got.schema()->Equals(*want.schema())
                   : got.schema()->num_fields() < fields) {
    return ::testing::AssertionFailure()
           << "schemas differ: " << got.schema()->ToString() << " vs "
           << want.schema()->ToString();
  }
  for (size_t c = 0; c < fields; ++c) {
    if (got.schema()->field(c).name != want.schema()->field(c).name) {
      return ::testing::AssertionFailure()
             << "column " << c << " is " << got.schema()->field(c).name
             << ", want " << want.schema()->field(c).name;
    }
  }
  if (got.num_rows() != want.num_rows()) {
    return ::testing::AssertionFailure() << got.num_rows() << " rows, want "
                                         << want.num_rows();
  }
  for (int64_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < fields; ++c) {
      Value g = got.At(r, static_cast<int>(c));
      Value w = want.At(r, static_cast<int>(c));
      if (!CellsEqual(g, w, rel_tol)) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << want.schema()->field(c).name << ": "
               << Describe(g) << " vs " << Describe(w);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// `online` without its `_lo` / `_hi` / `_rsd` CI companion columns: the
/// point estimates alone. A rebuild re-installs classification envelopes
/// at another batch, so replicate state (and the CI cells) may diverge
/// while the converged estimates must stay exact.
inline Table EstimateColumns(const Table& online) {
  auto is_companion = [](const std::string& name) {
    for (const char* suffix : {"_lo", "_hi", "_rsd"}) {
      const size_t n = std::strlen(suffix);
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) return true;
    }
    return false;
  };
  std::vector<Field> fields;
  std::vector<size_t> keep;
  for (size_t c = 0; c < online.schema()->num_fields(); ++c) {
    if (is_companion(online.schema()->field(c).name)) continue;
    fields.push_back(online.schema()->field(c));
    keep.push_back(c);
  }
  auto schema = std::make_shared<Schema>(fields);
  Table out(schema);
  for (const Chunk& chunk : online.chunks()) {
    std::vector<Column> columns;
    for (size_t c : keep) columns.push_back(chunk.column(c));
    out.AppendChunk(Chunk(schema, std::move(columns)));
  }
  return out;
}

/// Every non-timing field of two updates, bitwise.
inline ::testing::AssertionResult UpdatesEqual(const OnlineUpdate& got,
                                               const OnlineUpdate& want) {
  auto differs = [](const char* field, const std::string& g, const std::string& w) {
    return ::testing::AssertionFailure() << field << " " << g << " vs " << w;
  };
  auto num = [](double v) { return Format("%.17g", v); };
  auto integer = [](int64_t v) { return std::to_string(v); };
  if (got.batch_index != want.batch_index) {
    return differs("batch_index", integer(got.batch_index), integer(want.batch_index));
  }
  if (got.total_batches != want.total_batches) {
    return differs("total_batches", integer(got.total_batches),
                   integer(want.total_batches));
  }
  if (!DoublesBitIdentical(got.fraction_processed, want.fraction_processed)) {
    return differs("fraction_processed", num(got.fraction_processed),
                   num(want.fraction_processed));
  }
  if (!DoublesBitIdentical(got.scale, want.scale)) {
    return differs("scale", num(got.scale), num(want.scale));
  }
  if (!DoublesBitIdentical(got.max_rsd, want.max_rsd)) {
    return differs("max_rsd", num(got.max_rsd), num(want.max_rsd));
  }
  if (got.uncertain_tuples != want.uncertain_tuples) {
    return differs("uncertain_tuples", integer(got.uncertain_tuples),
                   integer(want.uncertain_tuples));
  }
  if (got.uncertain_groups != want.uncertain_groups) {
    return differs("uncertain_groups", integer(got.uncertain_groups),
                   integer(want.uncertain_groups));
  }
  if (got.recomputes_so_far != want.recomputes_so_far) {
    return differs("recomputes_so_far", integer(got.recomputes_so_far),
                   integer(want.recomputes_so_far));
  }
  ::testing::AssertionResult tables = TablesEqual(got.result, want.result);
  if (!tables) return ::testing::AssertionFailure() << "result " << tables.message();
  return ::testing::AssertionSuccess();
}

/// Two update streams, update by update.
inline ::testing::AssertionResult StreamsEqual(const std::vector<OnlineUpdate>& got,
                                               const std::vector<OnlineUpdate>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " updates, want "
                                         << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ::testing::AssertionResult same = UpdatesEqual(got[i], want[i]);
    if (!same) {
      return ::testing::AssertionFailure() << "update " << i << ": " << same.message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Steps `online` to the end, collecting every update; the first failing
/// Step's status is returned instead.
inline Result<std::vector<OnlineUpdate>> Drain(OnlineQueryExecutor* online) {
  std::vector<OnlineUpdate> updates;
  while (!online->done()) {
    GOLA_ASSIGN_OR_RETURN(OnlineUpdate update, online->Step());
    updates.push_back(std::move(update));
  }
  return updates;
}

}  // namespace test
}  // namespace gola

#endif  // GOLA_TESTS_TEST_UTIL_H_
