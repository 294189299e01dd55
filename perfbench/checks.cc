#include "checks.h"

#include <cmath>
#include <functional>

namespace perfbench {

namespace {

/// One result cell, whichever way the engine delivered it.
struct Cell {
  enum class Kind { kNull, kNumber, kString } kind = Kind::kNull;
  double number = 0;
  std::string string;
};

/// A result table as column names plus a cell accessor, so the Table and
/// the JSON renderings share one set of checks.
struct Grid {
  std::vector<std::string> names;
  size_t rows = 0;
  std::function<Cell(size_t row, size_t col)> at;

  int Index(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

Grid TableGrid(const gola::Table& t) {
  Grid g;
  if (t.schema() != nullptr) {
    for (const auto& f : t.schema()->fields()) g.names.push_back(f.name);
  }
  g.rows = static_cast<size_t>(t.num_rows());
  g.at = [&t](size_t row, size_t col) {
    const gola::Value v = t.At(static_cast<int64_t>(row), static_cast<int>(col));
    Cell c;
    if (v.is_null()) return c;
    if (v.type() == gola::TypeId::kString) {
      c.kind = Cell::Kind::kString;
      c.string = v.AsString();
      return c;
    }
    auto d = v.ToDouble();
    if (d.ok()) {
      c.kind = Cell::Kind::kNumber;
      c.number = *d;
    }
    return c;
  };
  return g;
}

Grid JsonGrid(const Json& result, Problems* problems) {
  Grid g;
  const Json* columns = result.Find("columns");
  const Json* rows = result.Find("rows");
  if (columns == nullptr || rows == nullptr) {
    problems->push_back("result JSON lacks columns/rows");
    return g;
  }
  for (const Json& name : columns->array) g.names.push_back(name.string);
  g.rows = rows->array.size();
  g.at = [rows](size_t row, size_t col) {
    Cell c;
    const auto& cells = rows->array[row].array;
    if (col >= cells.size()) return c;
    const Json& v = cells[col];
    if (v.type == Json::Type::kString) {
      c.kind = Cell::Kind::kString;
      c.string = v.string;
    } else if (v.type == Json::Type::kNumber) {
      c.kind = Cell::Kind::kNumber;
      c.number = v.number;
    }
    return c;
  };
  return g;
}

std::string KeyPart(const Cell& c) {
  switch (c.kind) {
    case Cell::Kind::kString: return c.string;
    case Cell::Kind::kNumber: return FormatNumber(c.number);
    default: return "NULL";
  }
}

double Number(const Cell& c) { return c.kind == Cell::Kind::kNumber ? c.number : NAN; }

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Rows RowsOfGrid(const Grid& g, const Answer& answer, Problems* problems) {
  Rows out;
  std::vector<int> keys, values;
  for (const auto& name : answer.keys) keys.push_back(g.Index(name));
  for (const auto& name : answer.values) values.push_back(g.Index(name));
  for (size_t i = 0; i < keys.size() + values.size(); ++i) {
    const int idx = i < keys.size() ? keys[i] : values[i - keys.size()];
    if (idx < 0) {
      problems->push_back("result lacks column " +
                          (i < keys.size() ? answer.keys[i]
                                           : answer.values[i - keys.size()]));
      return out;
    }
  }
  for (size_t r = 0; r < g.rows; ++r) {
    std::string key;
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k > 0) key += "|";
      key += KeyPart(g.at(r, static_cast<size_t>(keys[k])));
    }
    std::vector<double> row;
    for (int v : values) row.push_back(Number(g.at(r, static_cast<size_t>(v))));
    if (!out.emplace(key, std::move(row)).second) {
      problems->push_back("duplicate group [" + key + "]");
    }
  }
  return out;
}

void CheckCompanionsGrid(const Grid& g, Problems* problems) {
  for (size_t col = 0; col < g.names.size(); ++col) {
    const std::string& name = g.names[col];
    if (EndsWith(name, "_rsd")) {
      for (size_t r = 0; r < g.rows; ++r) {
        const double rsd = Number(g.at(r, col));
        if (!(std::isfinite(rsd) && rsd >= 0)) {
          problems->push_back(name + " row " + std::to_string(r) +
                              " is not finite and >= 0: " + FormatNumber(rsd));
          return;
        }
      }
    } else if (EndsWith(name, "_lo")) {
      const int hi = g.Index(name.substr(0, name.size() - 3) + "_hi");
      if (hi < 0) {
        problems->push_back(name + " has no _hi companion");
        return;
      }
      for (size_t r = 0; r < g.rows; ++r) {
        const double lo = Number(g.at(r, col));
        const double h = Number(g.at(r, static_cast<size_t>(hi)));
        if (!(lo <= h)) {
          problems->push_back(name + " row " + std::to_string(r) + ": lo " +
                              FormatNumber(lo) + " > hi " + FormatNumber(h));
          return;
        }
      }
    }
  }
}

}  // namespace

Rows RowsOf(const gola::Table& result, const Answer& answer, Problems* problems) {
  return RowsOfGrid(TableGrid(result), answer, problems);
}

Rows RowsOfJson(const Json& result, const Answer& answer, Problems* problems) {
  return RowsOfGrid(JsonGrid(result, problems), answer, problems);
}

void CheckProgress(const UpdateView& prev, const UpdateView& cur, bool gapless,
                   Problems* problems) {
  const bool index_ok = gapless ? cur.batch_index == prev.batch_index + 1
                                : cur.batch_index > prev.batch_index;
  if (!index_ok) {
    problems->push_back("batch_index " + std::to_string(cur.batch_index) +
                        " after " + std::to_string(prev.batch_index));
  }
  if (!(cur.fraction > prev.fraction && cur.fraction <= 1)) {
    problems->push_back("fraction_processed " + FormatNumber(cur.fraction) +
                        " after " + FormatNumber(prev.fraction));
  }
  if (!(std::isfinite(cur.max_rsd) && cur.max_rsd >= 0)) {
    problems->push_back("max_rsd " + FormatNumber(cur.max_rsd) + " at batch " +
                        std::to_string(cur.batch_index));
  }
}

void CheckFinal(const UpdateView& last, int expected_batches, Problems* problems) {
  if (last.batch_index != expected_batches || last.total_batches != expected_batches) {
    problems->push_back("final update is batch " + std::to_string(last.batch_index) +
                        "/" + std::to_string(last.total_batches) + ", expected " +
                        std::to_string(expected_batches));
  }
  if (last.fraction != 1) {
    problems->push_back("final fraction_processed " + FormatNumber(last.fraction));
  }
  if (last.scale != 1) problems->push_back("final scale " + FormatNumber(last.scale));
}

void CheckCompanions(const gola::Table& result, Problems* problems) {
  CheckCompanionsGrid(TableGrid(result), problems);
}

void CheckCompanionsJson(const Json& result, Problems* problems) {
  CheckCompanionsGrid(JsonGrid(result, problems), problems);
}

void AddCoverage(const gola::Table& result, const Answer& answer, Coverage* cov) {
  const Grid g = TableGrid(result);
  std::vector<int> keys;
  for (const auto& name : answer.keys) {
    keys.push_back(g.Index(name));
    if (keys.back() < 0) return;
  }
  for (size_t v = 0; v < answer.values.size(); ++v) {
    const int lo = g.Index(answer.values[v] + "_lo");
    const int hi = g.Index(answer.values[v] + "_hi");
    if (lo < 0 || hi < 0) continue;
    for (size_t r = 0; r < g.rows; ++r) {
      std::string key;
      for (size_t k = 0; k < keys.size(); ++k) {
        if (k > 0) key += "|";
        key += KeyPart(g.at(r, static_cast<size_t>(keys[k])));
      }
      auto it = answer.all_groups.find(key);
      if (it == answer.all_groups.end()) continue;
      const double exact = it->second[v];
      const double slack = kRelTolerance * std::fabs(exact);
      ++cov->cells;
      if (Number(g.at(r, static_cast<size_t>(lo))) - slack <= exact &&
          exact <= Number(g.at(r, static_cast<size_t>(hi))) + slack) {
        ++cov->hits;
      }
    }
  }
}

}  // namespace perfbench
