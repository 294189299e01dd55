#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

const gola::Column& ColumnOf(const gola::Chunk& chunk, const std::string& name) {
  auto col = chunk.ColumnByName(name);
  if (!col.ok()) throw std::runtime_error("generated table lacks column " + name);
  return **col;
}

template <typename T>
void AppendAll(std::vector<T>* out, const std::vector<T>& in) {
  out->insert(out->end(), in.begin(), in.end());
}

/// Row indices ordered by `before`, cut at `limit` (ORDER BY ... LIMIT).
template <typename Key, typename Less>
std::vector<Key> TopN(std::vector<Key> keys, size_t limit, Less before) {
  std::sort(keys.begin(), keys.end(), before);
  if (keys.size() > limit) keys.resize(limit);
  return keys;
}

Answer Scalar(std::vector<std::string> values, std::vector<double> row) {
  Answer a;
  a.values = std::move(values);
  a.rows[""] = row;
  a.all_groups[""] = std::move(row);
  return a;
}

struct SumCount {
  double sum = 0;
  int64_t count = 0;
  double avg() const { return sum / static_cast<double>(count); }
};

/// The "abnormal session" predicate of SBI, C1 and C2: buffering above the
/// table-wide average.
std::vector<bool> AboveAverageBuffering(const ConvivaColumns& c) {
  double sum = 0;
  for (double b : c.buffer_time) sum += b;
  const double avg = sum / static_cast<double>(c.buffer_time.size());
  std::vector<bool> out(c.buffer_time.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = c.buffer_time[i] > avg;
  return out;
}

}  // namespace

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

ConvivaColumns ExtractConviva(const gola::Table& table) {
  ConvivaColumns c;
  for (const gola::Chunk& chunk : table.chunks()) {
    AppendAll(&c.ad_id, ColumnOf(chunk, "ad_id").ints());
    AppendAll(&c.start_hour, ColumnOf(chunk, "start_hour").ints());
    AppendAll(&c.geo, ColumnOf(chunk, "geo").strings());
    AppendAll(&c.buffer_time, ColumnOf(chunk, "buffer_time").floats());
    AppendAll(&c.play_time, ColumnOf(chunk, "play_time").floats());
    AppendAll(&c.join_failure_rate, ColumnOf(chunk, "join_failure_rate").floats());
    AppendAll(&c.bitrate_kbps, ColumnOf(chunk, "bitrate_kbps").floats());
  }
  return c;
}

TpchColumns ExtractTpch(const gola::Table& table) {
  TpchColumns t;
  for (const gola::Chunk& chunk : table.chunks()) {
    AppendAll(&t.custkey, ColumnOf(chunk, "custkey").ints());
    AppendAll(&t.partkey, ColumnOf(chunk, "partkey").ints());
    AppendAll(&t.suppkey, ColumnOf(chunk, "suppkey").ints());
    AppendAll(&t.shipdate, ColumnOf(chunk, "shipdate").ints());
    AppendAll(&t.quantity, ColumnOf(chunk, "quantity").floats());
    AppendAll(&t.extendedprice, ColumnOf(chunk, "extendedprice").floats());
    AppendAll(&t.availqty, ColumnOf(chunk, "availqty").floats());
    AppendAll(&t.supplycost, ColumnOf(chunk, "supplycost").floats());
    AppendAll(&t.container, ColumnOf(chunk, "container").strings());
  }
  return t;
}

// SELECT AVG(play_time) AS avg_play FROM conviva
// WHERE buffer_time > (SELECT AVG(buffer_time) FROM conviva)
Answer RefSbi(const ConvivaColumns& c) {
  const std::vector<bool> abnormal = AboveAverageBuffering(c);
  SumCount play;
  for (size_t i = 0; i < abnormal.size(); ++i) {
    if (!abnormal[i]) continue;
    play.sum += c.play_time[i];
    ++play.count;
  }
  return Scalar({"avg_play"}, {play.avg()});
}

// SELECT bucket(play_time, 60) AS play_bucket, COUNT(*) AS sessions ...
// WHERE <abnormal> GROUP BY bucket ORDER BY play_bucket LIMIT 20
Answer RefC1(const ConvivaColumns& c) {
  const std::vector<bool> abnormal = AboveAverageBuffering(c);
  std::map<double, int64_t> buckets;  // ordered ascending, as ORDER BY asks
  for (size_t i = 0; i < abnormal.size(); ++i) {
    if (abnormal[i]) ++buckets[std::floor(c.play_time[i] / 60.0) * 60.0];
  }
  Answer a;
  a.keys = {"play_bucket"};
  a.values = {"sessions"};
  for (const auto& [bucket, count] : buckets) {
    std::vector<double> row = {static_cast<double>(count)};
    if (a.rows.size() < 20) a.rows[FormatNumber(bucket)] = row;
    a.all_groups[FormatNumber(bucket)] = row;
  }
  return a;
}

// SELECT geo, AVG(join_failure_rate) AS jfr, COUNT(*) AS sessions ...
// WHERE <abnormal> GROUP BY geo
Answer RefC2(const ConvivaColumns& c) {
  const std::vector<bool> abnormal = AboveAverageBuffering(c);
  std::map<std::string, SumCount> geos;
  for (size_t i = 0; i < abnormal.size(); ++i) {
    if (!abnormal[i]) continue;
    SumCount& g = geos[c.geo[i]];
    g.sum += c.join_failure_rate[i];
    ++g.count;
  }
  Answer a;
  a.keys = {"geo"};
  a.values = {"jfr", "sessions"};
  for (const auto& [geo, g] : geos) {
    a.rows[geo] = {g.avg(), static_cast<double>(g.count)};
  }
  a.all_groups = a.rows;
  return a;
}

// SELECT ad_id, COUNT(*) AS abnormal_sessions, AVG(play_time) AS avg_play
// FROM conviva s WHERE buffer_time > 1.5 * (per-ad AVG(buffer_time))
// GROUP BY ad_id ORDER BY abnormal_sessions DESC, ad_id LIMIT 20
Answer RefC3(const ConvivaColumns& c) {
  std::unordered_map<int64_t, SumCount> ad_buffer;
  for (size_t i = 0; i < c.ad_id.size(); ++i) {
    SumCount& s = ad_buffer[c.ad_id[i]];
    s.sum += c.buffer_time[i];
    ++s.count;
  }
  std::map<int64_t, SumCount> ads;  // per-ad play time of abnormal sessions
  for (size_t i = 0; i < c.ad_id.size(); ++i) {
    if (!(c.buffer_time[i] > 1.5 * ad_buffer[c.ad_id[i]].avg())) continue;
    SumCount& s = ads[c.ad_id[i]];
    s.sum += c.play_time[i];
    ++s.count;
  }
  Answer a;
  a.keys = {"ad_id"};
  a.values = {"abnormal_sessions", "avg_play"};
  std::vector<int64_t> keys;
  for (const auto& [ad, s] : ads) {
    keys.push_back(ad);
    a.all_groups[FormatNumber(static_cast<double>(ad))] = {
        static_cast<double>(s.count), s.avg()};
  }
  for (int64_t ad : TopN(keys, 20, [&](int64_t x, int64_t y) {
         const int64_t cx = ads[x].count, cy = ads[y].count;
         return cx != cy ? cx > cy : x < y;
       })) {
    const std::string key = FormatNumber(static_cast<double>(ad));
    a.rows[key] = a.all_groups[key];
  }
  return a;
}

// SELECT partkey, SUM(supplycost * availqty) AS value FROM tpch
// GROUP BY partkey HAVING value > (SELECT SUM(supplycost * availqty) * 0.0008)
// ORDER BY value DESC LIMIT 100
Answer RefQ11(const TpchColumns& t) {
  std::map<int64_t, double> parts;
  double total = 0;
  for (size_t i = 0; i < t.partkey.size(); ++i) {
    const double v = t.supplycost[i] * t.availqty[i];
    parts[t.partkey[i]] += v;
    total += v;
  }
  const double threshold = total * 0.0008;
  Answer a;
  a.keys = {"partkey"};
  a.values = {"value"};
  std::vector<int64_t> keys;
  for (const auto& [part, value] : parts) {
    a.all_groups[FormatNumber(static_cast<double>(part))] = {value};
    if (value > threshold) keys.push_back(part);
  }
  for (int64_t part : TopN(keys, 100, [&](int64_t x, int64_t y) {
         return parts[x] > parts[y];
       })) {
    a.rows[FormatNumber(static_cast<double>(part))] = {parts[part]};
  }
  return a;
}

// SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM tpch l
// WHERE container = 'MED BOX' AND quantity < 0.5 * (per-part AVG(quantity))
Answer RefQ17(const TpchColumns& t) {
  std::unordered_map<int64_t, SumCount> part_qty;
  for (size_t i = 0; i < t.partkey.size(); ++i) {
    SumCount& s = part_qty[t.partkey[i]];
    s.sum += t.quantity[i];
    ++s.count;
  }
  double revenue = 0;
  for (size_t i = 0; i < t.partkey.size(); ++i) {
    if (t.container[i] == "MED BOX" &&
        t.quantity[i] < 0.5 * part_qty[t.partkey[i]].avg()) {
      revenue += t.extendedprice[i];
    }
  }
  return Scalar({"avg_yearly"}, {revenue / 7.0});
}

// SELECT custkey, SUM(quantity) AS total_qty FROM tpch
// WHERE custkey IN (SELECT custkey ... GROUP BY custkey
//                   HAVING SUM(quantity) > 2 * SUM(quantity) / 1000)
// GROUP BY custkey ORDER BY total_qty DESC, custkey LIMIT 100
Answer RefQ18(const TpchColumns& t) {
  std::map<int64_t, double> customers;
  double total = 0;
  for (size_t i = 0; i < t.custkey.size(); ++i) {
    customers[t.custkey[i]] += t.quantity[i];
    total += t.quantity[i];
  }
  const double threshold = 2 * total / 1000;
  Answer a;
  a.keys = {"custkey"};
  a.values = {"total_qty"};
  std::vector<int64_t> keys;
  for (const auto& [cust, qty] : customers) {
    a.all_groups[FormatNumber(static_cast<double>(cust))] = {qty};
    if (qty > threshold) keys.push_back(cust);
  }
  for (int64_t cust : TopN(keys, 100, [&](int64_t x, int64_t y) {
         const double qx = customers[x], qy = customers[y];
         return qx != qy ? qx > qy : x < y;
       })) {
    a.rows[FormatNumber(static_cast<double>(cust))] = {customers[cust]};
  }
  return a;
}

// SELECT suppkey, COUNT(*) AS candidate_lines FROM tpch l
// WHERE shipdate BETWEEN 400 AND 1200
//   AND availqty > 0.5 * (per-part SUM(quantity))
// GROUP BY suppkey ORDER BY candidate_lines DESC, suppkey LIMIT 50
Answer RefQ20(const TpchColumns& t) {
  std::unordered_map<int64_t, double> part_qty;
  for (size_t i = 0; i < t.partkey.size(); ++i) part_qty[t.partkey[i]] += t.quantity[i];
  std::map<int64_t, int64_t> suppliers;
  for (size_t i = 0; i < t.partkey.size(); ++i) {
    if (t.shipdate[i] >= 400 && t.shipdate[i] <= 1200 &&
        t.availqty[i] > 0.5 * part_qty[t.partkey[i]]) {
      ++suppliers[t.suppkey[i]];
    }
  }
  Answer a;
  a.keys = {"suppkey"};
  a.values = {"candidate_lines"};
  std::vector<int64_t> keys;
  for (const auto& [supp, count] : suppliers) {
    keys.push_back(supp);
    a.all_groups[FormatNumber(static_cast<double>(supp))] = {
        static_cast<double>(count)};
  }
  for (int64_t supp : TopN(keys, 50, [&](int64_t x, int64_t y) {
         const int64_t cx = suppliers[x], cy = suppliers[y];
         return cx != cy ? cx > cy : x < y;
       })) {
    const std::string key = FormatNumber(static_cast<double>(supp));
    a.rows[key] = a.all_groups[key];
  }
  return a;
}

// SELECT geo, AVG(buffer_time) AS avg_buffer, COUNT(*) AS sessions
// FROM conviva GROUP BY geo
Answer RefGeoBuffer(const ConvivaColumns& c) {
  std::map<std::string, SumCount> geos;
  for (size_t i = 0; i < c.geo.size(); ++i) {
    SumCount& g = geos[c.geo[i]];
    g.sum += c.buffer_time[i];
    ++g.count;
  }
  Answer a;
  a.keys = {"geo"};
  a.values = {"avg_buffer", "sessions"};
  for (const auto& [geo, g] : geos) {
    a.rows[geo] = {g.avg(), static_cast<double>(g.count)};
  }
  a.all_groups = a.rows;
  return a;
}

// SELECT start_hour, AVG(play_time) AS avg_play FROM conviva
// WHERE geo = 'US' GROUP BY start_hour
Answer RefUsHourly(const ConvivaColumns& c) {
  std::map<int64_t, SumCount> hours;
  for (size_t i = 0; i < c.geo.size(); ++i) {
    if (c.geo[i] != "US") continue;
    SumCount& h = hours[c.start_hour[i]];
    h.sum += c.play_time[i];
    ++h.count;
  }
  Answer a;
  a.keys = {"start_hour"};
  a.values = {"avg_play"};
  for (const auto& [hour, h] : hours) {
    a.rows[FormatNumber(static_cast<double>(hour))] = {h.avg()};
  }
  a.all_groups = a.rows;
  return a;
}

// SELECT ad_id, COUNT(*) AS sessions, SUM(play_time) AS total_play
// FROM conviva WHERE start_hour >= 18 GROUP BY ad_id
Answer RefEveningAds(const ConvivaColumns& c) {
  std::map<int64_t, SumCount> ads;
  for (size_t i = 0; i < c.ad_id.size(); ++i) {
    if (c.start_hour[i] < 18) continue;
    SumCount& s = ads[c.ad_id[i]];
    s.sum += c.play_time[i];
    ++s.count;
  }
  Answer a;
  a.keys = {"ad_id"};
  a.values = {"sessions", "total_play"};
  for (const auto& [ad, s] : ads) {
    a.rows[FormatNumber(static_cast<double>(ad))] = {static_cast<double>(s.count),
                                                     s.sum};
  }
  a.all_groups = a.rows;
  return a;
}

// SELECT AVG(buffer_time) AS avg_buffer, AVG(join_failure_rate) AS avg_jfr
// FROM conviva WHERE bitrate_kbps > 3000
Answer RefHdQuality(const ConvivaColumns& c) {
  SumCount buffer, jfr;
  for (size_t i = 0; i < c.bitrate_kbps.size(); ++i) {
    if (!(c.bitrate_kbps[i] > 3000)) continue;
    buffer.sum += c.buffer_time[i];
    jfr.sum += c.join_failure_rate[i];
    ++buffer.count;
    ++jfr.count;
  }
  return Scalar({"avg_buffer", "avg_jfr"}, {buffer.avg(), jfr.avg()});
}

bool Close(double expected, double observed) {
  if (!std::isfinite(expected) || !std::isfinite(observed)) return false;
  const double scale = std::max(std::fabs(expected), std::fabs(observed));
  return std::fabs(expected - observed) <= kRelTolerance * scale + 1e-12;
}

std::vector<std::string> Diff(const Answer& expected, const Rows& observed,
                              size_t max_lines) {
  std::vector<std::string> out;
  auto add = [&](std::string line) {
    if (out.size() < max_lines) out.push_back(std::move(line));
  };
  if (observed.size() != expected.rows.size()) {
    add("row count: expected " + std::to_string(expected.rows.size()) + ", got " +
        std::to_string(observed.size()));
  }
  for (const auto& [key, want] : expected.rows) {
    auto it = observed.find(key);
    if (it == observed.end()) {
      add("group [" + key + "]: missing");
      continue;
    }
    for (size_t v = 0; v < want.size(); ++v) {
      const double got = v < it->second.size() ? it->second[v] : NAN;
      if (!Close(want[v], got)) {
        add("group [" + key + "] " + expected.values[v] + ": expected " +
            FormatNumber(want[v]) + ", got " + FormatNumber(got));
      }
    }
  }
  for (const auto& [key, got] : observed) {
    if (expected.rows.count(key) == 0) add("group [" + key + "]: unexpected");
  }
  return out;
}

}  // namespace perfbench
