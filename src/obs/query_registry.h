// Process-wide registry of active (and recently finished) online queries —
// the data behind GET /statusz. The controller registers each executor at
// Prepare, publishes its rendered entry after every Step, and deregisters
// on destruction; the HTTP server only ever reads complete entries, so a
// live query is never observed mid-batch.
#ifndef GOLA_OBS_QUERY_REGISTRY_H_
#define GOLA_OBS_QUERY_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace gola {
namespace obs {

class QueryRegistry {
 public:
  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a new query; the returned id keys every later call.
  uint64_t Register(std::string label);

  /// Replaces the query's entry with `fields`: the JSON members (no
  /// enclosing braces) its controller rendered for the latest update —
  /// gola::UpdateJson plus the registry-only `done` and `warnings`.
  /// Unknown ids are ignored.
  void Update(uint64_t id, std::string fields);

  /// Removes the query from the active set; its last entry is retained in
  /// a short recently-finished history.
  void Deregister(uint64_t id);

  /// The /statusz document: {"queries_started_total", "active_queries",
  /// "recent_queries"}, each query as {"query_id", "label", <fields>}.
  std::string StatuszJson() const;

  /// Process-wide registry the introspection routes read.
  static QueryRegistry& Global();

 private:
  struct Entry {
    uint64_t id = 0;
    std::string label;   // streamed table + block count (no SQL retained)
    std::string fields;  // empty until the first update
  };
  static void AppendEntry(const Entry& e, std::string* out);

  static constexpr size_t kRecentCap = 8;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Entry> active_;
  std::deque<Entry> recent_;  // most recent last
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_QUERY_REGISTRY_H_
