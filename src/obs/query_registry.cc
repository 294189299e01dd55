#include "obs/query_registry.h"

#include "common/string_util.h"

namespace gola {
namespace obs {

uint64_t QueryRegistry::Register(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  active_.emplace(id, Entry{id, std::move(label), {}});
  return id;
}

void QueryRegistry::Update(uint64_t id, std::string fields) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it != active_.end()) it->second.fields = std::move(fields);
}

void QueryRegistry::Deregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  recent_.push_back(std::move(it->second));
  if (recent_.size() > kRecentCap) recent_.pop_front();
  active_.erase(it);
}

void QueryRegistry::AppendEntry(const Entry& e, std::string* out) {
  *out += Format("{\"query_id\": %llu, \"label\": \"%s\"",
                 static_cast<unsigned long long>(e.id),
                 JsonEscape(e.label).c_str());
  if (!e.fields.empty()) *out += ", " + e.fields;
  *out += "}";
}

std::string QueryRegistry::StatuszJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"queries_started_total\": " +
                    std::to_string(next_id_ - 1) + ",\n\"active_queries\": [";
  const char* sep = "\n";
  for (const auto& [id, entry] : active_) {
    out += sep;
    sep = ",\n";
    AppendEntry(entry, &out);
  }
  out += "\n],\n\"recent_queries\": [";
  sep = "\n";
  for (const Entry& entry : recent_) {
    out += sep;
    sep = ",\n";
    AppendEntry(entry, &out);
  }
  out += "\n]}\n";
  return out;
}

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace gola
