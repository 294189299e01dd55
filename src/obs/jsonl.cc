#include "obs/jsonl.h"

#include <cstdlib>

#include "common/string_util.h"

namespace gola {
namespace obs {

std::string QueryLogEventsJson(const std::vector<QueryLogEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i) out += ", ";
    out += Format("{\"seconds\": %.6g, \"name\": \"%s\"}", events[i].seconds,
                  JsonEscape(events[i].name).c_str());
  }
  return out + "]";
}

JsonlWriter::~JsonlWriter() { Close(); }

bool JsonlWriter::Open(const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (path.empty()) return true;
  file_ = std::fopen(path.c_str(), truncate ? "w" : "a");
  return file_ != nullptr;
}

void JsonlWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool JsonlWriter::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void JsonlWriter::Append(std::string_view object) {
  std::string line;
  line.reserve(object.size() + 1);
  line.append(object);
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

JsonlWriter& QueryLog() {
  // Leaked on purpose: sessions may finish during static destruction.
  static JsonlWriter* log = [] {
    auto* l = new JsonlWriter();
    if (const char* env = std::getenv("GOLA_QUERY_LOG_PATH")) {
      if (env[0] != '\0') l->Open(env);
    }
    return l;
  }();
  return *log;
}

}  // namespace obs
}  // namespace gola
