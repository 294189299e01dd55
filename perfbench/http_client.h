// A minimal loopback HTTP/1.1 client for the dashboard workload: one
// connection per request (the server closes after each response), chunked
// transfer decoding, Server-Sent-Events framing, and a small JSON reader
// for the event payloads. Independent of the engine's own HTTP code.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A parsed JSON value.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member lookup; null when absent or when this is not an object.
  const Json* Find(const std::string& key) const;
  bool is_number() const { return type == Type::kNumber; }
};

/// Parses one JSON document; false (with `error` set) on malformed input.
bool ParseJson(const std::string& text, Json* out, std::string* error);

struct GetResult {
  int status = 0;
  std::string body;
};

/// GET `path` from 127.0.0.1:`port`; false on any transport error.
bool HttpGet(int port, const std::string& path, GetResult* out,
             std::string* error);

/// Receives each SSE event as it is parsed, with its arrival time.
using SseHandler = std::function<void(const std::string& event,
                                      const std::string& data, Clock::time_point at)>;

struct StreamResult {
  int status = 0;
  /// When the response head (status line + headers) arrived.
  Clock::time_point head_at;
};

/// POSTs `body` to `path` and reads the chunked SSE response to its end,
/// handing every event to `on_event`. False on a transport error.
bool HttpPostStream(int port, const std::string& path, const std::string& body,
                    const SseHandler& on_event, StreamResult* out,
                    std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
