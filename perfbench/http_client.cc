#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// ----------------------------------------------------------------- JSON --

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool Document(Json* out, std::string* error) {
    if (!Value(out, 0) || (SkipSpace(), pos_ != s_.size())) {
      *error = "malformed JSON near offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      c = s_[pos_++];
      switch (c) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            out->push_back('?');  // non-ASCII never occurs in engine output
          }
          break;
        }
        default: out->push_back(c);  // '"', '\\', '/'
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      while (true) {
        SkipSpace();
        std::pair<std::string, Json> member;
        if (!String(&member.first)) return false;
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&member.second, depth + 1)) return false;
        out->object.push_back(std::move(member));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back(), depth + 1)) return false;
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) { out->type = Json::Type::kBool; out->boolean = true; return true; }
    if (Literal("false")) { out->type = Json::Type::kBool; return true; }
    if (Literal("null")) { out->type = Json::Type::kNull; return true; }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------- HTTP --

int Connect(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A stalled server must not hang the benchmark past its time limit.
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data, std::string* error) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Appends whatever the socket has next; 0 at EOF, -1 on error.
ssize_t RecvSome(int fd, std::string* buf) {
  char tmp[16384];
  const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
  if (n > 0) buf->append(tmp, static_cast<size_t>(n));
  return n;
}

/// Reads until the response head is complete; returns the status code and
/// leaves the bytes after the head in *rest.
bool ReadHead(int fd, int* status, bool* chunked, std::string* rest,
              std::string* error) {
  std::string buf;
  size_t end;
  while ((end = buf.find("\r\n\r\n")) == std::string::npos) {
    if (RecvSome(fd, &buf) <= 0) {
      *error = "connection closed before the response head";
      return false;
    }
  }
  const std::string head = buf.substr(0, end);
  if (head.compare(0, 5, "HTTP/") != 0 || head.find(' ') == std::string::npos) {
    *error = "bad status line";
    return false;
  }
  *status = std::atoi(head.c_str() + head.find(' ') + 1);
  std::string lower = head;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  *chunked = lower.find("transfer-encoding: chunked") != std::string::npos;
  *rest = buf.substr(end + 4);
  return true;
}

/// Incremental chunked-transfer decoder: feed raw bytes, take payload.
class ChunkDecoder {
 public:
  /// Moves every complete chunk's payload from *raw to *payload. Returns
  /// true once the terminating zero-length chunk was seen.
  bool Feed(std::string* raw, std::string* payload) {
    while (true) {
      const size_t eol = raw->find("\r\n");
      if (eol == std::string::npos) return false;
      const size_t size = std::strtoul(raw->substr(0, eol).c_str(), nullptr, 16);
      if (size == 0) return true;
      if (raw->size() < eol + 2 + size + 2) return false;
      payload->append(*raw, eol + 2, size);
      raw->erase(0, eol + 2 + size + 2);
    }
  }
};

}  // namespace

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  *out = Json();
  return JsonReader(text).Document(out, error);
}

bool HttpGet(int port, const std::string& path, GetResult* out,
             std::string* error) {
  const int fd = Connect(port, error);
  if (fd < 0) return false;
  bool ok = SendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", error);
  bool chunked = false;
  std::string raw;
  if (ok) ok = ReadHead(fd, &out->status, &chunked, &raw, error);
  while (ok) {
    const ssize_t n = RecvSome(fd, &raw);
    if (n == 0) break;
    if (n < 0) {
      *error = "recv failed while reading the body";
      ok = false;
    }
  }
  ::close(fd);
  if (!ok) return false;
  out->body.clear();
  if (chunked) {
    ChunkDecoder().Feed(&raw, &out->body);
  } else {
    out->body = std::move(raw);
  }
  return true;
}

bool HttpPostStream(int port, const std::string& path, const std::string& body,
                    const SseHandler& on_event, StreamResult* out,
                    std::string* error) {
  const int fd = Connect(port, error);
  if (fd < 0) return false;
  const std::string request = "POST " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  bool chunked = false;
  std::string raw;
  bool ok = SendAll(fd, request, error) &&
            ReadHead(fd, &out->status, &chunked, &raw, error);
  out->head_at = Clock::now();
  ChunkDecoder decoder;
  std::string payload;
  bool finished = false;
  while (ok && !finished) {
    finished = chunked ? decoder.Feed(&raw, &payload) : false;
    if (!chunked) payload += std::exchange(raw, {});
    // Dispatch every complete event ("\n\n"-terminated block of lines).
    size_t end;
    while ((end = payload.find("\n\n")) != std::string::npos) {
      const std::string block = payload.substr(0, end);
      payload.erase(0, end + 2);
      std::string event, data;
      size_t start = 0;
      while (start < block.size()) {
        size_t eol = block.find('\n', start);
        if (eol == std::string::npos) eol = block.size();
        const std::string line = block.substr(start, eol - start);
        if (line.compare(0, 7, "event: ") == 0) event = line.substr(7);
        if (line.compare(0, 6, "data: ") == 0) data = line.substr(6);
        start = eol + 1;
      }
      if (!event.empty()) on_event(event, data, Clock::now());
    }
    if (finished) break;
    const ssize_t n = RecvSome(fd, &raw);
    if (n == 0) break;
    if (n < 0) {
      *error = "recv failed while streaming";
      ok = false;
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace perfbench
