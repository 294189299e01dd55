// HTTP front-end tests: POST body parsing (Content-Length framing, 400 on
// malformed requests instead of connection drops), concurrent connections,
// chunked/SSE streaming, and the QueryService routes end-to-end — multiple
// curl-equivalent clients streaming converging answers from one engine —
// plus the update-schema contract: the convergence JSONL row, the SSE
// `update` event and the /statusz entry agree on every shared field.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gola/gola.h"
#include "obs/http_server.h"
#include "server/http_service.h"

namespace gola {
namespace server {
namespace {

/// Sends raw bytes to loopback:`port`, returns the full response (headers +
/// body) after the server closes the connection; "" on connect failure.
std::string RawRequest(int port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port,
                    "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Post(int port, const std::string& path, const std::string& body) {
  return RawRequest(port, "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n" +
                              "Content-Length: " + std::to_string(body.size()) +
                              "\r\n\r\n" + body);
}

int StatusOf(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

Table MakeData(int64_t n) {
  Rng rng(17);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 512);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow(
        {Value::Int(rng.UniformInt(1, 4)), Value::Float(rng.Exponential(20))});
  }
  return builder.Finish();
}

TEST(ServerHttpTest, PostBodyParsedWithContentLength) {
  obs::HttpServer server;
  server.Route("/echo", obs::HttpServer::Handler(
                            [](const obs::HttpServer::Request& req) {
                              obs::HttpServer::Response r;
                              r.body = req.method + "|" + req.body + "|" +
                                       (req.params.count("tag")
                                            ? req.params.at("tag")
                                            : "");
                              return r;
                            }));
  ASSERT_TRUE(server.Start(0).ok());
  std::string response = Post(server.port(), "/echo?tag=a%20b", "hello body");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "POST|hello body|a b");

  // Body split across TCP writes still assembles by Content-Length.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char* head =
      "POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello";
  send(fd, head, std::strlen(head), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  send(fd, " body", 5, 0);
  std::string response2;
  char buf[1024];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response2.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_EQ(StatusOf(response2), 200);
  EXPECT_EQ(BodyOf(response2), "POST|hello body|");
  server.Stop();
}

TEST(ServerHttpTest, MalformedRequestsGet400NotDropped) {
  obs::HttpServer server;
  server.Route("/ok", [] { return obs::HttpServer::Response{}; });
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  // Garbage request line.
  EXPECT_EQ(StatusOf(RawRequest(port, "GARBAGE\r\n\r\n")), 400);
  // Request target not starting with '/'.
  EXPECT_EQ(StatusOf(RawRequest(port, "GET nope HTTP/1.1\r\n\r\n")), 400);
  // Non-numeric Content-Length.
  EXPECT_EQ(StatusOf(RawRequest(
                port, "POST /ok HTTP/1.1\r\nContent-Length: abc\r\n\r\n")),
            400);
  // Declared body never arrives: 400 after the read times out, not a hang
  // or a silent close.
  EXPECT_EQ(StatusOf(RawRequest(
                port, "POST /ok HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")),
            400);
  // POST with a body but no Content-Length framing.
  EXPECT_EQ(StatusOf(RawRequest(port, "POST /ok HTTP/1.1\r\n\r\nunframed")),
            400);
  // Oversized declared body is refused up front.
  EXPECT_EQ(StatusOf(RawRequest(
                port,
                "POST /ok HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")),
            413);
  // Unsupported method.
  EXPECT_EQ(StatusOf(RawRequest(port, "PATCH /ok HTTP/1.1\r\n\r\n")), 405);
  server.Stop();
}

TEST(ServerHttpTest, ChunkedStreamingRoute) {
  obs::HttpServer server;
  server.RouteStream("/stream", "text/plain",
                     [](const obs::HttpServer::Request&,
                        obs::HttpServer::ChunkWriter& w) {
                       for (int i = 0; i < 3; ++i) {
                         ASSERT_TRUE(w.Write("tick " + std::to_string(i) + "\n"));
                       }
                     });
  ASSERT_TRUE(server.Start(0).ok());
  std::string response = Get(server.port(), "/stream");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(response.find("tick 0"), std::string::npos);
  EXPECT_NE(response.find("tick 2"), std::string::npos);
  // Terminating zero-length chunk present.
  EXPECT_NE(response.find("0\r\n\r\n"), std::string::npos);
  server.Stop();
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GOLA_CHECK_OK(engine_.RegisterTable("t", MakeData(8'000)));
    engine_.default_options().num_batches = 6;
    engine_.default_options().bootstrap_replicates = 16;
    service_ = std::make_unique<QueryService>(&engine_);
    service_->AttachTo(&server_);
    GOLA_CHECK_OK(server_.Start(0));
  }
  void TearDown() override {
    server_.Stop();
    engine_.sessions().Shutdown();
  }

  Engine engine_;
  obs::HttpServer server_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(QueryServiceTest, SseStreamEndToEnd) {
  std::string response =
      Post(server_.port(), "/query?batches=5&replicates=12",
           "SELECT AVG(x) FROM t");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Content-Type: text/event-stream"),
            std::string::npos);
  EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
  // One update per mini-batch, then the done summary.
  EXPECT_NE(response.find("event: update"), std::string::npos);
  EXPECT_NE(response.find("\"batch_index\": 5"), std::string::npos);
  EXPECT_NE(response.find("event: done"), std::string::npos);
  EXPECT_NE(response.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(response.find("avg_x_lo"), std::string::npos);  // CI columns flow
}

TEST_F(QueryServiceTest, ErrorsMapToHttpStatuses) {
  EXPECT_EQ(StatusOf(Post(server_.port(), "/query", "not even sql")), 400);
  EXPECT_EQ(StatusOf(Post(server_.port(), "/query", "")), 400);
  EXPECT_EQ(StatusOf(Post(server_.port(), "/query?batches=bogus",
                          "SELECT AVG(x) FROM t")),
            400);
  EXPECT_EQ(StatusOf(Post(server_.port(), "/query",
                          "SELECT x FROM t")),  // no aggregate: rejected
            400);
  EXPECT_EQ(StatusOf(Get(server_.port(), "/query")), 405);  // GET on /query
}

TEST_F(QueryServiceTest, ReceiptModeAndSessionLookup) {
  std::string response = Post(server_.port(), "/query?stream=none&label=panel1",
                              "SELECT COUNT(*) AS n FROM t");
  EXPECT_EQ(StatusOf(response), 202);
  const std::string body = BodyOf(response);
  size_t id_pos = body.find("\"id\": ");
  ASSERT_NE(id_pos, std::string::npos) << body;
  const std::string id = body.substr(id_pos + 6, body.find(',', id_pos) - id_pos - 6);

  // Poll until the session reports done (the dispatcher runs it async).
  std::string detail;
  for (int i = 0; i < 200; ++i) {
    detail = BodyOf(Get(server_.port(), "/sessions/" + id));
    if (detail.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(detail.find("\"state\": \"done\""), std::string::npos) << detail;
  EXPECT_NE(detail.find("\"label\": \"panel1\""), std::string::npos);
  EXPECT_NE(detail.find("\"result\""), std::string::npos);

  EXPECT_EQ(StatusOf(Get(server_.port(), "/sessions/999999")), 404);
  EXPECT_EQ(StatusOf(Get(server_.port(), "/sessions/bogus")), 400);
}

TEST_F(QueryServiceTest, ConcurrentSseClientsShareOneScan) {
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<size_t>(i)] =
          Post(server_.port(), "/query?batches=8&replicates=12",
               i % 2 == 0 ? "SELECT AVG(x) FROM t"
                          : "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g");
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& response : responses) {
    EXPECT_EQ(StatusOf(response), 200);
    EXPECT_NE(response.find("event: done"), std::string::npos);
    EXPECT_NE(response.find("\"state\": \"done\""), std::string::npos);
  }
  // Same partition key across the fleet: at most a few misses (scans can
  // expire between stragglers), definitely shared within the burst.
  EXPECT_GT(engine_.sessions().scan_stats().hits, 0);

  std::string sessions = BodyOf(Get(server_.port(), "/sessions"));
  EXPECT_NE(sessions.find("\"scan_share\""), std::string::npos);
}

TEST_F(QueryServiceTest, StatuszSplicesSessions) {
  GOLA_CHECK_OK(Post(server_.port(), "/query?stream=none",
                     "SELECT AVG(x) FROM t").empty()
                    ? Status::IoError("no response")
                    : Status::OK());
  std::string body = BodyOf(Get(server_.port(), "/statusz"));
  // The registry payload keys CI scrapes stay present…
  EXPECT_NE(body.find("\"active_queries\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"recent_queries\""), std::string::npos) << body;
  // …and the session layer is spliced in.
  EXPECT_NE(body.find("\"sessions\": ["), std::string::npos) << body;
}

/// Top-level members of a one-line JSON object: key → raw value text
/// (strings keep their quotes; nested objects and arrays are kept whole).
std::map<std::string, std::string> TopLevelMembers(const std::string& json) {
  std::map<std::string, std::string> members;
  size_t i = json.find('{');
  if (i == std::string::npos) return members;
  ++i;
  auto skip_string = [&](size_t j) {  // j at the opening quote
    for (++j; j < json.size() && json[j] != '"'; ++j) {
      if (json[j] == '\\') ++j;
    }
    return j + 1;  // past the closing quote
  };
  while (i < json.size()) {
    while (i < json.size() && (json[i] == ' ' || json[i] == ',')) ++i;
    if (i >= json.size() || json[i] != '"') break;
    const size_t key_end = skip_string(i);
    const std::string key = json.substr(i + 1, key_end - i - 2);
    i = json.find(':', key_end) + 1;
    while (json[i] == ' ') ++i;
    const size_t start = i;
    int depth = 0;
    while (i < json.size()) {
      const char c = json[i];
      if (c == '"') {
        i = skip_string(i);
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      }
      if (c == ',' && depth == 0) break;
      ++i;
    }
    members[key] = json.substr(start, i - start);
  }
  return members;
}

TEST(UpdateSchemaContractTest, ConvergenceRowSseEventAndStatuszAgree) {
  // One grouped query through the query service with a convergence path
  // set. The three views of each update render their shared fields through
  // gola::UpdateJson, so for batch k every field of the convergence row
  // (other than the row's own schema/kind) must read the same in the SSE
  // event, and the /statusz entry must read the same as the final row.
  const std::string path =
      ::testing::TempDir() + "schema_contract.convergence.jsonl";
  std::remove(path.c_str());
  GolaOptions defaults;
  defaults.num_batches = 6;
  defaults.bootstrap_replicates = 16;
  defaults.convergence_path = path;
  Engine engine(defaults);
  GOLA_CHECK_OK(engine.RegisterTable("contract", MakeData(8'000)));
  obs::HttpServer server;
  QueryService service(&engine);
  service.AttachTo(&server);
  GOLA_CHECK_OK(server.Start(0));

  const std::string response = Post(
      server.port(), "/query",
      "SELECT g, AVG(x) AS m FROM contract GROUP BY g ORDER BY g");
  const std::string statusz = BodyOf(Get(server.port(), "/statusz"));
  server.Stop();
  engine.sessions().Shutdown();

  using Members = std::map<std::string, std::string>;
  std::map<int, Members> events, rows;
  std::istringstream sse(response);
  std::string line;
  bool in_update = false;
  while (std::getline(sse, line)) {
    if (line.rfind("event: ", 0) == 0) in_update = line == "event: update";
    if (in_update && line.rfind("data: ", 0) == 0) {
      Members m = TopLevelMembers(line);
      events[std::stoi(m["batch_index"])] = m;
    }
  }
  std::ifstream in(path);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Members m = TopLevelMembers(line);
    EXPECT_EQ(m["schema"], "1") << line;
    EXPECT_EQ(m["kind"], "\"update\"") << line;
    rows[std::stoi(m["batch_index"])] = m;
  }
  std::remove(path.c_str());
  ASSERT_EQ(rows.size(), 6u);
  ASSERT_EQ(events.size(), 6u) << response;

  for (const auto& [k, row] : rows) {
    const Members& event = events[k];
    EXPECT_NE(row.at("estimate"), "null") << "batch " << k;
    EXPECT_EQ(row.at("stats").front(), '{') << "batch " << k;
    for (const auto& [key, value] : row) {
      if (key == "schema" || key == "kind") continue;
      ASSERT_TRUE(event.count(key)) << "SSE event lacks " << key;
      EXPECT_EQ(event.at(key), value) << "batch " << k << " key " << key;
    }
  }

  // The registry holds each query's last entry, one entry per line.
  std::istringstream status_lines(statusz);
  Members entry;
  while (std::getline(status_lines, line)) {
    if (line.find("\"label\": \"contract (") != std::string::npos) {
      entry = TopLevelMembers(line);
    }
  }
  ASSERT_FALSE(entry.empty()) << statusz;
  EXPECT_EQ(entry["done"], "true");
  for (const auto& [key, value] : rows.at(6)) {
    if (key == "schema" || key == "kind") continue;
    ASSERT_TRUE(entry.count(key)) << "/statusz entry lacks " << key;
    EXPECT_EQ(entry.at(key), value) << "key " << key;
  }
}

}  // namespace
}  // namespace server
}  // namespace gola
