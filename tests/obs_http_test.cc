// Live-introspection HTTP server tests: /metrics and /statusz smoke-tested
// against a real in-process server (obs::AttachIntrospectionRoutes) during a
// multi-batch online query, plus route/error behavior of the embedded
// server itself. The client is a raw
// loopback socket — the same bytes curl would send.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "common/random.h"
#include "gola/gola.h"
#include "obs/http_server.h"
#include "obs/query_registry.h"

namespace gola {
namespace obs {
namespace {

/// Minimal HTTP/1.0-style GET over loopback; returns the full response
/// (status line, headers, body) or "" on connect failure.
std::string HttpGet(int port, const std::string& path) {
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
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
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

int StatusOf(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

/// Structural JSON sanity without a full parser: non-empty, object-shaped,
/// balanced braces/brackets outside string literals.
bool LooksLikeJson(const std::string& body) {
  int depth = 0;
  bool in_string = false, escaped = false, seen_any = false;
  for (char c : body) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; seen_any = true; break;
      case '}': case ']': --depth; break;
      default: break;
    }
    if (depth < 0) return false;
  }
  return seen_any && depth == 0 && !in_string;
}

Table MakeSessions(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"session_id", TypeId::kInt64},
      {"ad_id", TypeId::kInt64},
      {"buffer_time", TypeId::kFloat64},
      {"play_time", TypeId::kFloat64},
  });
  TableBuilder builder(schema, /*chunk_size=*/256);
  for (int64_t i = 0; i < n; ++i) {
    double buffer = rng.Exponential(30.0);
    double play = std::max(0.0, 600.0 - 4.0 * buffer + rng.Normal(0, 50));
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 8)),
                       Value::Float(buffer), Value::Float(play)});
  }
  return builder.Finish();
}

constexpr const char* kSbi =
    "SELECT AVG(play_time) FROM sessions "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";

/// One introspection server for the whole test binary, started once on an
/// ephemeral port (leaked: it serves until the process exits).
int ServerPort() {
  static HttpServer* server = [] {
    auto* s = new HttpServer();
    AttachIntrospectionRoutes(s);
    GOLA_CHECK_OK(s->Start(0));
    return s;
  }();
  return server->port();
}

TEST(HttpServerTest, StatuszAndMetricsDuringLiveQuery) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(4000, 7)));
  GolaOptions opts;
  opts.num_batches = 8;
  auto online = engine.ExecuteOnline(kSbi, opts);
  GOLA_CHECK_OK(online.status());
  int port = ServerPort();

  // Scrape mid-query, from inside the per-batch callback: the registry
  // must show this query live with the batch index it just finished.
  int scraped_at_batch = 0;
  auto last = (*online)->Run([&](const OnlineUpdate& update) {
    if (update.batch_index != 3) return true;
    scraped_at_batch = update.batch_index;

    std::string response = HttpGet(port, "/statusz");
    EXPECT_EQ(StatusOf(response), 200);
    std::string body = BodyOf(response);
    EXPECT_TRUE(LooksLikeJson(body)) << body;
    EXPECT_NE(body.find("\"active_queries\""), std::string::npos);
    EXPECT_NE(body.find("\"batch_index\": 3"), std::string::npos) << body;
    EXPECT_NE(body.find("\"fraction_processed\""), std::string::npos);
    EXPECT_NE(body.find("\"max_rsd\""), std::string::npos);
    EXPECT_NE(body.find("\"uncertain_tuples\""), std::string::npos);
    EXPECT_NE(body.find("\"delta_exec_seconds\""), std::string::npos);
    EXPECT_NE(body.find("\"recomputes\""), std::string::npos);

    response = HttpGet(port, "/metrics");
    EXPECT_EQ(StatusOf(response), 200);
    EXPECT_NE(response.find("text/plain"), std::string::npos);
    EXPECT_NE(BodyOf(response).find("gola_online_batches_total"),
              std::string::npos);
    return true;
  });
  GOLA_CHECK_OK(last.status());
  EXPECT_EQ(scraped_at_batch, 3);
  EXPECT_EQ(last->batch_index, 8);
}

TEST(HttpServerTest, FinishedQueryMovesToRecent) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(2000, 11)));
  GolaOptions opts;
  opts.num_batches = 4;
  {
    auto online = engine.ExecuteOnline(kSbi, opts);
    GOLA_CHECK_OK(online.status());
    GOLA_CHECK_OK((*online)->Run().status());
  }  // destructor deregisters
  std::string body = BodyOf(HttpGet(ServerPort(), "/statusz"));
  ASSERT_TRUE(LooksLikeJson(body)) << body;
  EXPECT_NE(body.find("\"recent_queries\""), std::string::npos);
  EXPECT_NE(body.find("\"done\": true"), std::string::npos) << body;
}

TEST(HttpServerTest, TracezAndFlightzRespond) {
  int port = ServerPort();
  std::string response = HttpGet(port, "/tracez");
  EXPECT_EQ(StatusOf(response), 200);
  std::string body = BodyOf(response);
  EXPECT_TRUE(LooksLikeJson(body)) << body;
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);

  response = HttpGet(port, "/flightz");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(BodyOf(response).find("# gola flight recorder"), std::string::npos);
}

TEST(HttpServerTest, UnknownRouteAndMethodErrors) {
  int port = ServerPort();
  std::string response = HttpGet(port, "/no-such-route");
  EXPECT_EQ(StatusOf(response), 404);
  EXPECT_NE(BodyOf(response).find("/metrics"), std::string::npos);

  // Query strings are ignored for routing.
  EXPECT_EQ(StatusOf(HttpGet(port, "/metrics?refresh=1")), 200);
}

TEST(HttpServerTest, StandaloneServerLifecycle) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpServer::Response r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  EXPECT_EQ(BodyOf(HttpGet(server.port(), "/ping")), "pong\n");
  int port = server.port();
  server.Stop();
  EXPECT_FALSE(server.running());
  // The port no longer answers.
  EXPECT_EQ(HttpGet(port, "/ping"), "");
  server.Stop();  // idempotent
}

TEST(HttpServerTest, DrainingServerAnswers503) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpServer::Response r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/ping")), 200);

  // While draining, connections are still accepted but answered with a
  // clean 503 instead of a hung socket or a reset — what a scraper retries.
  server.BeginDrain();
  std::string response = HttpGet(server.port(), "/ping");
  EXPECT_EQ(StatusOf(response), 503);
  EXPECT_NE(response.find("Service Unavailable"), std::string::npos);
  EXPECT_NE(BodyOf(response).find("retry"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, RestartOnSamePortClearsDrainState) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpServer::Response r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());
  int port = server.port();
  server.Stop();  // Stop() drains first, then joins

  // SO_REUSEADDR + cleared drain flag: the same port serves 200s again.
  ASSERT_TRUE(server.Start(port).ok());
  EXPECT_EQ(server.port(), port);
  EXPECT_EQ(StatusOf(HttpGet(port, "/ping")), 200);
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace gola
