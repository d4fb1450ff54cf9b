// HTTP exporter tests: the four observability endpoints served live
// against a real SessionManager. The headline checks: /metrics stays a
// valid Prometheus 0.0.4 exposition under concurrent scrapes while 16
// sessions are being driven, the histogram `_count` series equals the
// JSON `metrics` command's count (both render from one
// CumulativeBuckets() snapshot, so a drift here is a real bug), and
// /readyz degrades with a cause on an injected WAL-fsync failure and on
// shutdown. Protocol edges: 400 / 404 / 405 / 413, plus the
// http.accept / http.write failpoints.

#include "service/http_exporter.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.h"
#include "service/session_manager.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

struct HttpResponse {
  bool ok = false;  // a complete status line + head/body split was read
  int status = 0;
  std::string head;
  std::string body;
};

// Sends `raw` to the exporter and reads to EOF. Deliberately tiny and
// independent of the exporter's own parsing, so a bug can't hide on
// both sides.
HttpResponse SendRaw(int port, const std::string& raw) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return response;
  }
  size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string wire;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    wire.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (wire.compare(0, 9, "HTTP/1.1 ") != 0) return response;
  response.status = std::atoi(wire.c_str() + 9);
  const size_t split = wire.find("\r\n\r\n");
  if (response.status == 0 || split == std::string::npos) return response;
  response.head = wire.substr(0, split);
  response.body = wire.substr(split + 4);
  response.ok = true;
  return response;
}

HttpResponse Get(int port, const std::string& path) {
  return SendRaw(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

// Line-by-line Prometheus 0.0.4 validation, mirroring what a strict
// scraper enforces: only # HELP / # TYPE comments, metric-name charset,
// fully-consumed numeric values, balanced label braces, no duplicate
// series. On success fills `series` (full series key -> value).
// Returns "" or a description of the first offending line.
std::string ValidateExposition(const std::string& body,
                               std::map<std::string, double>* series) {
  if (body.empty() || body.back() != '\n') return "missing trailing newline";
  size_t start = 0;
  while (start < body.size()) {
    const size_t end = body.find('\n', start);
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) return "blank line";
    if (line[0] == '#') {
      if (line.compare(0, 7, "# HELP ") != 0 &&
          line.compare(0, 7, "# TYPE ") != 0) {
        return "bad comment: " + line;
      }
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) return "no value: " + line;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* value_end = nullptr;
    const double parsed = std::strtod(value.c_str(), &value_end);
    if (value_end == value.c_str() || *value_end != '\0') {
      return "bad value: " + line;
    }
    if (!series->insert({key, parsed}).second) {
      return "duplicate series: " + key;
    }
    std::string name = key;
    const size_t brace = key.find('{');
    if (brace != std::string::npos) {
      if (key.back() != '}') return "unbalanced labels: " + line;
      name = key.substr(0, brace);
    }
    for (const char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        return "bad metric name: " + line;
      }
    }
  }
  return "";
}

JsonValue CreateRequestParams(uint64_t seed) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(int64_t{30}));
  params.Set("strategy", JsonValue::String("random"));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

ServiceRequest MakeRequest(JsonValue params) {
  ServiceRequest request;
  request.command = params.Get("command").AsString();
  request.session_id = params.Get("session").AsString();
  request.params = std::move(params);
  return request;
}

ServiceRequest SessionCommand(const std::string& command,
                              const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return MakeRequest(std::move(params));
}

// Drives one synthetic session to consistency and closes it.
void DriveSession(SessionManager* manager, uint64_t seed) {
  StatusOr<JsonValue> created =
      manager->Execute(MakeRequest(CreateRequestParams(seed)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  Rng rng(seed);
  for (int turn = 0; turn < 10000; ++turn) {
    StatusOr<JsonValue> asked =
        manager->Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    const int64_t num_fixes =
        asked->Get("question").Get("num_fixes").AsInt(0);
    ASSERT_GT(num_fixes, 0);
    ServiceRequest answer = SessionCommand("answer", session);
    answer.params.Set(
        "choice", JsonValue::Number(static_cast<int64_t>(rng.UniformIndex(
                      static_cast<size_t>(num_fixes)))));
    StatusOr<JsonValue> applied = manager->Execute(std::move(answer));
    ASSERT_TRUE(applied.ok()) << applied.status();
  }
  StatusOr<JsonValue> closed =
      manager->Execute(SessionCommand("close", session));
  ASSERT_TRUE(closed.ok()) << closed.status();
}

class HttpExporterTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::Reset(); }

  std::unique_ptr<HttpExporter> StartExporter(SessionManager* manager,
                                              HttpExporter::Options options =
                                                  HttpExporter::Options()) {
    HttpExporter::Hooks hooks;
    hooks.append_metrics = [manager](std::string* out) {
      manager->AppendMetricsText(out);
    };
    hooks.readiness_causes = [manager] { return manager->ReadinessCauses(); };
    hooks.statusz = [manager] { return manager->StatuszJson(); };
    auto exporter =
        std::make_unique<HttpExporter>(std::move(options), std::move(hooks));
    const Status started = exporter->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    if (!started.ok()) return nullptr;
    return exporter;
  }
};

TEST_F(HttpExporterTest, ConcurrentScrapesDuringLoadStayValidAndMatchJson) {
  ServiceConfig config;
  config.num_workers = 4;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  // Scraper thread: hammer /metrics while the drivers run; every
  // response must be a complete, valid exposition.
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const HttpResponse response = Get(port, "/metrics");
      ASSERT_TRUE(response.ok);
      EXPECT_EQ(response.status, 200);
      EXPECT_NE(response.head.find("version=0.0.4"), std::string::npos);
      std::map<std::string, double> series;
      EXPECT_EQ(ValidateExposition(response.body, &series), "");
      scrapes.fetch_add(1);
    }
  });

  constexpr int kDrivers = 4;
  constexpr int kSessionsPerDriver = 4;  // 16 sessions total
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int i = 0; i < kSessionsPerDriver; ++i) {
        DriveSession(&manager,
                     1000 + static_cast<uint64_t>(d * kSessionsPerDriver + i));
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Quiescent now: the scrape and the JSON `metrics` command must agree
  // exactly — both sides render from the same histogram snapshot path.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> json = manager.Execute(MakeRequest(metrics_params));
  ASSERT_TRUE(json.ok()) << json.status();

  const HttpResponse response = Get(port, "/metrics");
  ASSERT_TRUE(response.ok);
  std::map<std::string, double> series;
  ASSERT_EQ(ValidateExposition(response.body, &series), "");

  const double turn_count = series.at("kbrepair_turn_delay_seconds_count");
  EXPECT_EQ(turn_count, json->Get("turn_delay").Get("count").AsDouble(-1));
  EXPECT_GT(turn_count, 0);
  EXPECT_EQ(series.at("kbrepair_sessions_opened_total"),
            json->Get("sessions").Get("opened").AsDouble(-1));
  EXPECT_EQ(series.at("kbrepair_questions_served_total"),
            json->Get("traffic").Get("questions_served").AsDouble(-1));
  EXPECT_EQ(series.at("kbrepair_sessions_opened_total"),
            static_cast<double>(kDrivers * kSessionsPerDriver));
  // The histogram's +Inf bucket is its _count by construction.
  EXPECT_EQ(
      series.at("kbrepair_turn_delay_seconds_bucket{le=\"+Inf\"}"),
      turn_count);
  // _sum agrees with the JSON mean (both in seconds vs mean in ms).
  const double sum = series.at("kbrepair_turn_delay_seconds_sum");
  const double mean_ms = json->Get("turn_delay").Get("mean_ms").AsDouble(0);
  EXPECT_NEAR(sum, mean_ms * turn_count / 1e3,
              1e-6 * std::max(1.0, sum));
  // Labeled per-(strategy, engine) sessions roll up to the total.
  const std::string labeled_prefix = "kbrepair_strategy_sessions_total{";
  double labeled_sessions = 0;
  for (const auto& [key, value] : series) {
    if (key.compare(0, labeled_prefix.size(), labeled_prefix) == 0) {
      labeled_sessions += value;
    }
  }
  EXPECT_EQ(labeled_sessions, series.at("kbrepair_sessions_opened_total"));
}

TEST_F(HttpExporterTest, HealthzStatuszAndPortFile) {
  char port_file[] = "/tmp/kbrepair-http-test-XXXXXX";
  const int fd = ::mkstemp(port_file);
  ASSERT_GE(fd, 0);
  ::close(fd);

  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  HttpExporter::Options options;
  options.port_file = port_file;
  auto exporter = StartExporter(&manager, options);
  ASSERT_NE(exporter, nullptr);

  std::ifstream in(port_file);
  int written_port = -1;
  in >> written_port;
  EXPECT_EQ(written_port, exporter->port());

  const HttpResponse health = Get(exporter->port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");

  const HttpResponse statusz = Get(exporter->port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.head.find("application/json"), std::string::npos);
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz.body);
  ASSERT_TRUE(parsed.ok()) << statusz.body;
  EXPECT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Get("sessions_active").AsInt(-1), 0);
  EXPECT_GE(parsed->Get("uptime_s").AsDouble(-1), 0);
  EXPECT_TRUE(parsed->Get("readiness_causes").is_array());
  EXPECT_EQ(parsed->Get("readiness_causes").size(), 0u);

  ::unlink(port_file);
}

TEST_F(HttpExporterTest, ReadyzDegradesOnWalFsyncFailureWithCause) {
  char wal_dir[] = "/tmp/kbrepair-http-wal-XXXXXX";
  ASSERT_NE(::mkdtemp(wal_dir), nullptr);

  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  EXPECT_EQ(Get(exporter->port(), "/readyz").status, 200);

  failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(7)));
  EXPECT_FALSE(created.ok());  // durability failed -> create rejected

  const HttpResponse ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("not ready"), std::string::npos);
  EXPECT_NE(ready.body.find("recent-wal-fsync-failure"), std::string::npos);
  EXPECT_GE(exporter->errors_served(), 1u);

  // /statusz reports the same causes.
  const HttpResponse statusz = Get(exporter->port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz.body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->Get("readiness_causes").size(), 1u);
  EXPECT_EQ(parsed->Get("readiness_causes").at(0).AsString(),
            "recent-wal-fsync-failure");

  std::string cleanup = "rm -rf ";
  cleanup += wal_dir;
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

TEST_F(HttpExporterTest, ReadyzDegradesOnShutdown) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  EXPECT_EQ(Get(exporter->port(), "/readyz").status, 200);
  manager.Shutdown();
  const HttpResponse ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("shutdown-in-progress"), std::string::npos);
  // Liveness is the exporter's own business and stays green.
  EXPECT_EQ(Get(exporter->port(), "/healthz").status, 200);
}

TEST_F(HttpExporterTest, ProtocolEdgesGet400To413) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  HttpExporter::Options options;
  options.max_request_bytes = 512;
  auto exporter = StartExporter(&manager, options);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  const HttpResponse garbage = SendRaw(port, "GARBAGE\r\n\r\n");
  ASSERT_TRUE(garbage.ok);
  EXPECT_EQ(garbage.status, 400);

  const HttpResponse bad_proto =
      SendRaw(port, "GET /metrics SPDY/9\r\n\r\n");
  ASSERT_TRUE(bad_proto.ok);
  EXPECT_EQ(bad_proto.status, 400);

  const HttpResponse post =
      SendRaw(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);

  const HttpResponse missing = Get(port, "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  const HttpResponse oversized = SendRaw(
      port, "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(1024, 'x') +
                "\r\n\r\n");
  ASSERT_TRUE(oversized.ok);
  EXPECT_EQ(oversized.status, 413);

  EXPECT_GE(exporter->errors_served(), 5u);
  // Query strings are stripped, not 404'd.
  EXPECT_EQ(Get(port, "/healthz?probe=1").status, 200);
}

TEST_F(HttpExporterTest, AcceptAndWriteFailpointsDropOneScrapeEach) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  failpoint::Arm("http.accept", /*skip=*/0, /*fail=*/1);
  const HttpResponse dropped = Get(port, "/healthz");
  EXPECT_FALSE(dropped.ok);  // connection closed before any response
  EXPECT_GE(exporter->errors_served(), 1u);

  failpoint::Arm("http.write", /*skip=*/0, /*fail=*/1);
  const HttpResponse unwritten = Get(port, "/healthz");
  EXPECT_FALSE(unwritten.ok);

  // The exporter survives both and keeps serving.
  const HttpResponse after = Get(port, "/healthz");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
}

}  // namespace
}  // namespace kbrepair
