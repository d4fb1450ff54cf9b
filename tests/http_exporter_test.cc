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
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/daemon_client.h"
#include "service/metrics.h"
#include "service/session_manager.h"
#include "support/temp_dir.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

using client::HttpResponse;
using client::ValidateExposition;

StatusOr<HttpResponse> SendRaw(int port, const std::string& raw) {
  return client::HttpExchange("127.0.0.1", port, raw);
}

// No "Connection: close": the exporter must close after one response on
// its own, or the read to EOF never ends.
StatusOr<HttpResponse> Get(int port, const std::string& path) {
  return SendRaw(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
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
      const StatusOr<HttpResponse> response = Get(port, "/metrics");
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->status, 200);
      EXPECT_NE(response->head.find("version=0.0.4"), std::string::npos);
      std::map<std::string, double> series;
      EXPECT_EQ(ValidateExposition(response->body, &series), "");
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

  const StatusOr<HttpResponse> response = Get(port, "/metrics");
  ASSERT_TRUE(response.ok()) << response.status();
  std::map<std::string, double> series;
  ASSERT_EQ(ValidateExposition(response->body, &series), "");

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
  const std::string port_file = client::MakeTempPath("kbrepair-http-test-");
  ASSERT_FALSE(port_file.empty());

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

  const StatusOr<HttpResponse> health = Get(exporter->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  const StatusOr<HttpResponse> ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 200);
  EXPECT_EQ(ready->body, "ready\n");

  const StatusOr<HttpResponse> statusz = Get(exporter->port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->head.find("application/json"), std::string::npos);
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz->body);
  ASSERT_TRUE(parsed.ok()) << statusz->body;
  EXPECT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Get("sessions_active").AsInt(-1), 0);
  EXPECT_GE(parsed->Get("uptime_s").AsDouble(-1), 0);
  EXPECT_TRUE(parsed->Get("readiness_causes").is_array());
  EXPECT_EQ(parsed->Get("readiness_causes").size(), 0u);

  ::unlink(port_file.c_str());
}

TEST_F(HttpExporterTest, ReadyzDegradesOnWalFsyncFailureWithCause) {
  TempDir wal_dir("kbrepair-http-wal-");

  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  EXPECT_EQ(Get(exporter->port(), "/readyz")->status, 200);

  failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(7)));
  EXPECT_FALSE(created.ok());  // durability failed -> create rejected

  const StatusOr<HttpResponse> ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 503);
  EXPECT_NE(ready->body.find("not ready"), std::string::npos);
  EXPECT_NE(ready->body.find("recent-wal-fsync-failure"), std::string::npos);
  EXPECT_GE(exporter->errors_served(), 1u);

  // /statusz reports the same causes.
  const StatusOr<HttpResponse> statusz = Get(exporter->port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz->body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->Get("readiness_causes").size(), 1u);
  EXPECT_EQ(parsed->Get("readiness_causes").at(0).AsString(),
            "recent-wal-fsync-failure");
}

TEST_F(HttpExporterTest, ReadyzDegradesOnShutdown) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  EXPECT_EQ(Get(exporter->port(), "/readyz")->status, 200);
  manager.Shutdown();
  const StatusOr<HttpResponse> ready = Get(exporter->port(), "/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 503);
  EXPECT_NE(ready->body.find("shutdown-in-progress"), std::string::npos);
  // Liveness is the exporter's own business and stays green.
  EXPECT_EQ(Get(exporter->port(), "/healthz")->status, 200);
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

  const StatusOr<HttpResponse> garbage = SendRaw(port, "GARBAGE\r\n\r\n");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_EQ(garbage->status, 400);

  const StatusOr<HttpResponse> bad_proto =
      SendRaw(port, "GET /metrics SPDY/9\r\n\r\n");
  ASSERT_TRUE(bad_proto.ok()) << bad_proto.status();
  EXPECT_EQ(bad_proto->status, 400);

  const StatusOr<HttpResponse> post =
      SendRaw(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->status, 405);

  const StatusOr<HttpResponse> missing = Get(port, "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 404);

  const StatusOr<HttpResponse> oversized = SendRaw(
      port, "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(1024, 'x') +
                "\r\n\r\n");
  ASSERT_TRUE(oversized.ok()) << oversized.status();
  EXPECT_EQ(oversized->status, 413);

  EXPECT_GE(exporter->errors_served(), 5u);
  // Query strings are stripped, not 404'd.
  EXPECT_EQ(Get(port, "/healthz?probe=1")->status, 200);
}

TEST_F(HttpExporterTest, AcceptAndWriteFailpointsDropOneScrapeEach) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  failpoint::Arm("http.accept", /*skip=*/0, /*fail=*/1);
  const StatusOr<HttpResponse> dropped = Get(port, "/healthz");
  EXPECT_FALSE(dropped.ok());  // connection closed before any response
  EXPECT_GE(exporter->errors_served(), 1u);

  failpoint::Arm("http.write", /*skip=*/0, /*fail=*/1);
  const StatusOr<HttpResponse> unwritten = Get(port, "/healthz");
  EXPECT_FALSE(unwritten.ok());

  // The exporter survives both and keeps serving.
  const StatusOr<HttpResponse> after = Get(port, "/healthz");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status, 200);
}

}  // namespace
}  // namespace kbrepair
