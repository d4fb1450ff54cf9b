// The daemon client library against the real kbrepaird: what every
// harness now relies on it for. Pipelined calls from many threads come
// back to their own callers over every transport; a kill -9 turns the
// calls in flight into Unavailable and lists exactly those ids as in
// doubt; connect-when-ready fails fast on a daemon that exits instead
// of spending its retry budget, and picks up a port file written late.
// The exposition validator's rules are pinned on hand-made bodies, the
// HTTP status line on a hand-made server.

#include "service/daemon_client.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

using client::Connection;
using client::Daemon;

JsonValue Command(const std::string& command) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  return params;
}

JsonValue SessionCommand(const std::string& command,
                         const std::string& session) {
  JsonValue params = Command(command);
  params.Set("session", JsonValue::String(session));
  return params;
}

JsonValue CreateParams(int64_t seed) {
  JsonValue params = Command("create");
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(seed));
  params.Set("num_facts", JsonValue::Number(int64_t{30}));
  params.Set("strategy", JsonValue::String("random"));
  params.Set("seed", JsonValue::Number(seed));
  return params;
}

TEST(ValidateExpositionTest, EnforcesScraperRules) {
  std::map<std::string, double> series;
  EXPECT_EQ(client::ValidateExposition(
                "# HELP a_total A.\n# TYPE a_total counter\na_total 3\n"
                "b{le=\"+Inf\"} 1.5\n",
                &series),
            "");
  EXPECT_EQ(series.size(), 2u);
  for (const std::string bad :
       {"", "a 1", "a 1\n\nb 2\n", "9a 1\n", "a{x=\"1\" 1\n", "a one\n",
        "a 1\na 2\n", "# NOTE x\n", "a-b 1\n"}) {
    series.clear();
    EXPECT_NE(client::ValidateExposition(bad, &series), "") << bad;
  }
}

TEST(ResultOfTest, KeepsRetryableCodes) {
  const auto rejected = [](const std::string& code) {
    JsonValue envelope = JsonValue::Object();
    envelope.Set("ok", JsonValue::Bool(false));
    JsonValue error = JsonValue::Object();
    error.Set("code", JsonValue::String(code));
    error.Set("message", JsonValue::String("m"));
    envelope.Set("error", std::move(error));
    return client::ResultOf(envelope).status().code();
  };
  EXPECT_EQ(rejected("Unavailable"), StatusCode::kUnavailable);
  EXPECT_EQ(rejected("DeadlineExceeded"), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected("ResourceExhausted"), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected("NotFound"), StatusCode::kInternal);
  for (const char* code :
       {"Unavailable", "DeadlineExceeded", "ResourceExhausted"}) {
    EXPECT_TRUE(client::IsRetryableCode(rejected(code))) << code;
  }
  EXPECT_FALSE(client::IsRetryableCode(rejected("NotFound")));
}

// Answers one connection on a loopback listener with `reply`, then
// hangs up; returns what HttpExchange made of it.
StatusOr<client::HttpResponse> ExchangeWith(const std::string& reply) {
  StatusOr<int> listener = net::ListenTcp("127.0.0.1", 0, 1);
  if (!listener.ok()) return listener.status();
  StatusOr<int> port = net::BoundTcpPort(*listener);
  if (!port.ok()) {
    ::close(*listener);
    return port.status();
  }
  std::thread server([&] {
    StatusOr<int> fd = net::AcceptConnection(*listener);
    if (!fd.ok() || *fd < 0) return;
    char request[1024];
    (void)::read(*fd, request, sizeof request);
    (void)::write(*fd, reply.data(), reply.size());
    ::close(*fd);
  });
  StatusOr<client::HttpResponse> response = client::HttpExchange(
      "127.0.0.1", *port, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  server.join();
  ::close(*listener);
  return response;
}

TEST(HttpExchangeTest, AcceptsOnlyAnHttp11StatusLine) {
  StatusOr<client::HttpResponse> good =
      ExchangeWith("HTTP/1.1 200 OK\r\nX: y\r\n\r\nbody");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->status, 200);
  EXPECT_EQ(good->head, "HTTP/1.1 200 OK\r\nX: y");
  EXPECT_EQ(good->body, "body");
  for (const std::string bad :
       {"HTTP/1.0 200 OK\r\n\r\nbody", "HTTP/2 200\r\n\r\nbody",
        "HTTP/1.1 200 OK\r\nno blank line", "SPDY/3 200\r\n\r\n"}) {
    EXPECT_FALSE(ExchangeWith(bad).ok()) << bad;
  }
}

TEST(ConnectionTest, DestructorOverPipesDoesNotWaitForTheChild) {
  // A child that ignores EOF on stdin, as a wedged daemon would: the
  // Connection must not wait for it, and the Daemon then kills it.
  Daemon child;
  ASSERT_TRUE(child.Start({"/bin/sleep", "30"}, client::Stdio::kPipes).ok());
  const auto start = std::chrono::steady_clock::now();
  { Connection connection(child); }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(child.Exited());
}

#ifdef KBREPAIRD_PATH

// ------------------------------------------------------------------
// Pipelined calls over every transport.

class PipelinedCallsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelinedCallsTest, EightThreadsEachGetTheirOwnResponses) {
  const std::string transport = GetParam();
  std::vector<std::string> args = {KBREPAIRD_PATH, "--workers", "2",
                                   "--shards", "4"};
  client::Endpoint endpoint;
  std::string listen_path;
  if (transport != "stdio") {
    listen_path = client::MakeTempPath("kbrepair_client_test_");
    ASSERT_FALSE(listen_path.empty());
    if (transport == "unix") {
      endpoint.unix_path = listen_path;
      args.insert(args.end(), {"--listen-unix", listen_path});
    } else {
      endpoint.port_file = listen_path;
      args.insert(args.end(), {"--listen-tcp", "0", "--listen-tcp-port-file",
                               listen_path});
    }
  }
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start(args, transport == "stdio" ? client::Stdio::kPipes
                                                    : client::Stdio::kDetached)
                  .ok());
  std::unique_ptr<Connection> connection;
  if (transport == "stdio") {
    connection = std::make_unique<Connection>(daemon);
  } else {
    StatusOr<int> fd = client::ConnectWhenReady(endpoint, &daemon);
    ASSERT_TRUE(fd.ok()) << fd.status();
    connection = std::make_unique<Connection>(*fd);
  }

  // Every response names the session (and create its seed), so a
  // response handed to the wrong caller shows as a mismatch.
  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int64_t seed = 700 + t;
      StatusOr<JsonValue> created = connection->Call(CreateParams(seed));
      if (!created.ok() || created->Get("seed").AsInt(-1) != seed) {
        failures[t] = "create: " + created.status().ToString();
        return;
      }
      const std::string session = created->Get("session").AsString();
      Rng rng(static_cast<uint64_t>(seed));
      for (int turn = 0; turn < 1000; ++turn) {
        StatusOr<JsonValue> asked =
            connection->Call(SessionCommand("ask", session));
        if (!asked.ok() || asked->Get("session").AsString() != session) {
          failures[t] = "ask on " + session + " answered for " +
                        (asked.ok() ? asked->Get("session").AsString()
                                    : asked.status().ToString());
          return;
        }
        if (asked->Get("done").AsBool(false)) break;
        const int64_t num_fixes =
            asked->Get("question").Get("num_fixes").AsInt(1);
        JsonValue answer = SessionCommand("answer", session);
        answer.Set("choice",
                   JsonValue::Number(static_cast<int64_t>(
                       rng.UniformIndex(static_cast<size_t>(num_fixes)))));
        if (!connection->Call(std::move(answer)).ok()) {
          failures[t] = "answer on " + session + " failed";
          return;
        }
      }
      StatusOr<JsonValue> closed =
          connection->Call(SessionCommand("close", session));
      if (!closed.ok() || closed->Get("session").AsString() != session ||
          !closed->Get("consistent").AsBool(false)) {
        failures[t] = "close on " + session + " failed";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], "") << t;

  EXPECT_EQ(connection->garbled_lines(), 0u);
  EXPECT_TRUE(connection->UnansweredIds().empty());
  connection->Close();
  EXPECT_EQ(transport == "stdio" ? daemon.CloseStdinAndWait()
                                 : daemon.Terminate(),
            0);
  if (!listen_path.empty()) ::unlink(listen_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Transports, PipelinedCallsTest, ::testing::Values("stdio", "unix", "tcp"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------------------
// kill -9 mid-dialogue.

TEST(DaemonClientTest, KillNineLeavesExactlyTheInFlightIdsInDoubt) {
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "2"},
                         client::Stdio::kPipes)
                  .ok());
  Connection connection(daemon);
  StatusOr<JsonValue> created = connection.Call(CreateParams(5));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // The next session command holds its worker for over a second, so the
  // ask is still in flight when the daemon dies; `metrics` is answered
  // by the front end at once.
  JsonValue stall = Command("failpoint");
  stall.Set("spec", JsonValue::String("worker.stall=1"));
  ASSERT_TRUE(connection.Call(std::move(stall)).ok());
  StatusOr<std::string> ask_id =
      connection.Send(SessionCommand("ask", session));
  ASSERT_TRUE(ask_id.ok()) << ask_id.status();
  StatusOr<std::string> metrics_id = connection.Send(Command("metrics"));
  ASSERT_TRUE(metrics_id.ok()) << metrics_id.status();
  ASSERT_TRUE(connection.Await(*metrics_id).ok());

  daemon.Kill9();
  StatusOr<JsonValue> asked = connection.Await(*ask_id);
  ASSERT_FALSE(asked.ok());
  EXPECT_EQ(asked.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(connection.UnansweredIds(), std::vector<std::string>{*ask_id});

  // Later calls fail without retrying and are not in doubt: they were
  // never written.
  const auto start = std::chrono::steady_clock::now();
  StatusOr<JsonValue> after = connection.Call(Command("metrics"));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(connection.closed());
  EXPECT_EQ(connection.UnansweredIds(), std::vector<std::string>{*ask_id});
}

// ------------------------------------------------------------------
// Connect-when-ready.

TEST(DaemonClientTest, ConnectFailsFastWhenTheDaemonExits) {
  const std::string path = client::MakeTempPath("kbrepair_client_dead_");
  ASSERT_FALSE(path.empty());
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "abc", "--listen-unix",
                          path},
                         client::Stdio::kSilent)
                  .ok());
  client::Endpoint endpoint;
  endpoint.unix_path = path;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<int> fd =
      client::ConnectWhenReady(endpoint, &daemon, std::chrono::seconds(30));
  ASSERT_FALSE(fd.ok());
  EXPECT_NE(fd.status().ToString().find("exited before accepting"),
            std::string::npos)
      << fd.status();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(daemon.Exited());
  ::unlink(path.c_str());
}

TEST(DaemonClientTest, PortFileWrittenLateIsPickedUp) {
  const std::string published = client::MakeTempPath("kbrepair_client_port_");
  const std::string late = client::MakeTempPath("kbrepair_client_late_");
  ASSERT_FALSE(published.empty());
  ASSERT_FALSE(late.empty());
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "1", "--listen-tcp",
                          "0", "--listen-tcp-port-file", published},
                         client::Stdio::kDetached)
                  .ok());

  // The client watches `late`, which names the daemon's port only well
  // after the daemon has published it; until then it reads as empty.
  constexpr auto kDelay = std::chrono::milliseconds(300);
  std::thread publisher([&] {
    int port = 0;
    for (int i = 0; i < 1000 && port <= 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      port = client::ReadPortFile(published);
    }
    std::this_thread::sleep_for(kDelay);
    if (port > 0) (void)net::WritePortFile(late, port);
  });
  client::Endpoint endpoint;
  endpoint.port_file = late;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<int> fd = client::ConnectWhenReady(endpoint, &daemon);
  publisher.join();
  ASSERT_TRUE(fd.ok()) << fd.status();
  EXPECT_GE(std::chrono::steady_clock::now() - start, kDelay);
  {
    Connection connection(*fd);
    EXPECT_TRUE(connection.Call(Command("metrics")).ok());
    connection.Close();
  }
  EXPECT_EQ(daemon.Terminate(), 0);
  ::unlink(published.c_str());
  ::unlink(late.c_str());
}

#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
