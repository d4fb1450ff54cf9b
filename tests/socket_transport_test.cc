// Socket transport differential: dialogues over the daemon's socket
// listener must be byte-identical to the same dialogues over stdio.
//
// Spawns the real kbrepaird twice — once on stdin/stdout pipes, once
// with --listen-unix and --shards 2 — and replays the same scripted
// repair dialogue for every strategy x engine-param cell, with the same
// request ids. The recorded response transcripts must match byte for
// byte (the close response is compared through a fingerprint that
// drops its wall-clock timing fields, which legitimately differ).
// One cell is additionally replayed with every request dribbled one
// byte at a time, proving reassembly does not change a single byte.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/daemon_client.h"
#include "service/net/framer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

#ifdef KBREPAIRD_PATH

// `daemon` (may be null) is polled for an early exit; only one thread
// may poll a daemon.
StatusOr<int> ConnectToDaemon(const std::string& path,
                              client::Daemon* daemon) {
  client::Endpoint endpoint;
  endpoint.unix_path = path;
  return client::ConnectWhenReady(endpoint, daemon);
}

// ------------------------------------------------------------------
// A synchronous line channel over any (read fd, write fd) pair —
// daemon pipes or a connected socket — with optional write
// fragmentation to exercise reassembly.

class LineChannel {
 public:
  LineChannel(int read_fd, int write_fd, size_t write_chunk = 0)
      : read_fd_(read_fd), write_fd_(write_fd), write_chunk_(write_chunk) {}

  Status WriteLine(const std::string& line) {
    const std::string framed = line + "\n";
    const size_t chunk =
        write_chunk_ == 0 ? framed.size() : write_chunk_;
    for (size_t off = 0; off < framed.size();) {
      const size_t want = std::min(chunk, framed.size() - off);
      const ssize_t n = ::write(write_fd_, framed.data() + off, want);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::Unavailable("write failed: " +
                                   std::string(std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
      if (write_chunk_ != 0) {
        // A short pause between fragments defeats kernel coalescing so
        // the server genuinely observes partial lines.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return Status::Ok();
  }

  StatusOr<std::string> ReadLine() {
    for (;;) {
      if (!queued_.empty()) {
        std::string line = std::move(queued_.front());
        queued_.erase(queued_.begin());
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Unavailable("channel closed");
      if (!framer_.Feed(chunk, static_cast<size_t>(n), &queued_)) {
        return Status::Internal("oversized response line");
      }
    }
  }

 private:
  int read_fd_;
  int write_fd_;
  size_t write_chunk_;  // 0 = whole lines; N = N-byte fragments
  net::LineFramer framer_{1 << 20};
  std::vector<std::string> queued_;
};

// ------------------------------------------------------------------
// The scripted dialogue, recorded as a transcript.

JsonValue CreateParams(uint64_t seed, const std::string& strategy,
                       const std::string& engine) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(static_cast<int64_t>(30)));
  params.Set("strategy", JsonValue::String(strategy));
  if (!engine.empty()) params.Set("engine", JsonValue::String(engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

// The deterministic part of a close response line (timing stripped).
std::string CloseFingerprint(const JsonValue& response) {
  const JsonValue& result = response.Get("result");
  JsonValue out = JsonValue::Object();
  out.Set("id", response.Get("id"));
  out.Set("ok", response.Get("ok"));
  out.Set("session", result.Get("session"));
  out.Set("consistent", result.Get("consistent"));
  out.Set("questions", result.Get("questions"));
  out.Set("applied_fixes", result.Get("applied_fixes"));
  out.Set("facts", result.Get("facts"));
  return "close:" + out.Dump();
}

// Drives one strategy x engine cell over `channel`, issuing request ids
// "<tag>-<n>", and appends every raw response line (close responses as
// fingerprints) to the returned transcript.
StatusOr<std::vector<std::string>> DriveCell(LineChannel& channel,
                                             const std::string& tag,
                                             uint64_t seed,
                                             const std::string& strategy,
                                             const std::string& engine) {
  std::vector<std::string> transcript;
  uint64_t next_id = 0;
  const auto call =
      [&](JsonValue params, bool is_close) -> StatusOr<JsonValue> {
    const std::string id = tag + "-" + std::to_string(next_id++);
    params.Set("id", JsonValue::String(id));
    KBREPAIR_RETURN_IF_ERROR(channel.WriteLine(params.Dump()));
    KBREPAIR_ASSIGN_OR_RETURN(std::string line, channel.ReadLine());
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue response, JsonValue::Parse(line));
    if (response.Get("id").AsString() != id) {
      return Status::Internal("response id mismatch on " + id);
    }
    transcript.push_back(is_close ? CloseFingerprint(response)
                                  : std::move(line));
    if (!response.Get("ok").AsBool(false)) {
      return Status::Internal(
          "server error: " +
          response.Get("error").Get("message").AsString());
    }
    return response.Get("result");
  };

  KBREPAIR_ASSIGN_OR_RETURN(
      JsonValue created, call(CreateParams(seed, strategy, engine), false));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) return Status::Internal("create returned no session");

  Rng rng(seed);
  for (size_t turns = 0;; ++turns) {
    if (turns > 1000) return Status::Internal("dialogue does not converge");
    JsonValue ask = JsonValue::Object();
    ask.Set("command", JsonValue::String("ask"));
    ask.Set("session", JsonValue::String(session));
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked, call(std::move(ask), false));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) return Status::Internal("question with no fixes");
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    KBREPAIR_RETURN_IF_ERROR(call(std::move(answer), false).status());
  }

  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_RETURN_IF_ERROR(call(std::move(close), true).status());
  return transcript;
}

struct Cell {
  std::string strategy;
  std::string engine;
};

std::vector<Cell> FullMatrix() {
  std::vector<Cell> cells;
  for (const char* strategy :
       {"random", "opti-join", "opti-prop", "opti-mcd", "opti-learn"}) {
    // The engine param named, and left out (the default).
    for (const char* engine : {"", "incremental"}) {
      cells.push_back({strategy, engine});
    }
  }
  return cells;
}

std::string CellTag(size_t index) {
  const std::string number = std::to_string(index);
  return "c" + number;
}

TEST(SocketTransportTest, DialoguesByteIdenticalToStdioAcrossMatrix) {
  const std::vector<Cell> cells = FullMatrix();
  const uint64_t seed = 20180326;

  // Reference: every cell over the stdio daemon, sequentially on its
  // single pipe pair.
  std::vector<std::vector<std::string>> stdio_transcripts;
  {
    client::Daemon daemon;
    ASSERT_TRUE(daemon
                    .Start({KBREPAIRD_PATH, "--workers", "2"},
                           client::Stdio::kPipes)
                    .ok());
    LineChannel channel(daemon.stdout_fd(), daemon.stdin_fd());
    for (size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(cells[i].strategy + "/" + cells[i].engine);
      StatusOr<std::vector<std::string>> transcript =
          DriveCell(channel, CellTag(i), seed + i,
                    cells[i].strategy, cells[i].engine);
      ASSERT_TRUE(transcript.ok()) << transcript.status();
      stdio_transcripts.push_back(std::move(transcript).value());
    }
    EXPECT_EQ(daemon.CloseStdinAndWait(), 0);
  }

  // Candidate: the same cells over a sharded socket daemon, spread
  // round-robin across three concurrent connections. Sequential cell
  // execution keeps the front-end's session-id sequence identical to
  // the stdio run's, so even the create responses must match.
  const std::string sock_path = client::MakeTempPath("kbrepair_sock_test_");
  ASSERT_FALSE(sock_path.empty());
  client::Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--shards", "2",
                          "--listen-unix", sock_path},
                         client::Stdio::kDetached)
                  .ok());
  std::vector<int> fds;
  std::vector<std::unique_ptr<LineChannel>> channels;
  for (int i = 0; i < 3; ++i) {
    StatusOr<int> fd = ConnectToDaemon(sock_path, &daemon);
    ASSERT_TRUE(fd.ok()) << fd.status();
    fds.push_back(*fd);
    channels.push_back(std::make_unique<LineChannel>(*fd, *fd));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].strategy + "/" + cells[i].engine + " over socket");
    StatusOr<std::vector<std::string>> transcript =
        DriveCell(*channels[i % channels.size()], CellTag(i),
                  seed + i, cells[i].strategy, cells[i].engine);
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    EXPECT_EQ(*transcript, stdio_transcripts[i])
        << "socket transcript diverged from stdio";
  }

  // Rider: replay cell 0 with every request dribbled one byte at a
  // time. Reassembly must not change a single response byte. (A fresh
  // session id is expected — the daemon numbers it after the matrix —
  // so compare from the first ask onward and check lengths match.)
  {
    StatusOr<int> fd = ConnectToDaemon(sock_path, &daemon);
    ASSERT_TRUE(fd.ok()) << fd.status();
    fds.push_back(*fd);
    LineChannel dribble(*fd, *fd, /*write_chunk=*/1);
    StatusOr<std::vector<std::string>> transcript = DriveCell(
        dribble, CellTag(0), seed, cells[0].strategy,
        cells[0].engine);
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    ASSERT_EQ(transcript->size(), stdio_transcripts[0].size());
    const std::string fresh_id =
        JsonValue::Parse(transcript->front())->Get("result")
            .Get("session").AsString();
    const std::string ref_id =
        JsonValue::Parse(stdio_transcripts[0].front())->Get("result")
            .Get("session").AsString();
    for (size_t i = 0; i < transcript->size(); ++i) {
      std::string got = (*transcript)[i];
      // Map the fresh session id back onto the reference's.
      for (size_t pos = 0; (pos = got.find(fresh_id, pos)) !=
                           std::string::npos;
           pos += ref_id.size()) {
        got.replace(pos, fresh_id.size(), ref_id);
      }
      EXPECT_EQ(got, stdio_transcripts[0][i]) << "line " << i;
    }
  }

  for (const int fd : fds) ::close(fd);
  EXPECT_EQ(daemon.Terminate(), 0);
  ::unlink(sock_path.c_str());
}

TEST(SocketTransportTest, ConcurrentConnectionsGetDistinctSessions) {
  const std::string sock_path = client::MakeTempPath("kbrepair_sock_conc_");
  ASSERT_FALSE(sock_path.empty());
  client::Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--shards", "4",
                          "--listen-unix", sock_path},
                         client::Stdio::kDetached)
                  .ok());

  constexpr size_t kThreads = 6;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<std::string> ids;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<int> fd = ConnectToDaemon(sock_path, nullptr);
      if (!fd.ok()) {
        ++failures;
        return;
      }
      LineChannel channel(*fd, *fd);
      JsonValue create = CreateParams(500 + t, "random", "");
      const std::string index = std::to_string(t);
      create.Set("id", JsonValue::String("t" + index));
      if (!channel.WriteLine(create.Dump()).ok()) {
        ++failures;
        ::close(*fd);
        return;
      }
      StatusOr<std::string> line = channel.ReadLine();
      if (!line.ok()) {
        ++failures;
        ::close(*fd);
        return;
      }
      StatusOr<JsonValue> response = JsonValue::Parse(*line);
      const std::string session =
          response.ok()
              ? response->Get("result").Get("session").AsString()
              : "";
      if (session.empty()) {
        ++failures;
      } else {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(session);
      }
      ::close(*fd);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ids.size(), kThreads)
      << "concurrent creates collided on a session id";
  EXPECT_EQ(daemon.Terminate(), 0);
  ::unlink(sock_path.c_str());
}

#else
TEST(SocketTransportTest, RequiresDaemonBinary) {
  GTEST_SKIP() << "KBREPAIRD_PATH not defined";
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
