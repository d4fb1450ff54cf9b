// The client side of kbrepaird: one library through which every harness
// spawns the daemon, waits for its listener, calls it over the
// JSON-lines protocol and scrapes its HTTP exporter. kbrepair-client,
// load_gen, chaos_soak and the daemon-level tests link it; the daemon
// itself does not.
//
//   Daemon      one fork/execv path for the three stdio wirings in use;
//               SIGTERM, close-stdin, kill -9 and deadline waits.
//   Connect...  the port file and one connect-when-ready retry loop.
//   Connection  a pipelined, thread-safe JSON-lines connection over the
//               daemon's pipes or an adopted socket, demultiplexed by
//               correlation id, with the retry contract's backoff.
//   Http...     one raw HTTP exchange, GET on top of it, and the
//               Prometheus exposition validator.

#ifndef KBREPAIR_SERVICE_DAEMON_CLIENT_H_
#define KBREPAIR_SERVICE_DAEMON_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace client {

// ------------------------------------------------------------------
// The daemon process.

// How a spawned daemon's standard streams are wired.
enum class Stdio {
  kPipes,     // stdin and stdout are pipes to this process (stdio
              // transport); stderr is inherited
  kDetached,  // stdin on /dev/null, stdout and stderr inherited (socket
              // transports: socket-mode kbrepaird waits for SIGTERM)
  kSilent,    // stdin, stdout and stderr all on /dev/null
};

// A kbrepaird child process. Destroying a Daemon whose child still runs
// kills it with SIGKILL and reaps it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Forks and execs `args` (args[0] is the binary). A failed exec shows
  // up as the child exiting with 127.
  Status Start(const std::vector<std::string>& args, Stdio stdio);

  // True once the child has exited; reaps it without blocking.
  bool Exited();

  // kPipes: this process's ends of the child's stdin and stdout, or -1
  // once closed or handed to a Connection.
  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }

  // The waits return the child's exit code, or -1 when it died from a
  // signal, was never started, or had already been reaped.

  // SIGTERM, then waits.
  int Terminate();
  // Closes the pipe ends still held here (EOF on stdin is the daemon's
  // graceful shutdown), then waits. A Connection over the pipes must be
  // Close()d first.
  int CloseStdinAndWait();
  // Waits up to `deadline` for the child to exit on its own; on timeout
  // kills it and returns -1.
  int WaitFor(std::chrono::milliseconds deadline);
  // SIGKILL — no drain, no flush — then reaps and closes held pipes.
  void Kill9();

 private:
  friend class Connection;  // takes over the kPipes ends
  int Wait();
  void RecordExit(int wstatus);
  void ClosePipes();

  pid_t pid_ = -1;  // -1 once reaped
  int exit_code_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
};

// ------------------------------------------------------------------
// Finding the listener.

// mkstemp-backed unique placeholder path "/tmp/<prefix>XXXXXX" for a
// socket or port file the daemon replaces; "" on failure.
std::string MakeTempPath(const std::string& prefix);

// The first integer in a daemon-written port file; 0 while the file is
// absent or partial.
int ReadPortFile(const std::string& path);

// Where a daemon accepts connections: a Unix socket path, a TCP
// host:port, or a port file the daemon publishes its ephemeral TCP port
// to (re-read on every attempt, so a restarted daemon's new port is
// found).
struct Endpoint {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
};

// Connects to `endpoint`, retrying every 10 ms until it accepts or
// `budget` runs out. With a `daemon`, fails at once with "daemon exited
// before accepting connections" when its child has exited. Returns the
// connected fd.
StatusOr<int> ConnectWhenReady(
    const Endpoint& endpoint, Daemon* daemon,
    std::chrono::milliseconds budget = std::chrono::seconds(10));

// ------------------------------------------------------------------
// The JSON-lines protocol.

// True for the codes the retry contract promises were never executed
// (the server pushed back before running the command), so a verbatim
// resend is safe.
bool IsRetryableCode(StatusCode code);

// The result of a response envelope, or its error as a Status.
// Unavailable, DeadlineExceeded and ResourceExhausted keep their codes;
// every other error is Internal, with the code name in the message.
StatusOr<JsonValue> ResultOf(const JsonValue& envelope);

// A pipelined JSON-lines connection to kbrepaird. Many threads may Call
// concurrently; a reader thread demultiplexes the out-of-order
// responses by correlation id. Constructing one ignores SIGPIPE process
// wide, so a daemon that hangs up surfaces as a status, not a signal.
class Connection {
 public:
  // Takes ownership of a connected Unix or TCP stream socket.
  explicit Connection(int socket_fd);
  // Speaks over the stdin/stdout pipes of a daemon started with
  // Stdio::kPipes, taking them over from `daemon`.
  explicit Connection(Daemon& daemon);
  // Stops the reader without waiting for answers still in flight, over
  // pipes as over sockets: a daemon that has not exited yet is left to
  // its Daemon (whose destructor kills it).
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Writes `request` with a fresh correlation id and returns the id
  // without waiting for the response.
  StatusOr<std::string> Send(JsonValue request);
  // Blocks for the response to `id` and returns ResultOf it. When the
  // connection closes first: Unavailable, and `id` stays listed in
  // UnansweredIds().
  StatusOr<JsonValue> Await(const std::string& id);
  // Send + Await. Retryable rejections are resent with the SAME id under
  // full-jitter exponential backoff (sleep uniform in [0, 10 ms <<
  // attempt], 4x for ResourceExhausted, five attempts), so sessions that
  // hit a saturated daemon together do not come back as one herd.
  // Everything else is final, and a closed connection ends the retries.
  StatusOr<JsonValue> Call(JsonValue request);

  // Reseeds the backoff jitter so fault drills replay identical sleeps.
  // Call before issuing requests. The default seed is entropy: jitter
  // never influences a repair outcome.
  void SeedBackoff(uint64_t seed);

  // Correlation ids written to the daemon but never answered — the
  // commands in doubt after a crash or hangup.
  std::vector<std::string> UnansweredIds();
  bool closed();
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  // Response lines that were not a JSON object with a string "id".
  uint64_t garbled_lines() const {
    return garbled_.load(std::memory_order_relaxed);
  }

  // Announces the end of requests and drains: closes the daemon's stdin
  // (pipes) or half-closes with SHUT_WR (sockets), waits until the
  // daemon has answered everything in flight and hung up, then closes.
  void Close();

 private:
  Status Write(const std::string& id, const std::string& line);
  void StartReader();
  void ReaderLoop();
  void HandleLine(const std::string& line);

  bool socket_ = false;  // read_fd_ == write_fd_ == a connected socket
  int read_fd_ = -1;
  std::mutex write_mu_;
  int write_fd_ = -1;  // guarded by write_mu_
  int stop_fds_[2] = {-1, -1};  // pipes only: closing [1] stops the reader
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> garbled_{0};
  std::atomic<uint64_t> retries_{0};
  std::mutex backoff_mu_;
  Rng backoff_rng_;  // guarded by backoff_mu_
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, JsonValue> responses_;  // guarded by mu_
  std::set<std::string> pending_;  // written, not yet answered; mu_
  bool closed_ = false;            // the reader saw EOF; mu_
  std::thread reader_;
};

// ------------------------------------------------------------------
// The HTTP exporter.

struct HttpResponse {
  int status = 0;
  std::string head;  // status line and headers
  std::string body;
};

// Sends `raw` verbatim on a fresh TCP connection and reads to EOF (the
// exporter closes after each response). Fails when the connection
// cannot be made, closes without a response, or the response lacks an
// "HTTP/1.1 <status>" line or the blank line ending its head.
StatusOr<HttpResponse> HttpExchange(const std::string& host, int port,
                                    const std::string& raw);
StatusOr<HttpResponse> HttpGet(const std::string& host, int port,
                               const std::string& path);

// Line-by-line Prometheus 0.0.4 validation, as strict as a scraper:
// every line newline-terminated and non-blank; only `# HELP` / `# TYPE`
// comments; metric names [a-zA-Z_:][a-zA-Z0-9_:]*; balanced label
// braces; a fully consumed numeric value; no duplicate series. Fills
// `series` (full series key -> value) and returns "" or a description
// of the first offending line.
std::string ValidateExposition(const std::string& body,
                               std::map<std::string, double>* series);

}  // namespace client
}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_DAEMON_CLIENT_H_
