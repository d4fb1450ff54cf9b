// kbrepaird: the repair-session daemon.
//
// Speaks the JSON-lines protocol over one of two transports:
//
//  * stdio (default): one request object per stdin line, one response
//    object per stdout line, correlated by the client-chosen "id"
//    (responses may be out of order — they are written as workers
//    finish). EOF on stdin triggers a graceful shutdown: queued
//    commands drain, transcripts flush, then the process exits 0.
//    Internally stdin is just one more framed connection — the same
//    LineFramer the socket transport uses.
//
//  * sockets (--listen-unix and/or --listen-tcp): a non-blocking epoll
//    listener multiplexes many concurrent client connections onto the
//    same protocol; stdin is ignored and the daemon runs until
//    SIGTERM/SIGINT, which drains and exits 0.
//
// One SessionManager front end serves every transport; with --shards N
// its session registry is split into N independent SessionShards
// (sessions routed by a stable hash of their id, WALs under
// <wal-dir>/shard-<i>/ when N > 1).
//
// Every integer flag must be a whole decimal number within its range
// (--workers 1-256, --shards 1-64, ports 0-65535, ...); anything else
// exits 2 with usage before a single thread starts.
//
// Usage:
//   kbrepaird [--workers N] [--max-queue N] [--ttl-seconds S]
//             [--transcript-dir DIR] [--wal-dir DIR] [--recover-dir DIR]
//             [--deadline-ms N]
//             [--mem-budget BYTES[K|M|G]]
//             [--trace-dir DIR] [--failpoints SPEC]
//             [--shards N] [--listen-unix PATH]
//             [--listen-tcp PORT] [--listen-tcp-port-file PATH]
//             [--http-port N] [--http-port-file PATH]
//             [--log-level LEVEL] [--log-file PATH]

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/http_exporter.h"
#include "service/net/framer.h"
#include "service/net/line_server.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/log.h"

namespace kbrepair {
namespace {

// Self-pipe written by the SIGTERM/SIGINT handler; poll()/epoll-era
// signal handling without sigwait threads.
int g_signal_pipe_write = -1;

extern "C" void HandleTermSignal(int) {
  if (g_signal_pipe_write >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe_write, &byte, 1);
  }
}

// Upper bounds of the thread-count flags: a typo must not start
// thousands of threads (the daemon runs shards * (workers + 1)).
constexpr int64_t kMaxShards = 64;
constexpr int64_t kMaxWorkers = 256;

// The whole of `text` as a finite, non-negative decimal number of
// seconds ("0", "30", "2.5"): no sign, whitespace, suffix, nan, inf or
// overflow.
bool ParseSeconds(const std::string& text, double* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// "262144", "256K", "64M", "2G" -> bytes; false on a malformed size or
// one past INT64_MAX bytes.
bool ParseByteSize(std::string text, int64_t* bytes) {
  int64_t multiplier = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': multiplier = int64_t{1} << 10; break;
      case 'm': case 'M': multiplier = int64_t{1} << 20; break;
      case 'g': case 'G': multiplier = int64_t{1} << 30; break;
      default: break;
    }
    if (multiplier != 1) text.pop_back();
  }
  int64_t value = 0;
  if (!ParseInteger(text, 0, INT64_MAX / multiplier, &value)) return false;
  *bytes = value * multiplier;
  return true;
}

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--ttl-seconds S] [--transcript-dir DIR]\n"
         "  [--workers N]            worker threads per shard (1-256,"
         " default 4)\n"
         "  [--max-queue N]          commands in flight per shard before"
         " overload rejections (1-16777216, default 1024)\n"
         "  [--wal-dir DIR]          write-ahead log accepted commands to"
         " DIR/<session>.wal\n"
         "  [--recover-dir DIR]      like --wal-dir, plus replay every WAL"
         " found there at startup\n"
         "  [--deadline-ms N]        per-command deadline (0-86400000;"
         " 0 = none)\n"
         "  [--mem-budget BYTES]     soft memory ceiling (K/M/G suffix ok;"
         " 0 = unlimited): at the budget new creates are shed and idle"
         " sessions evicted\n"
         "  [--trace-dir DIR]        record per-phase tracing spans; the"
         " `trace` command drains them to DIR/trace-NNNNN.jsonl\n"
         "  [--failpoints SPEC]      arm failpoints, e.g."
         " 'wal.fsync=1,chase.saturate' (also via KBREPAIR_FAILPOINTS)\n"
         "  [--shards N]             split the session registry into N"
         " independent shards (1-64, default 1)\n"
         "  [--chase-threads N]      accepted and ignored (1-64)\n"
         "  [--listen-unix PATH]     accept JSON-lines connections on a"
         " Unix-domain socket at PATH\n"
         "  [--listen-tcp PORT]      accept JSON-lines connections on"
         " 127.0.0.1:PORT (0-65535; 0 = ephemeral)\n"
         "  [--listen-tcp-port-file PATH]  write the bound JSON-lines TCP"
         " port to PATH\n"
         "  [--http-port N]          serve /metrics /healthz /readyz"
         " /statusz on 127.0.0.1:N (0-65535; 0 = ephemeral; port logged on"
         " stderr)\n"
         "  [--http-port-file PATH]  write the bound HTTP port to PATH\n"
         "  [--log-level LEVEL]      debug|info|warn|error (default info)\n"
         "  [--log-file PATH]        append JSON log lines to PATH instead"
         " of stderr\n";
  return 2;
}

// The stdio transport: reads stdin through the same LineFramer the
// socket transport uses — stdin is literally a single-connection
// adapter over the shared framing code — while also watching the
// signal self-pipe so SIGTERM drains instead of killing mid-command.
void ServeStdio(SessionManager& manager, int signal_fd) {
  std::mutex stdout_mu;
  auto emit = [&stdout_mu](std::string line) {
    std::lock_guard<std::mutex> lock(stdout_mu);
    std::cout << line << "\n" << std::flush;
  };

  net::LineFramer framer;
  char buffer[65536];
  for (;;) {
    pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {signal_fd, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      logging::Info("kbrepaird", "termination signal; shutting down");
      return;
    }
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: graceful shutdown
    std::vector<std::string> lines;
    if (!framer.Feed(buffer, static_cast<size_t>(n), &lines)) {
      for (std::string& line : lines) manager.SubmitLine(line, emit);
      emit(ErrorResponseForLine(
          "", Status::InvalidArgument(
                  "request line exceeds " +
                  std::to_string(framer.max_line_bytes()) + " bytes")));
      logging::Error("kbrepaird", "unbounded stdin line; shutting down");
      return;
    }
    for (std::string& line : lines) manager.SubmitLine(line, emit);
  }
  logging::Info("kbrepaird", "stdin closed; shutting down");
}

int Main(int argc, char** argv) {
  ServiceConfig config;
  std::string listen_unix;
  int listen_tcp = -1;  // -1 = no TCP listener; 0 = ephemeral port
  std::string listen_tcp_port_file;
  int http_port = -1;  // -1 = exporter off; 0 = ephemeral port
  std::string http_port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    // The value of an integer flag, or false (reported) when it is
    // missing, malformed or outside [min, max].
    int64_t number = 0;
    auto next_integer = [&](const char* flag, int64_t min, int64_t max) {
      const char* v = next_value(flag);
      return v != nullptr && ParseInteger(v, min, max, &number, flag);
    };
    if (arg == "--workers") {
      if (!next_integer("--workers", 1, kMaxWorkers)) return Usage(argv[0]);
      config.num_workers = static_cast<size_t>(number);
    } else if (arg == "--max-queue") {
      if (!next_integer("--max-queue", 1, int64_t{1} << 24)) {
        return Usage(argv[0]);
      }
      config.max_queue = static_cast<size_t>(number);
    } else if (arg == "--ttl-seconds") {
      const char* v = next_value("--ttl-seconds");
      if (v == nullptr) return Usage(argv[0]);
      if (!ParseSeconds(v, &config.idle_ttl_seconds)) {
        std::cerr << "--ttl-seconds: expected a non-negative number of "
                     "seconds, got '"
                  << v << "'\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--transcript-dir") {
      const char* v = next_value("--transcript-dir");
      if (v == nullptr) return Usage(argv[0]);
      config.transcript_dir = v;
    } else if (arg == "--wal-dir") {
      const char* v = next_value("--wal-dir");
      if (v == nullptr) return Usage(argv[0]);
      config.wal_dir = v;
    } else if (arg == "--recover-dir") {
      const char* v = next_value("--recover-dir");
      if (v == nullptr) return Usage(argv[0]);
      config.wal_dir = v;
      config.recover = true;
    } else if (arg == "--deadline-ms") {
      if (!next_integer("--deadline-ms", 0, 86400000)) return Usage(argv[0]);
      config.deadline_ms = number;
    } else if (arg == "--mem-budget") {
      const char* v = next_value("--mem-budget");
      if (v == nullptr) return Usage(argv[0]);
      if (!ParseByteSize(v, &config.mem_budget_bytes)) {
        std::cerr << "--mem-budget: expected BYTES with optional K/M/G"
                     " suffix, at most 2^63-1 bytes, got '" << v << "'\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--trace-dir") {
      const char* v = next_value("--trace-dir");
      if (v == nullptr) return Usage(argv[0]);
      config.trace_dir = v;
    } else if (arg == "--shards") {
      if (!next_integer("--shards", 1, kMaxShards)) return Usage(argv[0]);
      config.num_shards = static_cast<size_t>(number);
    } else if (arg == "--chase-threads") {
      // Ignored (the chase is single-threaded); perfbench still passes it.
      if (!next_integer("--chase-threads", 1, 64)) return Usage(argv[0]);
    } else if (arg == "--listen-unix") {
      const char* v = next_value("--listen-unix");
      if (v == nullptr) return Usage(argv[0]);
      listen_unix = v;
    } else if (arg == "--listen-tcp") {
      if (!next_integer("--listen-tcp", 0, 65535)) return Usage(argv[0]);
      listen_tcp = static_cast<int>(number);
    } else if (arg == "--listen-tcp-port-file") {
      const char* v = next_value("--listen-tcp-port-file");
      if (v == nullptr) return Usage(argv[0]);
      listen_tcp_port_file = v;
    } else if (arg == "--http-port") {
      if (!next_integer("--http-port", 0, 65535)) return Usage(argv[0]);
      http_port = static_cast<int>(number);
    } else if (arg == "--http-port-file") {
      const char* v = next_value("--http-port-file");
      if (v == nullptr) return Usage(argv[0]);
      http_port_file = v;
    } else if (arg == "--log-level") {
      const char* v = next_value("--log-level");
      if (v == nullptr) return Usage(argv[0]);
      StatusOr<logging::Level> level = logging::ParseLevel(v);
      if (!level.ok()) {
        std::cerr << "--log-level: " << level.status() << "\n";
        return Usage(argv[0]);
      }
      logging::Logger::Instance().SetLevel(*level);
    } else if (arg == "--log-file") {
      const char* v = next_value("--log-file");
      if (v == nullptr) return Usage(argv[0]);
      const Status opened = logging::Logger::Instance().OpenFile(v);
      if (!opened.ok()) {
        std::cerr << "--log-file: " << opened << "\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--failpoints") {
      const char* v = next_value("--failpoints");
      if (v == nullptr) return Usage(argv[0]);
      const Status armed = failpoint::Configure(v);
      if (!armed.ok()) {
        std::cerr << "--failpoints: " << armed << "\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }

  // A client that vanishes mid-response must not kill the daemon; the
  // failed write surfaces as a stream error instead.
  ::signal(SIGPIPE, SIG_IGN);
  failpoint::InitFromEnvOnce();

  // Graceful SIGTERM/SIGINT via a self-pipe, for both transports.
  int signal_pipe[2];
  if (::pipe(signal_pipe) != 0) {
    std::cerr << "pipe() failed\n";
    return 1;
  }
  g_signal_pipe_write = signal_pipe[1];
  struct sigaction action {};
  action.sa_handler = HandleTermSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  SessionManager manager(config);

  const bool socket_mode = !listen_unix.empty() || listen_tcp >= 0;
  logging::Info("kbrepaird", "daemon started")
      .With("workers", static_cast<int64_t>(config.num_workers))
      .With("shards", static_cast<int64_t>(config.num_shards))
      .With("transport", socket_mode ? "socket" : "stdio")
      .With("wal", !config.wal_dir.empty())
      .With("mem_budget_bytes", config.mem_budget_bytes)
      .With("tracing", !config.trace_dir.empty());

  // The exporter starts after recovery (the manager constructor), so a
  // scrape never observes a half-recovered registry; it stops after
  // Shutdown(), so /readyz reports shutdown-in-progress during the
  // drain instead of going dark.
  std::unique_ptr<HttpExporter> exporter;
  if (http_port >= 0) {
    HttpExporter::Options options;
    options.port = http_port;
    options.port_file = http_port_file;
    HttpExporter::Hooks hooks;
    hooks.append_metrics = [&manager](std::string* out) {
      manager.AppendMetricsText(out);
    };
    hooks.readiness_causes = [&manager] { return manager.ReadinessCauses(); };
    hooks.statusz = [&manager] { return manager.StatuszJson(); };
    exporter = std::make_unique<HttpExporter>(options, std::move(hooks));
    const Status started = exporter->Start();
    if (!started.ok()) {
      // Stdout belongs to the wire protocol; the bind failure goes to
      // the log and the daemon refuses to start half-observable.
      logging::Error("kbrepaird", "http exporter failed to start")
          .With("error", started.message());
      return 1;
    }
  }

  std::unique_ptr<net::LineServer> server;
  if (socket_mode) {
    net::LineServerOptions options;
    options.unix_path = listen_unix;
    options.tcp = listen_tcp >= 0;
    options.tcp_port = listen_tcp >= 0 ? listen_tcp : 0;
    options.tcp_port_file = listen_tcp_port_file;
    net::LineServer::Handlers handlers;
    // Handlers only run while the server is alive; capturing the
    // unique_ptr by reference is safe and lets Send target it.
    handlers.on_line = [&manager, &server](net::LineServer::ConnId conn,
                                           std::string line) {
      manager.SubmitLine(line, [&server, conn](std::string response) {
        server->Send(conn, response + "\n");
      });
    };
    handlers.framing_error = [](const std::string& reason) {
      return ErrorResponseForLine("", Status::InvalidArgument(reason)) + "\n";
    };
    server = std::make_unique<net::LineServer>(options, std::move(handlers));
    const Status started = server->Start();
    if (!started.ok()) {
      logging::Error("kbrepaird", "listener failed to start")
          .With("error", started.message());
      return 1;
    }

    // Sockets carry the protocol; stdin is ignored. Park until a
    // termination signal arrives.
    char byte;
    for (;;) {
      const ssize_t n = ::read(signal_pipe[0], &byte, 1);
      if (n > 0) break;
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) break;
    }
    logging::Info("kbrepaird", "termination signal; shutting down");
  } else {
    ServeStdio(manager, signal_pipe[0]);
  }

  // Drain first (queued commands complete and their responses flush
  // through the still-running transport), then stop the transport.
  manager.Shutdown();
  if (server != nullptr) server->Stop();
  if (exporter != nullptr) exporter->Stop();
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
