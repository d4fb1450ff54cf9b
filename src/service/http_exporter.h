// Minimal HTTP/1.1 exporter for the repair daemon's observability
// surface. One dedicated accept thread serves four read-only endpoints:
//
//   GET /metrics  Prometheus text exposition (0.0.4) of ServiceMetrics
//   GET /healthz  liveness — 200 as long as the thread is serving
//   GET /readyz   readiness — 503 with one cause per line while the
//                 service is degraded (shutdown, worker stall, recent
//                 WAL fsync failure, WAL disk degraded, memory
//                 pressure)
//   GET /statusz  JSON snapshot: sessions, queue depth, uptime, build
//                 and flag info
//
// The exporter holds no reference to SessionManager's internals; the
// daemon wires it up through the three Hooks callbacks, which must be
// safe to call from the exporter thread at any time between Start()
// and Stop(). Connections are served one at a time on the accept
// thread — scrapes are rare (seconds apart) and responses are small,
// so a connection pool would be dead weight; a stuck client is bounded
// by the per-connection receive timeout.
//
// Failure injection: the `http.accept` failpoint drops accepted
// connections before reading, `http.write` fails response writes —
// both let tests exercise scraper-facing error paths deterministically.

#ifndef KBREPAIR_SERVICE_HTTP_EXPORTER_H_
#define KBREPAIR_SERVICE_HTTP_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

class HttpExporter {
 public:
  struct Options {
    int port = 0;  // 0 = kernel-assigned ephemeral port
    std::string bind_address = "127.0.0.1";
    // When set, the bound port is written here (atomically, as a bare
    // decimal line) once listening — the shell-friendly way to find an
    // ephemeral port, since stdout belongs to the wire protocol.
    std::string port_file;
    size_t max_request_bytes = 8192;  // request head cap -> 413
  };

  struct Hooks {
    // Appends the Prometheus exposition body. Required.
    std::function<void(std::string*)> append_metrics;
    // Current readiness-failure causes; empty means ready. Required.
    std::function<std::vector<std::string>()> readiness_causes;
    // /statusz JSON object. Required.
    std::function<JsonValue()> statusz;
  };

  HttpExporter(Options options, Hooks hooks);
  ~HttpExporter();  // calls Stop()

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  // Binds, listens, writes the port file, starts the accept thread.
  Status Start();
  // Idempotent. Unblocks the accept loop and joins the thread.
  void Stop();

  // The bound port (valid after a successful Start()).
  int port() const { return port_; }

  // Exporter-local counters, exposed in /metrics as
  // kbrepair_http_requests_total / kbrepair_http_errors_total.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t errors_served() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  Hooks hooks_;
  int listen_fd_ = -1;
  int port_ = -1;
  int64_t start_ns_ = 0;  // MonotonicNowNs() at Start()
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_HTTP_EXPORTER_H_
