// load_gen: open-loop socket-transport load generator for kbrepaird.
//
// Spawns the daemon with a Unix-domain (or loopback TCP) listener and a
// configurable shard count, opens C connections, and drives N scripted
// repair sessions concurrently: a first wave creates every session
// before any is answered (peak concurrency = N by construction), then
// pipelined ask/answer waves drive them all to completion. Every
// ask/answer round trip is timed client-side into the service's own
// LatencyHistogram, so the reported p50/p95/p99 use the same bucketing
// as the daemon's /metrics.
//
// The run emits one BENCH_*.json in the size_ladder schema bench_diff
// gates on, its one series keyed by the conflict engine's name:
//
//   {"bench":"load_gen", ..., "size_ladder":[
//     {"config":"...", "incremental":{"mean_delay_ms":...}}]}
//
// --quick runs a seconds-scale configuration for CI; the default
// configuration sustains 10k concurrent sessions against a 4-shard
// daemon.

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/daemon_client.h"
#include "service/metrics.h"
#include "service/net/framer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

struct LoadOptions {
  std::string server_path;
  std::string transport = "unix";  // unix | tcp
  size_t sessions = 10000;
  size_t connections = 16;
  size_t shards = 4;
  size_t workers = 4;
  size_t num_facts = 24;
  uint64_t seed = 20180326;
  std::string label;  // config name in the emitted ladder
  bool quick = false;
};

// ------------------------------------------------------------------
// One driver thread: a partition of sessions pipelined over one
// blocking connection, matched by correlation id.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Driver {
 public:
  Driver(int fd, size_t thread_index, size_t first_session,
         size_t session_count, const LoadOptions& options,
         LatencyHistogram* histogram)
      : fd_(fd),
        thread_index_(thread_index),
        first_session_(first_session),
        options_(options),
        histogram_(histogram) {
    sessions_.resize(session_count);
    for (size_t i = 0; i < session_count; ++i) {
      sessions_[i].rng = std::make_unique<Rng>(options.seed + first_session + i);
    }
  }

  // Runs the whole partition to completion. Returns the first error.
  Status Run() {
    KBREPAIR_RETURN_IF_ERROR(CreateWave());
    while (live_ != 0) {
      KBREPAIR_RETURN_IF_ERROR(TurnWave());
    }
    return Status::Ok();
  }

  uint64_t turns() const { return turns_; }
  uint64_t retries() const { return retries_; }

 private:
  struct SessionState {
    std::string id;            // server-assigned "s-<n>"
    std::unique_ptr<Rng> rng;  // the scripted user's draws
    bool done = false;         // repair converged; close pending
    bool closed = false;
  };

  struct InFlight {
    size_t session_index = 0;
    int64_t sent_ns = 0;
    bool timed = false;
    std::string line;  // resent verbatim on Unavailable
  };

  Status WriteAll(const std::string& data) {
    for (size_t off = 0; off < data.size();) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::Unavailable("write to daemon failed: " +
                                   std::string(std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  // Queues one command line; the wave's flush writes them in batches so
  // thousands of commands become a handful of large writes.
  void Enqueue(JsonValue params, size_t session_index, bool timed) {
    const std::string id =
        "t" + std::to_string(thread_index_) + "-" + std::to_string(next_id_++);
    params.Set("id", JsonValue::String(id));
    InFlight entry;
    entry.session_index = session_index;
    entry.timed = timed;
    entry.line = params.Dump() + "\n";
    outbox_ += entry.line;
    in_flight_.emplace(id, std::move(entry));
  }

  Status Flush() {
    // Stamp send time as late as possible so queue assembly does not
    // count against the daemon.
    const int64_t now = NowNs();
    for (auto& [id, entry] : in_flight_) {
      if (entry.sent_ns == 0) entry.sent_ns = now;
    }
    std::string batch;
    batch.swap(outbox_);
    return WriteAll(batch);
  }

  // Blocks until every in-flight command is answered; responses arrive
  // out of order across shards. Unavailable responses (admission-queue
  // pushback) are retried with the same correlation id.
  Status DrainResponses(std::vector<std::pair<size_t, JsonValue>>* results) {
    char chunk[1 << 16];
    std::vector<std::string> lines;
    while (!in_flight_.empty()) {
      lines.clear();
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Unavailable("daemon connection closed");
      if (!framer_.Feed(chunk, static_cast<size_t>(n), &lines)) {
        return Status::Internal("oversized response line");
      }
      std::string resend;
      for (const std::string& line : lines) {
        StatusOr<JsonValue> parsed = JsonValue::Parse(line);
        if (!parsed.ok()) return Status::Internal("garbled response line");
        const std::string id = parsed->Get("id").AsString();
        auto it = in_flight_.find(id);
        if (it == in_flight_.end()) {
          return Status::Internal("response for unknown id " + id);
        }
        if (!parsed->Get("ok").AsBool(false)) {
          const std::string code =
              parsed->Get("error").Get("code").AsString();
          if (code == "Unavailable" && retries_ < 100000) {
            // The bounded ready queue pushed back; the command was
            // never executed, so resending it is safe.
            ++retries_;
            it->second.sent_ns = 0;  // re-stamped on flush
            resend += it->second.line;
            continue;
          }
          return Status::Internal(
              "server error [" + code + "] " +
              parsed->Get("error").Get("message").AsString());
        }
        if (it->second.timed) {
          histogram_->Observe(
              static_cast<double>(NowNs() - it->second.sent_ns) / 1e9);
          ++turns_;
        }
        results->emplace_back(it->second.session_index,
                              parsed->Get("result"));
        in_flight_.erase(it);
      }
      if (!resend.empty()) {
        const int64_t now = NowNs();
        for (auto& [id, entry] : in_flight_) {
          if (entry.sent_ns == 0) entry.sent_ns = now;
        }
        KBREPAIR_RETURN_IF_ERROR(WriteAll(resend));
      }
    }
    return Status::Ok();
  }

  // Wave 0: create every session in the partition before answering any
  // question — after this wave the whole fleet is concurrently open.
  Status CreateWave() {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      JsonValue params = JsonValue::Object();
      params.Set("command", JsonValue::String("create"));
      params.Set("kb", JsonValue::String("synthetic"));
      params.Set("kb_seed",
                 JsonValue::Number(static_cast<int64_t>(
                     options_.seed + first_session_ + i)));
      params.Set("num_facts",
                 JsonValue::Number(static_cast<int64_t>(options_.num_facts)));
      params.Set("strategy", JsonValue::String("random"));
      params.Set("seed",
                 JsonValue::Number(static_cast<int64_t>(
                     options_.seed + first_session_ + i)));
      Enqueue(std::move(params), i, /*timed=*/false);
    }
    KBREPAIR_RETURN_IF_ERROR(Flush());
    std::vector<std::pair<size_t, JsonValue>> results;
    KBREPAIR_RETURN_IF_ERROR(DrainResponses(&results));
    for (auto& [index, result] : results) {
      sessions_[index].id = result.Get("session").AsString();
      if (sessions_[index].id.empty()) {
        return Status::Internal("create returned no session id");
      }
    }
    live_ = sessions_.size();
    return Status::Ok();
  }

  // One ask wave over every live session, then an answer/close wave
  // from the responses. Sessions converge at different turns, so the
  // wave narrows as the fleet drains.
  Status TurnWave() {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      SessionState& session = sessions_[i];
      if (session.closed) continue;
      JsonValue params = JsonValue::Object();
      params.Set("command",
                 JsonValue::String(session.done ? "close" : "ask"));
      params.Set("session", JsonValue::String(session.id));
      Enqueue(std::move(params), i, /*timed=*/!session.done);
    }
    KBREPAIR_RETURN_IF_ERROR(Flush());
    std::vector<std::pair<size_t, JsonValue>> results;
    KBREPAIR_RETURN_IF_ERROR(DrainResponses(&results));

    for (auto& [index, result] : results) {
      SessionState& session = sessions_[index];
      if (session.done) {  // this was the close response
        session.closed = true;
        --live_;
        continue;
      }
      if (result.Get("done").AsBool(false)) {
        session.done = true;  // close goes out with the next wave
        continue;
      }
      const int64_t num_fixes =
          result.Get("question").Get("num_fixes").AsInt(0);
      if (num_fixes <= 0) {
        return Status::Internal("question with no fixes on " + session.id);
      }
      JsonValue answer = JsonValue::Object();
      answer.Set("command", JsonValue::String("answer"));
      answer.Set("session", JsonValue::String(session.id));
      answer.Set("choice",
                 JsonValue::Number(static_cast<int64_t>(
                     session.rng->UniformIndex(
                         static_cast<size_t>(num_fixes)))));
      Enqueue(std::move(answer), index, /*timed=*/true);
    }
    if (!in_flight_.empty()) {
      KBREPAIR_RETURN_IF_ERROR(Flush());
      std::vector<std::pair<size_t, JsonValue>> answered;
      KBREPAIR_RETURN_IF_ERROR(DrainResponses(&answered));
    }
    return Status::Ok();
  }

  const int fd_;
  const size_t thread_index_;
  const size_t first_session_;
  const LoadOptions& options_;
  LatencyHistogram* histogram_;
  std::vector<SessionState> sessions_;
  size_t live_ = 0;
  uint64_t next_id_ = 0;
  uint64_t turns_ = 0;
  uint64_t retries_ = 0;
  std::string outbox_;
  std::unordered_map<std::string, InFlight> in_flight_;
  net::LineFramer framer_{1 << 20};
};

// ------------------------------------------------------------------
// One full load run: spawn, connect, drive, verify, reap.

struct RunResult {
  double wall_seconds = 0;
  uint64_t turns = 0;
  uint64_t retries = 0;
  LatencyHistogram histogram;
};

Status RunOnce(const LoadOptions& options, RunResult* out) {
  // The listener endpoint under a mkstemp name; the daemon replaces it.
  const bool over_unix = options.transport == "unix";
  const std::string listen_path = client::MakeTempPath(
      over_unix ? "kbrepair_load_sock_" : "kbrepair_load_port_");
  if (listen_path.empty()) return Status::Internal("mkstemp failed");
  std::vector<std::string> args = {
      options.server_path,
      "--workers", std::to_string(options.workers),
      "--shards", std::to_string(options.shards),
      // Admit a whole create wave without queue pushback; the retry
      // path still covers bursts past this.
      "--max-queue", std::to_string(std::max<size_t>(options.sessions, 1024)),
  };
  client::Endpoint endpoint;
  if (over_unix) {
    endpoint.unix_path = listen_path;
    args.insert(args.end(), {"--listen-unix", listen_path});
  } else {
    endpoint.port_file = listen_path;
    args.insert(args.end(),
                {"--listen-tcp", "0", "--listen-tcp-port-file", listen_path});
  }
  client::Daemon daemon;
  KBREPAIR_RETURN_IF_ERROR(daemon.Start(args, client::Stdio::kDetached));

  std::vector<int> fds;
  for (size_t i = 0; i < options.connections; ++i) {
    StatusOr<int> fd = client::ConnectWhenReady(endpoint, &daemon);
    if (!fd.ok()) {
      for (const int open_fd : fds) ::close(open_fd);
      ::unlink(listen_path.c_str());
      return fd.status();
    }
    fds.push_back(*fd);
  }

  // Partition the sessions across the connections as evenly as
  // possible; every connection gets its own driver thread.
  std::vector<std::unique_ptr<Driver>> drivers;
  size_t next_session = 0;
  for (size_t i = 0; i < options.connections; ++i) {
    const size_t share = options.sessions / options.connections +
                         (i < options.sessions % options.connections ? 1 : 0);
    drivers.push_back(std::make_unique<Driver>(
        fds[i], i, next_session, share, options, &out->histogram));
    next_session += share;
  }

  std::vector<std::thread> threads;
  std::vector<Status> outcomes(drivers.size(), Status::Ok());
  const int64_t start_ns = NowNs();
  for (size_t i = 0; i < drivers.size(); ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = drivers[i]->Run(); });
  }
  for (std::thread& thread : threads) thread.join();
  out->wall_seconds = static_cast<double>(NowNs() - start_ns) / 1e9;

  Status failure = Status::Ok();
  for (const Status& outcome : outcomes) {
    if (!outcome.ok()) {
      failure = outcome;
      break;
    }
  }
  for (const auto& driver : drivers) {
    out->turns += driver->turns();
    out->retries += driver->retries();
  }

  // Ledger check on a fresh connection: every session opened was
  // closed, none leaked.
  if (failure.ok()) {
    failure = [&]() -> Status {
      KBREPAIR_ASSIGN_OR_RETURN(const int fd,
                                client::ConnectWhenReady(endpoint, &daemon));
      client::Connection ledger(fd);
      JsonValue request = JsonValue::Object();
      request.Set("command", JsonValue::String("metrics"));
      KBREPAIR_ASSIGN_OR_RETURN(JsonValue metrics,
                                ledger.Call(std::move(request)));
      const JsonValue& sessions = metrics.Get("sessions");
      const int64_t opened = sessions.Get("opened").AsInt(-1);
      const int64_t active = sessions.Get("active").AsInt(-1);
      if (opened != static_cast<int64_t>(options.sessions) || active != 0) {
        return Status::Internal(
            "session ledger imbalance: opened=" + std::to_string(opened) +
            " active=" + std::to_string(active) + " expected " +
            std::to_string(options.sessions) + "/0");
      }
      return Status::Ok();
    }();
  }

  for (const int fd : fds) {
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
  const bool clean = daemon.Terminate() == 0;
  ::unlink(listen_path.c_str());
  if (!failure.ok()) return failure;
  if (!clean) return Status::Internal("daemon did not exit cleanly");
  return Status::Ok();
}

JsonValue EngineJson(const RunResult& run) {
  JsonValue out = JsonValue::Object();
  const auto ms = [](double seconds) {
    // Three decimals keeps the checked-in baseline diffable.
    return JsonValue::Number(std::round(seconds * 1e6) / 1e3);
  };
  out.Set("mean_delay_ms", ms(run.histogram.MeanSeconds()));
  out.Set("median_delay_ms", ms(run.histogram.QuantileSeconds(0.50)));
  out.Set("p95_ms", ms(run.histogram.QuantileSeconds(0.95)));
  out.Set("p99_ms", ms(run.histogram.QuantileSeconds(0.99)));
  out.Set("max_delay_ms", ms(run.histogram.MaxSeconds()));
  out.Set("turns", JsonValue::Number(static_cast<int64_t>(run.turns)));
  out.Set("retries", JsonValue::Number(static_cast<int64_t>(run.retries)));
  out.Set("wall_seconds",
          JsonValue::Number(std::round(run.wall_seconds * 1e3) / 1e3));
  out.Set("throughput_rps",
          JsonValue::Number(
              run.wall_seconds > 0
                  ? std::round(static_cast<double>(run.turns) /
                               run.wall_seconds)
                  : 0.0));
  return out;
}

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--sessions N] [--connections C] [--shards S] [--workers W]\n"
         "       [--transport unix|tcp] [--server PATH] [--num-facts F]\n"
         "       [--seed S] [--label STR] [--quick]\n"
         "Drives N concurrent scripted sessions over the daemon's socket\n"
         "transport and prints a bench_diff-compatible BENCH json.\n";
  return 2;
}

std::string DefaultServerPath(const char* argv0) {
  // load_gen lives in build/bench; kbrepaird in build/src/service.
  const std::string self = argv0;
  const size_t slash = self.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/../src/service/kbrepaird";
}

int Main(int argc, char** argv) {
  LoadOptions options;
#ifdef KBREPAIRD_PATH
  options.server_path = KBREPAIRD_PATH;
  (void)DefaultServerPath;
#else
  options.server_path = DefaultServerPath(argv[0]);
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--sessions" && (v = next_value())) {
      options.sessions = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--connections" && (v = next_value())) {
      options.connections =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--shards" && (v = next_value())) {
      options.shards = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--workers" && (v = next_value())) {
      options.workers = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--num-facts" && (v = next_value())) {
      options.num_facts = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed" && (v = next_value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--transport" && (v = next_value())) {
      options.transport = v;
    } else if (arg == "--server" && (v = next_value())) {
      options.server_path = v;
    } else if (arg == "--label" && (v = next_value())) {
      options.label = v;
    } else if (arg == "--quick") {
      options.quick = true;
      options.sessions = 256;
      options.connections = 4;
      options.shards = 2;
      options.workers = 2;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  if (options.transport != "unix" && options.transport != "tcp") {
    std::cerr << "--transport must be unix or tcp\n";
    return Usage(argv[0]);
  }
  if (options.sessions == 0) options.sessions = 1;
  if (options.connections == 0) options.connections = 1;
  if (options.connections > options.sessions) {
    options.connections = options.sessions;
  }
  if (options.label.empty()) {
    options.label = std::to_string(options.sessions) + " sessions / " +
                    std::to_string(options.connections) + " conns / " +
                    std::to_string(options.shards) + " shards";
  }
  ::signal(SIGPIPE, SIG_IGN);

  JsonValue entry = JsonValue::Object();
  entry.Set("config", JsonValue::String(options.label));
  entry.Set("sessions",
            JsonValue::Number(static_cast<int64_t>(options.sessions)));
  entry.Set("connections",
            JsonValue::Number(static_cast<int64_t>(options.connections)));
  entry.Set("shards",
            JsonValue::Number(static_cast<int64_t>(options.shards)));
  entry.Set("num_facts",
            JsonValue::Number(static_cast<int64_t>(options.num_facts)));
  RunResult run;
  const Status outcome = RunOnce(options, &run);
  if (!outcome.ok()) {
    std::cerr << "load_gen: " << outcome.ToString() << "\n";
    return 1;
  }
  std::cerr << "load_gen: " << options.sessions << " sessions, " << run.turns
            << " timed turns in " << run.wall_seconds << "s (" << run.retries
            << " retries)\n";
  entry.Set("incremental", EngineJson(run));

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::String("load_gen"));
  out.Set("transport", JsonValue::String(options.transport));
  out.Set("workers", JsonValue::Number(static_cast<int64_t>(options.workers)));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options.seed)));
  JsonValue ladder = JsonValue::Array();
  ladder.Append(std::move(entry));
  out.Set("size_ladder", std::move(ladder));
  std::cout << out.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
