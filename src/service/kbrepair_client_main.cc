// kbrepair-client: scripted driver and correctness checker for
// `kbrepaird`.
//
// Runs N concurrent scripted repair sessions against the daemon over
// the JSON-lines protocol. Each driver thread answers every question
// with Rng(seed_i).UniformIndex(num_fixes) — the same draw RandomUser
// makes — so the whole dialogue is deterministic. After closing its
// session (include_facts) the driver replays the identical inquiry
// in-process with a fresh engine and the same seed and demands the
// repaired fact base match byte for byte: concurrency in the service
// must not change any repair.
//
// Transports (--transport):
//   stdio  spawn the daemon and speak over its stdin/stdout pipes
//          (the default; one connection by construction);
//   unix   spawn the daemon with --listen-unix on a temp socket and
//          fan the sessions over --connections socket connections;
//   tcp    same over a loopback TCP listener on an ephemeral port.
// With --connect TARGET the client skips the spawn and drives an
// already-running daemon (TARGET is a socket path or HOST:PORT); the
// spawn-only checks (exit code, metrics ledger balance) are skipped
// because the daemon's history is not ours.
//
// Exit 0 iff every session verified and — when we spawned the daemon —
// the final metrics are coherent (opened == completed == N, active ==
// 0, no errors).
//
// Usage:
//   kbrepair-client [--server PATH] [--sessions N] [--workers N]
//                   [--transport stdio|unix|tcp] [--connections N]
//                   [--connect TARGET] [--shards N]
//                   [--kb NAME] [--strategy NAME] [--seed S] [--quiet]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/daemon_client.h"
#include "service/protocol.h"
#include "service/session.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

using client::Connection;
using client::Daemon;
using client::HttpGet;
using client::HttpResponse;

// "HOST:PORT", ":PORT" or bare "PORT" (host defaults to loopback).
bool ParseTcpTarget(const std::string& target, std::string* host,
                    int* port) {
  const size_t colon = target.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? target : target.substr(colon + 1);
  *host = (colon == std::string::npos || colon == 0)
              ? "127.0.0.1"
              : target.substr(0, colon);
  int64_t number = 0;
  if (!ParseInteger(port_text, 1, 65535, &number)) return false;
  *port = static_cast<int>(number);
  return true;
}

// Parses "[http://]HOST:PORT[/path]" (default path /statusz).
bool ParseScrapeUrl(std::string url, std::string* host, int* port,
                    std::string* path) {
  const std::string prefix = "http://";
  if (url.compare(0, prefix.size(), prefix) == 0) {
    url = url.substr(prefix.size());
  }
  const size_t slash = url.find('/');
  *path = slash == std::string::npos ? "/statusz" : url.substr(slash);
  const std::string host_port =
      slash == std::string::npos ? url : url.substr(0, slash);
  return host_port.find(':') != std::string::npos &&
         ParseTcpTarget(host_port, host, port);
}

// Two-space-indented JSON rendering (Dump() is single-line by design).
void PrettyPrint(const JsonValue& value, size_t depth, std::string* out) {
  const std::string pad(2 * depth, ' ');
  if (value.is_object()) {
    if (value.members().empty()) {
      *out += "{}";
      return;
    }
    *out += "{\n";
    bool first = true;
    for (const auto& [key, member] : value.members()) {
      if (!first) *out += ",\n";
      first = false;
      *out += pad + "  " + JsonValue::String(key).Dump() + ": ";
      PrettyPrint(member, depth + 1, out);
    }
    *out += "\n" + pad + "}";
    return;
  }
  if (value.is_array()) {
    if (value.size() == 0) {
      *out += "[]";
      return;
    }
    *out += "[\n";
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) *out += ",\n";
      *out += pad + "  ";
      PrettyPrint(value.at(i), depth + 1, out);
    }
    *out += "\n" + pad + "]";
    return;
  }
  *out += value.Dump();
}

// --scrape: fetch one endpoint and pretty-print it. JSON bodies
// (/statusz) are re-indented; everything else prints verbatim.
int ScrapeMain(const std::string& url) {
  std::string host, path;
  int port = 0;
  if (!ParseScrapeUrl(url, &host, &port, &path)) {
    std::cerr << "--scrape: cannot parse '" << url
              << "' (expected [http://]HOST:PORT[/path], PORT 1-65535)\n";
    return 2;
  }
  StatusOr<HttpResponse> response = HttpGet(host, port, path);
  if (!response.ok()) {
    std::cerr << "--scrape: " << response.status() << "\n";
    return 1;
  }
  StatusOr<JsonValue> parsed = JsonValue::Parse(response->body);
  if (parsed.ok() && (parsed->is_object() || parsed->is_array())) {
    std::string pretty;
    PrettyPrint(*parsed, 0, &pretty);
    std::cout << pretty << "\n";
  } else {
    std::cout << response->body;
    if (!response->body.empty() && response->body.back() != '\n') {
      std::cout << "\n";
    }
  }
  return response->status == 200 ? 0 : 1;
}

// ------------------------------------------------------------------

struct ClientOptions {
  std::string server_path;
  size_t sessions = 8;
  size_t workers = 4;
  std::string kb = "synthetic";
  std::string strategy = "random";
  // When non-empty: register one shared base KB under this name (built
  // from --kb/--seed) before driving, fork every session from it with
  // `create {"base": NAME}`, and after the drive check the base ledger
  // (list-bases + metrics) balances. The oracle replays against the
  // base KB params, so byte-identity still holds.
  std::string base;
  uint64_t seed = 20180326;  // EDBT'18
  bool quiet = false;
  // Protocol channel: "stdio" (spawned daemon's pipes), "unix"
  // (--listen-unix socket) or "tcp" (loopback listener).
  std::string transport = "stdio";
  // When non-empty: drive an already-running daemon at this target (a
  // socket path, or HOST:PORT / :PORT for TCP) instead of spawning one.
  std::string connect;
  // Socket transports only: number of connections the sessions are
  // spread over (round-robin). Stdio is one connection by construction.
  size_t connections = 1;
  // > 0: forward --shards to the spawned daemon.
  size_t shards = 0;
  // >= 0: start the daemon with --http-port N (0 = ephemeral) and after
  // the sessions finish validate all four observability endpoints,
  // cross-checking /metrics histogram counts against the JSON `metrics`
  // command.
  int http_port = -1;
  // When non-empty: start the daemon with --trace-dir, then after the
  // sessions finish issue the `trace` command, validate the span tree
  // and print an aggregated summary.
  std::string trace_dir;
  // Extra flags forwarded to the spawned daemon (repeatable
  // --server-arg), e.g. --wal-dir or --failpoints for fault drills.
  std::vector<std::string> server_args;
  // When set (--retry-seed / KBREPAIR_RETRY_SEED): seed the retry
  // backoff jitter deterministically, decorrelated per connection, so
  // chaos drills replay the same sleep schedule. Default: entropy.
  bool retry_seed_set = false;
  uint64_t retry_seed = 0;
};

JsonValue CreateParams(const ClientOptions& options, uint64_t seed_i) {
  JsonValue params = JsonValue::Object();
  if (options.base.empty()) {
    params.Set("kb", JsonValue::String(options.kb));
    params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  } else {
    params.Set("base", JsonValue::String(options.base));
  }
  params.Set("strategy", JsonValue::String(options.strategy));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  return params;
}

// The KB the session actually repairs: its own (kb_seed = seed_i) in
// private mode, the one registered base (kb_seed = options.seed) when
// forking.
JsonValue OracleParams(const ClientOptions& options, uint64_t seed_i) {
  JsonValue params = JsonValue::Object();
  params.Set("kb", JsonValue::String(options.kb));
  params.Set("kb_seed",
             JsonValue::Number(static_cast<int64_t>(
                 options.base.empty() ? seed_i : options.seed)));
  params.Set("strategy", JsonValue::String(options.strategy));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  return params;
}

// ------------------------------------------------------------------

// Fetches all four endpoints from a healthy daemon and cross-checks
// /metrics against the JSON `metrics` response. Returns "" or the
// first failure.
std::string CheckExporter(int port, const JsonValue& json_metrics,
                          bool quiet) {
  StatusOr<HttpResponse> health = HttpGet("127.0.0.1", port, "/healthz");
  if (!health.ok()) return "healthz: " + health.status().ToString();
  if (health->status != 200) {
    return "healthz: HTTP " + std::to_string(health->status);
  }
  StatusOr<HttpResponse> ready = HttpGet("127.0.0.1", port, "/readyz");
  if (!ready.ok()) return "readyz: " + ready.status().ToString();
  if (ready->status != 200) {
    return "readyz: HTTP " + std::to_string(ready->status) + " (" +
           ready->body + ")";
  }
  StatusOr<HttpResponse> statusz = HttpGet("127.0.0.1", port, "/statusz");
  if (!statusz.ok()) return "statusz: " + statusz.status().ToString();
  if (statusz->status != 200) {
    return "statusz: HTTP " + std::to_string(statusz->status);
  }
  StatusOr<JsonValue> status_json = JsonValue::Parse(statusz->body);
  if (!status_json.ok() || !status_json->is_object()) {
    return "statusz: body is not a JSON object";
  }
  if (status_json->Get("sessions_active").AsInt(-1) != 0) {
    return "statusz: sessions_active != 0 after all sessions closed";
  }
  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  if (!metrics.ok()) return "metrics: " + metrics.status().ToString();
  if (metrics->status != 200) {
    return "metrics: HTTP " + std::to_string(metrics->status);
  }
  std::map<std::string, double> series;
  const std::string parse_error =
      client::ValidateExposition(metrics->body, &series);
  if (!parse_error.empty()) return "metrics exposition: " + parse_error;

  // Histogram figures must match the JSON `metrics` command: both are
  // rendered from the same snapshot path, and the drivers are done, so
  // turn_delay can no longer move.
  const auto expect = [&](const std::string& name,
                          double want) -> std::string {
    auto it = series.find(name);
    if (it == series.end()) return name + " missing from /metrics";
    if (std::abs(it->second - want) > 1e-6 * (1.0 + std::abs(want))) {
      return name + " = " + std::to_string(it->second) +
             ", JSON metrics say " + std::to_string(want);
    }
    return "";
  };
  const JsonValue& turn_delay = json_metrics.Get("turn_delay");
  const double count = turn_delay.Get("count").AsDouble(-1);
  std::string problem =
      expect("kbrepair_turn_delay_seconds_count", count);
  if (problem.empty()) {
    // sum ≈ mean * count (the JSON reports mean_ms; both derive from
    // the same sum_micros counter).
    problem = expect("kbrepair_turn_delay_seconds_sum",
                     turn_delay.Get("mean_ms").AsDouble(0) * count / 1e3);
  }
  if (problem.empty()) {
    problem = expect(
        "kbrepair_questions_served_total",
        json_metrics.Get("traffic").Get("questions_served").AsDouble(-1));
  }
  if (!problem.empty()) return problem;
  if (!quiet) {
    std::cout << "exporter: " << series.size()
              << " series validated on port " << port << "\n";
  }
  return "";
}

// One scripted session over the wire. On success returns the number of
// questions answered; any mismatch or server error is a Status.
StatusOr<size_t> DriveSession(Connection& server,
                              const ClientOptions& options, size_t index) {
  const uint64_t seed_i = options.seed + index;
  Rng rng(seed_i);

  JsonValue create = CreateParams(options, seed_i);
  create.Set("command", JsonValue::String("create"));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created, server.Call(std::move(create)));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) {
    return Status::Internal("create returned no session id");
  }

  size_t answered = 0;
  for (;;) {
    JsonValue ask = JsonValue::Object();
    ask.Set("command", JsonValue::String("ask"));
    ask.Set("session", JsonValue::String(session));
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked, server.Call(std::move(ask)));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes =
        asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) {
      return Status::Internal("question with no fixes on " + session);
    }
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    KBREPAIR_RETURN_IF_ERROR(server.Call(std::move(answer)).status());
    ++answered;
    if (answered > 100000) {
      return Status::Internal("session " + session + " does not converge");
    }
  }

  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed, server.Call(std::move(close)));
  if (!closed.Get("consistent").AsBool(false)) {
    return Status::Internal("session " + session + " closed inconsistent");
  }

  // Byte-for-byte comparison against the single-threaded engine.
  KBREPAIR_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                            OracleFacts(OracleParams(options, seed_i), seed_i));
  const JsonValue& facts = closed.Get("facts");
  if (!facts.is_array() || facts.size() != oracle.size()) {
    return Status::Internal(
        "session " + session + ": service repaired " +
        std::to_string(facts.size()) + " facts, oracle " +
        std::to_string(oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (facts.at(i).AsString() != oracle[i]) {
      return Status::Internal("session " + session + ": fact " +
                              std::to_string(i) + " diverged: service '" +
                              facts.at(i).AsString() + "' vs oracle '" +
                              oracle[i] + "'");
    }
  }
  return answered;
}

// ------------------------------------------------------------------
// Span-tree validation and summary for --trace-dir.

struct SpanInfo {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string detail;
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

// Validates the `trace` response and prints an aggregated name-path
// tree. Returns a failure description, or "" when the tree is sound.
//
// Well-formedness checked:
//  * every span has an id, a name and non-negative times;
//  * ids are unique; a parent id is always smaller than its child's
//    (spans are numbered in creation order). A parent missing from the
//    drain is legal — it was still open when the buffer was drained;
//  * a child's [start, end] nests inside its parent's (1us truncation
//    slop);
//  * the expected request path is covered: scheduler (rpc.*), session
//    handlers, inquiry, chase, and — when a WAL is configured — the
//    wal.append leaf;
//  * every session.ask / session.answer span carries "session=<id>
//    step=<k>" annotations and, per session, steps never go backwards
//    in span creation order.
std::string CheckAndPrintTrace(const JsonValue& result, bool expect_wal,
                               bool quiet) {
  if (!result.Get("enabled").AsBool(false)) {
    return "trace: recorder disabled on the server";
  }
  const JsonValue& spans_json = result.Get("spans");
  if (!spans_json.is_array() || spans_json.size() == 0) {
    return "trace: no spans returned";
  }
  std::vector<SpanInfo> spans;
  spans.reserve(spans_json.size());
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans_json.size(); ++i) {
    const JsonValue& json = spans_json.at(i);
    SpanInfo info;
    info.id = static_cast<uint64_t>(json.Get("id").AsInt(0));
    info.parent = static_cast<uint64_t>(json.Get("parent").AsInt(0));
    info.name = json.Get("name").AsString();
    info.detail = json.Get("detail").AsString();
    info.start_us = json.Get("start_us").AsInt(-1);
    info.dur_us = json.Get("dur_us").AsInt(-1);
    if (info.id == 0 || info.name.empty() || info.start_us < 0 ||
        info.dur_us < 0) {
      return "trace: malformed span at index " + std::to_string(i);
    }
    if (by_id.count(info.id) != 0) {
      return "trace: duplicate span id " + std::to_string(info.id);
    }
    by_id[info.id] = spans.size();
    spans.push_back(std::move(info));
  }
  for (const SpanInfo& span : spans) {
    if (span.parent == 0) continue;
    if (span.parent >= span.id) {
      return "trace: span " + std::to_string(span.id) +
             " has parent id >= its own";
    }
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) continue;
    const SpanInfo& parent = spans[it->second];
    if (span.start_us < parent.start_us ||
        span.start_us + span.dur_us >
            parent.start_us + parent.dur_us + 1) {
      return "trace: span '" + span.name + "' not nested inside parent '" +
             parent.name + "'";
    }
  }

  // Aggregate count/total time per name path. Parents always have
  // smaller ids, so an id-ordered pass resolves each path in one step.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans[a].id < spans[b].id;
  });
  std::map<uint64_t, std::string> path_of;
  std::map<std::string, std::pair<size_t, int64_t>> by_path;
  std::set<std::string> names;
  for (const size_t index : order) {
    const SpanInfo& span = spans[index];
    auto parent_it = path_of.find(span.parent);
    const std::string path = parent_it != path_of.end()
                                 ? parent_it->second + "/" + span.name
                                 : span.name;
    path_of[span.id] = path;
    auto& agg = by_path[path];
    agg.first += 1;
    agg.second += span.dur_us;
    names.insert(span.name);
  }

  std::vector<std::string> required = {
      "rpc.create", "rpc.ask",           "rpc.answer",
      "rpc.close",  "session.ask",       "session.answer",
      "session.close", "inquiry.next_question"};
  if (expect_wal) required.push_back("wal.append");
  for (const std::string& name : required) {
    if (names.count(name) == 0) {
      return "trace: required span '" + name + "' missing";
    }
  }
  if (names.count("chase.saturate") == 0 &&
      names.count("chase.delta_saturate") == 0) {
    return "trace: no chase span (chase.saturate / chase.delta_saturate)";
  }

  // Session command spans carry "session=<id> step=<k>"; per session
  // the step is non-decreasing in creation (id) order — the id-sorted
  // pass above established that order. A step going backwards would
  // mean the daemon re-ran an earlier question.
  std::map<std::string, std::pair<int64_t, uint64_t>> last_step;
  for (const size_t index : order) {
    const SpanInfo& span = spans[index];
    if (span.name != "session.ask" && span.name != "session.answer") continue;
    std::string session;
    int64_t step = -1;
    std::istringstream detail(span.detail);
    std::string token;
    while (detail >> token) {
      if (token.rfind("session=", 0) == 0) session = token.substr(8);
      if (token.rfind("step=", 0) == 0) {
        step = std::atoll(token.c_str() + 5);
      }
    }
    if (session.empty() || step <= 0) {
      return "trace: span '" + span.name + "' (id " +
             std::to_string(span.id) + ") lacks session=/step= detail: '" +
             span.detail + "'";
    }
    const auto [it, inserted] =
        last_step.emplace(session, std::make_pair(step, span.id));
    if (!inserted) {
      if (step < it->second.first) {
        return "trace: session " + session + " step went backwards: span " +
               std::to_string(span.id) + " has step=" + std::to_string(step) +
               " after span " + std::to_string(it->second.second) +
               " reached step=" + std::to_string(it->second.first);
      }
      it->second = {step, span.id};
    }
  }

  if (!quiet) {
    std::cout << "trace: " << result.Get("total_spans").AsInt(0)
              << " spans, " << result.Get("dropped").AsInt(0) << " dropped";
    if (result.Get("file").is_string()) {
      std::cout << ", file " << result.Get("file").AsString();
    }
    std::cout << "\n";
    // Lexicographic order lists each parent path right before its
    // children, so indenting by depth renders the tree.
    for (const auto& [path, agg] : by_path) {
      const size_t depth =
          static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
      const size_t leaf = path.rfind('/');
      std::string line(2 + 2 * depth, ' ');
      line += leaf == std::string::npos ? path : path.substr(leaf + 1);
      if (line.size() < 44) line.resize(44, ' ');
      std::cout << line << " x" << agg.first << "  "
                << static_cast<double>(agg.second) / 1e3 << " ms\n";
    }
  }
  return "";
}

// ------------------------------------------------------------------

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--server PATH] [--server-arg ARG]... [--sessions N]"
               " [--workers N] [--kb NAME] [--strategy NAME]"
               " [--base NAME] [--seed S]"
               " [--trace-dir DIR] [--http-port N]"
               " [--transport stdio|unix|tcp] [--connections N]"
               " [--connect TARGET] [--shards N] [--retry-seed S] [--quiet]\n"
               "       integers are checked: sessions 1-1024, connections"
               " 1-64, workers 1-256, shards 1-64, ports 0-65535,"
               " seeds 0-2^63-1 (also KBREPAIR_RETRY_SEED)\n"
               "       "
            << argv0
            << " --scrape [http://]HOST:PORT[/path]   fetch one"
               " observability endpoint (default path /statusz)\n";
  return 2;
}

std::string DefaultServerPath(const char* argv0) {
  const std::string self = argv0;
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "./kbrepaird";
  return self.substr(0, slash + 1) + "kbrepaird";
}

int Main(int argc, char** argv) {
  ClientOptions options;
  options.server_path = DefaultServerPath(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    int64_t number = 0;  // the value of an integer flag
    auto integer = [&](int64_t min, int64_t max) {
      return ParseInteger(v, min, max, &number, arg);
    };
    if (arg == "--server" && (v = next_value())) {
      options.server_path = v;
    } else if (arg == "--server-arg" && (v = next_value())) {
      options.server_args.push_back(v);
    } else if (arg == "--sessions" && (v = next_value())) {
      if (!integer(1, 1024)) return Usage(argv[0]);  // a thread each
      options.sessions = static_cast<size_t>(number);
    } else if (arg == "--workers" && (v = next_value())) {
      if (!integer(1, 256)) return Usage(argv[0]);
      options.workers = static_cast<size_t>(number);
    } else if (arg == "--kb" && (v = next_value())) {
      options.kb = v;
    } else if (arg == "--strategy" && (v = next_value())) {
      options.strategy = v;
    } else if (arg == "--base" && (v = next_value())) {
      options.base = v;
    } else if (arg == "--seed" && (v = next_value())) {
      if (!integer(0, INT64_MAX)) return Usage(argv[0]);
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--trace-dir" && (v = next_value())) {
      options.trace_dir = v;
    } else if (arg == "--http-port" && (v = next_value())) {
      if (!integer(0, 65535)) return Usage(argv[0]);
      options.http_port = static_cast<int>(number);
    } else if (arg == "--transport" && (v = next_value())) {
      options.transport = v;
    } else if (arg == "--connect" && (v = next_value())) {
      options.connect = v;
    } else if (arg == "--connections" && (v = next_value())) {
      if (!integer(1, 64)) return Usage(argv[0]);  // a socket each
      options.connections = static_cast<size_t>(number);
    } else if (arg == "--shards" && (v = next_value())) {
      if (!integer(1, 64)) return Usage(argv[0]);
      options.shards = static_cast<size_t>(number);
    } else if (arg == "--retry-seed" && (v = next_value())) {
      if (!integer(0, INT64_MAX)) return Usage(argv[0]);
      options.retry_seed = static_cast<uint64_t>(number);
      options.retry_seed_set = true;
    } else if (arg == "--scrape" && (v = next_value())) {
      return ScrapeMain(v);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  if (!options.retry_seed_set) {
    if (const char* env = std::getenv("KBREPAIR_RETRY_SEED")) {
      int64_t seed = 0;
      if (!ParseInteger(env, 0, INT64_MAX, &seed, "KBREPAIR_RETRY_SEED")) {
        return Usage(argv[0]);
      }
      options.retry_seed = static_cast<uint64_t>(seed);
      options.retry_seed_set = true;
    }
  }
  const bool external = !options.connect.empty();
  if (external && options.transport == "stdio") {
    // Infer the transport from the target: a path is a Unix socket,
    // anything with a port is TCP.
    options.transport =
        options.connect.find('/') != std::string::npos ? "unix" : "tcp";
  }
  if (options.transport != "stdio" && options.transport != "unix" &&
      options.transport != "tcp") {
    std::cerr << "--transport must be stdio, unix or tcp\n";
    return Usage(argv[0]);
  }
  if (options.transport == "stdio" && options.connections != 1) {
    std::cerr << "--connections requires a socket transport"
                 " (stdio is a single pipe pair)\n";
    return Usage(argv[0]);
  }
  if (external && (options.http_port >= 0 || !options.trace_dir.empty())) {
    std::cerr << "--connect drives an existing daemon; --http-port and"
                 " --trace-dir configure a spawned one\n";
    return Usage(argv[0]);
  }

  std::vector<std::string> server_argv = {
      options.server_path, "--workers", std::to_string(options.workers)};
  if (options.shards > 0) {
    server_argv.push_back("--shards");
    server_argv.push_back(std::to_string(options.shards));
  }
  if (!options.trace_dir.empty()) {
    server_argv.push_back("--trace-dir");
    server_argv.push_back(options.trace_dir);
  }
  // With --http-port the daemon writes its bound port to a temp file
  // (stdout is the protocol channel) for us to read after the drive.
  std::string port_file;
  if (options.http_port >= 0) {
    port_file = client::MakeTempPath("kbrepair-http-port-");
    if (port_file.empty()) {
      std::cerr << "cannot create HTTP port file\n";
      return 1;
    }
    server_argv.push_back("--http-port");
    server_argv.push_back(std::to_string(options.http_port));
    server_argv.push_back("--http-port-file");
    server_argv.push_back(port_file);
  }
  server_argv.insert(server_argv.end(), options.server_args.begin(),
                     options.server_args.end());

  // Establish the protocol channel(s). Stdio spawns the daemon on a
  // pipe pair; the socket transports either spawn it with a listener
  // (owning the process) or connect to --connect.
  Daemon daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  if (options.transport == "stdio") {
    const Status started = daemon.Start(server_argv, client::Stdio::kPipes);
    if (!started.ok()) {
      std::cerr << "failed to spawn " << options.server_path << ": "
                << started << "\n";
      return 1;
    }
    conns.push_back(std::make_unique<Connection>(daemon));
  } else {
    client::Endpoint endpoint;
    if (external) {
      if (options.transport == "unix") {
        endpoint.unix_path = options.connect;
      } else if (!ParseTcpTarget(options.connect, &endpoint.host,
                                 &endpoint.port)) {
        std::cerr << "--connect: cannot parse TCP target '"
                  << options.connect << "'\n";
        return 1;
      }
    } else {
      // The Unix socket is unlinked by the daemon on shutdown.
      const bool over_unix = options.transport == "unix";
      const std::string path = client::MakeTempPath(
          over_unix ? "kbrepair-sock-" : "kbrepair-listen-port-");
      if (path.empty()) {
        std::cerr << "cannot create a temp path for the listener\n";
        return 1;
      }
      if (over_unix) {
        endpoint.unix_path = path;
        server_argv.insert(server_argv.end(), {"--listen-unix", path});
      } else {
        endpoint.port_file = path;
        server_argv.insert(server_argv.end(),
                           {"--listen-tcp", "0", "--listen-tcp-port-file",
                            path});
      }
      const Status started =
          daemon.Start(server_argv, client::Stdio::kDetached);
      if (!started.ok()) {
        std::cerr << "failed to spawn " << options.server_path << ": "
                  << started << "\n";
        return 1;
      }
    }
    for (size_t i = 0; i < options.connections; ++i) {
      StatusOr<int> fd =
          client::ConnectWhenReady(endpoint, external ? nullptr : &daemon);
      if (!fd.ok()) {
        std::cerr << "cannot connect to the daemon: "
                  << fd.status().ToString() << "\n";
        return 1;
      }
      conns.push_back(std::make_unique<Connection>(*fd));
    }
    if (!endpoint.port_file.empty()) ::unlink(endpoint.port_file.c_str());
  }
  if (options.retry_seed_set) {
    // Decorrelate per connection so parallel links do not jitter in
    // lockstep, while each still replays deterministically.
    for (size_t i = 0; i < conns.size(); ++i) {
      conns[i]->SeedBackoff(options.retry_seed + i);
    }
  }
  Connection& server = *conns.front();

  std::mutex report_mu;
  std::vector<std::string> failures;
  std::atomic<size_t> total_questions{0};

  // Shared-base mode: register the one base every session forks from.
  // A registration failure makes driving pointless, so skip straight to
  // teardown and report it.
  bool drive = true;
  if (!options.base.empty()) {
    JsonValue reg = JsonValue::Object();
    reg.Set("command", JsonValue::String("register-base"));
    reg.Set("name", JsonValue::String(options.base));
    reg.Set("kb", JsonValue::String(options.kb));
    reg.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(options.seed)));
    StatusOr<JsonValue> registered = server.Call(std::move(reg));
    if (!registered.ok()) {
      failures.push_back("register-base: " + registered.status().ToString());
      drive = false;
    } else if (!options.quiet) {
      std::cout << "base '" << options.base << "' registered: "
                << registered->Dump() << "\n";
    }
  }

  std::vector<std::thread> drivers;
  drivers.reserve(drive ? options.sessions : 0);
  for (size_t i = 0; drive && i < options.sessions; ++i) {
    drivers.emplace_back([&, i] {
      // Sessions round-robin over the open connections; the protocol
      // pipelines, so many sessions per connection is the normal case.
      StatusOr<size_t> outcome =
          DriveSession(*conns[i % conns.size()], options, i);
      if (outcome.ok()) {
        total_questions.fetch_add(*outcome, std::memory_order_relaxed);
      } else {
        std::lock_guard<std::mutex> lock(report_mu);
        failures.push_back("session " + std::to_string(i) + ": " +
                           outcome.status().ToString());
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // The lifecycle ledger must balance: every session opened was closed.
  // Only meaningful for a daemon we spawned — an external one carries
  // whatever history it carries.
  JsonValue metrics_request = JsonValue::Object();
  metrics_request.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = server.Call(std::move(metrics_request));
  if (!metrics.ok()) {
    failures.push_back("metrics: " + metrics.status().ToString());
  } else {
    if (!external) {
      const JsonValue& sessions = metrics->Get("sessions");
      const int64_t opened = sessions.Get("opened").AsInt(-1);
      const int64_t completed = sessions.Get("completed").AsInt(-1);
      const int64_t active = sessions.Get("active").AsInt(-1);
      const int64_t expected = static_cast<int64_t>(options.sessions);
      if (opened != expected || completed != expected || active != 0) {
        failures.push_back(
            "metrics imbalance: opened=" + std::to_string(opened) +
            " completed=" + std::to_string(completed) +
            " active=" + std::to_string(active) + " expected " +
            std::to_string(expected) + "/" + std::to_string(expected) +
            "/0");
      }
    }
    if (!external && !options.base.empty() && drive) {
      // The base ledger must balance too: one base registered, one fork
      // per session. (Gauges live on one shard, so the sharded
      // aggregate sums correctly.)
      const JsonValue& bases = metrics->Get("bases");
      const int64_t registered = bases.Get("registered").AsInt(-1);
      const int64_t forks = bases.Get("forks").AsInt(-1);
      if (registered != 1 ||
          forks != static_cast<int64_t>(options.sessions)) {
        failures.push_back(
            "base metrics imbalance: registered=" +
            std::to_string(registered) + " forks=" + std::to_string(forks) +
            " expected 1/" + std::to_string(options.sessions));
      }
    }
    if (!options.quiet) {
      std::cout << "metrics: " << metrics->Dump() << "\n";
    }
  }

  if (!options.base.empty() && drive) {
    // list-bases over the wire: the base must still be live (it outlives
    // its sessions) with every handle released after the closes.
    JsonValue list = JsonValue::Object();
    list.Set("command", JsonValue::String("list-bases"));
    StatusOr<JsonValue> listed = server.Call(std::move(list));
    if (!listed.ok()) {
      failures.push_back("list-bases: " + listed.status().ToString());
    } else {
      const JsonValue& entries = listed->Get("bases");
      bool found = false;
      for (size_t i = 0; i < entries.size(); ++i) {
        const JsonValue& entry = entries.at(i);
        if (entry.Get("name").AsString() != options.base) continue;
        found = true;
        const int64_t refcount = entry.Get("refcount").AsInt(-1);
        const int64_t forks = entry.Get("forks").AsInt(-1);
        if (refcount != 0 || forks != static_cast<int64_t>(options.sessions)) {
          failures.push_back(
              "list-bases: refcount=" + std::to_string(refcount) +
              " forks=" + std::to_string(forks) + ", expected 0/" +
              std::to_string(options.sessions));
        }
      }
      if (!found) {
        failures.push_back("list-bases: base '" + options.base +
                           "' missing after drive");
      }
    }
  }

  if (options.http_port >= 0) {
    // The port file was written before the daemon started serving
    // requests, so after a full drive it must be present and complete.
    const int bound_port = client::ReadPortFile(port_file);
    if (bound_port <= 0) {
      failures.push_back("exporter: no bound port in " + port_file);
    } else if (!metrics.ok()) {
      failures.push_back("exporter: skipped (metrics command failed)");
    } else {
      const std::string problem =
          CheckExporter(bound_port, *metrics, options.quiet);
      if (!problem.empty()) failures.push_back("exporter: " + problem);
    }
    ::unlink(port_file.c_str());
  }

  if (!options.trace_dir.empty()) {
    const bool expect_wal =
        std::find(options.server_args.begin(), options.server_args.end(),
                  "--wal-dir") != options.server_args.end() ||
        std::find(options.server_args.begin(), options.server_args.end(),
                  "--recover-dir") != options.server_args.end();
    JsonValue trace_request = JsonValue::Object();
    trace_request.Set("command", JsonValue::String("trace"));
    StatusOr<JsonValue> traced = server.Call(std::move(trace_request));
    if (!traced.ok()) {
      failures.push_back("trace: " + traced.status().ToString());
    } else {
      const std::string problem =
          CheckAndPrintTrace(*traced, expect_wal, options.quiet);
      if (!problem.empty()) failures.push_back(problem);
    }
  }

  // Tear the connections down (pipes: EOF-triggered daemon shutdown;
  // sockets: SHUT_WR half-close and drain), then reap the daemon — a
  // socket-mode one with SIGTERM. Its graceful path must exit 0.
  for (const auto& conn : conns) conn->Close();
  int server_exit = 0;
  if (!external) {
    server_exit = options.transport == "stdio" ? daemon.CloseStdinAndWait()
                                               : daemon.Terminate();
  }
  if (!external && server_exit != 0) {
    failures.push_back("server exited with code " +
                       std::to_string(server_exit));
  }
  uint64_t garbled = 0;
  uint64_t retries = 0;
  std::vector<std::string> unanswered;
  for (const auto& conn : conns) {
    garbled += conn->garbled_lines();
    retries += conn->retries();
    for (std::string& id : conn->UnansweredIds()) {
      unanswered.push_back(std::move(id));
    }
  }
  if (garbled != 0) {
    failures.push_back(std::to_string(garbled) + " garbled response lines");
  }
  if (!unanswered.empty()) {
    std::string joined;
    for (const std::string& id : unanswered) {
      if (!joined.empty()) joined += ", ";
      joined += id;
    }
    failures.push_back("server hung up with " +
                       std::to_string(unanswered.size()) +
                       " unanswered command(s): " + joined);
  }
  if (!options.quiet && retries != 0) {
    std::cout << "retried " << retries
              << " command(s) after retryable errors\n";
  }

  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::cerr << "FAIL: " << failure << "\n";
    }
    return 1;
  }
  std::cout << "OK: " << options.sessions << " sessions, "
            << total_questions.load() << " questions, repairs byte-identical"
            << " to the single-threaded engine\n";
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
