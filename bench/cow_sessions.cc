// cow_sessions: session-creation latency and daemon RSS, private KBs
// vs shared-base forks.
//
// Every config creates N sessions against an in-process SessionManager
// on the same synthetic KB. The "scratch" column builds a private KB
// per session (`create` with kb/kb_seed — generate, chase, census, all
// N times); the "incremental" column registers the KB once as a shared
// base and forks every session from the frozen snapshot (`create` with
// base=<name>, O(delta)). The column names keep the file compatible
// with the bench_diff gate's scratch/incremental schema; here they mean
// private vs forked.
//
// Each (config, mode) runs in a forked child process so the RSS deltas
// are clean: the child measures /proc/self/statm around its creation
// loop and reports per-session latency stats plus per-session resident
// growth over a pipe.
//
// `--quick` is the CI gate's ladder (diffed against
// bench/baselines/BENCH_cow_sessions_quick.json by bench/bench_diff);
// there each forked sample times a batch of kQuickForkBatch creates
// (the row's "fork_batch"). `--json` / `--out FILE` emit the
// machine-readable baseline. The full ladder reproduces the headline
// claim: at 1k sessions on a 2000-atom base, forking is >=10x cheaper in
// both creation latency and per-session resident growth.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"

namespace kbrepair {
namespace bench {
namespace {

struct ModeRun {
  double mean_delay_ms = 0;
  double median_delay_ms = 0;
  double max_delay_ms = 0;
  double rss_per_session_kb = 0;
  double total_wall_s = 0;
};

struct Comparison {
  std::string label;
  size_t sessions = 0;
  size_t num_facts = 0;
  size_t fork_batch = 1;  // forked creates per timed sample
  ModeRun priv;    // "scratch": one private KB per session
  ModeRun forked;  // "incremental": forks of one shared base
  double latency_speedup = 0;
  double rss_ratio = 0;
};

// Resident set in KiB, from /proc/self/statm (Linux only; 0 elsewhere).
double ResidentKb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

ServiceRequest MakeRequest(const JsonValue& params) {
  ServiceRequest request;
  request.command = params.Get("command").AsString();
  if (params.Get("session").is_string()) {
    request.session_id = params.Get("session").AsString();
  }
  request.params = params;
  return request;
}

// The KB every session opens: one deterministic inconsistent synthetic
// KB, sized by the ladder.
void SetKbSource(JsonValue* params, size_t num_facts) {
  params->Set("kb", JsonValue::String("synthetic"));
  params->Set("kb_seed", JsonValue::Number(int64_t{9}));
  params->Set("num_facts",
              JsonValue::Number(static_cast<int64_t>(num_facts)));
  params->Set("num_cdds", JsonValue::Number(int64_t{8}));
  params->Set("inconsistency_ratio", JsonValue::Number(0.25));
}

// Forked creates per timed sample in the quick ladder. One fork takes
// tens of microseconds, far under bench_diff's quarter-millisecond
// absolute floor, so a sample times a batch: its mean clears the floor
// twice over and a 2x slowdown of the fork path fails the gate.
constexpr size_t kQuickForkBatch = 16;

// Child-process body: takes `sessions` samples, each timing `batch`
// creates in one of the two modes, and prints "mean median max
// rss_per_kb wall_s" to `out_fd` (latencies per sample, resident growth
// per created session).
int RunModeChild(int out_fd, size_t sessions, size_t num_facts,
                 bool shared_base, size_t batch) {
  ServiceConfig config;
  config.num_workers = 2;
  config.max_queue = sessions * batch + 16;
  SessionManager manager(config);

  if (shared_base) {
    JsonValue reg = JsonValue::Object();
    reg.Set("command", JsonValue::String("register-base"));
    reg.Set("name", JsonValue::String("bench-base"));
    SetKbSource(&reg, num_facts);
    StatusOr<JsonValue> registered = manager.Execute(MakeRequest(reg));
    KBREPAIR_CHECK(registered.ok()) << registered.status();
  }

  SampleStats delays;
  const double rss_before = ResidentKb();
  WallTimer wall;
  std::vector<ServiceRequest> requests(batch);
  for (size_t i = 0; i < sessions; ++i) {
    for (size_t b = 0; b < batch; ++b) {
      JsonValue create = JsonValue::Object();
      create.Set("command", JsonValue::String("create"));
      create.Set("strategy", JsonValue::String("random"));
      create.Set("engine", JsonValue::String("incremental"));
      create.Set("seed",
                 JsonValue::Number(static_cast<int64_t>(1000 + i * batch + b)));
      if (shared_base) {
        create.Set("base", JsonValue::String("bench-base"));
      } else {
        SetKbSource(&create, num_facts);
      }
      requests[b] = MakeRequest(create);
    }
    WallTimer timer;
    for (const ServiceRequest& request : requests) {
      StatusOr<JsonValue> created = manager.Execute(request);
      KBREPAIR_CHECK(created.ok()) << created.status();
    }
    delays.Add(timer.ElapsedMillis());
  }
  const double wall_s = wall.ElapsedSeconds();
  const double rss_after = ResidentKb();

  const BoxplotSummary box = delays.Boxplot();
  const size_t created = sessions * batch;
  const double per_session_kb =
      created > 0 ? (rss_after - rss_before) / static_cast<double>(created)
                  : 0;
  ::dprintf(out_fd, "%.6f %.6f %.6f %.3f %.3f\n", box.mean, box.median,
            box.max, per_session_kb, wall_s);
  return 0;
}

ModeRun RunMode(size_t sessions, size_t num_facts, bool shared_base,
               size_t batch) {
  int fds[2];
  KBREPAIR_CHECK(::pipe(fds) == 0);
  const pid_t pid = ::fork();
  KBREPAIR_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    ::close(fds[0]);
    const int rc =
        RunModeChild(fds[1], sessions, num_facts, shared_base, batch);
    ::close(fds[1]);
    ::_exit(rc);
  }
  ::close(fds[1]);
  std::string line;
  char buf[256];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    line.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  KBREPAIR_CHECK(::waitpid(pid, &status, 0) == pid);
  KBREPAIR_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "bench child failed (status " << status << ")";
  ModeRun run;
  KBREPAIR_CHECK(std::sscanf(line.c_str(), "%lf %lf %lf %lf %lf",
                             &run.mean_delay_ms, &run.median_delay_ms,
                             &run.max_delay_ms, &run.rss_per_session_kb,
                             &run.total_wall_s) == 5)
      << "bad child report: " << line;
  return run;
}

Comparison Compare(size_t sessions, size_t num_facts, size_t fork_batch) {
  Comparison c;
  c.label = std::to_string(sessions) + " sessions / " +
            std::to_string(num_facts) + " atoms";
  c.sessions = sessions;
  c.num_facts = num_facts;
  c.fork_batch = fork_batch;
  c.priv = RunMode(sessions, num_facts, /*shared_base=*/false, 1);
  c.forked = RunMode(sessions, num_facts, /*shared_base=*/true, fork_batch);
  const double per_fork_ms =
      c.forked.mean_delay_ms / static_cast<double>(fork_batch);
  c.latency_speedup = per_fork_ms > 0 ? c.priv.mean_delay_ms / per_fork_ms : 0;
  c.rss_ratio = c.forked.rss_per_session_kb > 0
                    ? c.priv.rss_per_session_kb / c.forked.rss_per_session_kb
                    : 0;
  return c;
}

std::string Fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string ComparisonJson(const Comparison& c) {
  auto mode_json = [](const ModeRun& run) {
    return std::string("{\"mean_delay_ms\": ") + Fmt(run.mean_delay_ms, 3) +
           ", \"median_delay_ms\": " + Fmt(run.median_delay_ms, 3) +
           ", \"max_delay_ms\": " + Fmt(run.max_delay_ms, 3) +
           ", \"rss_per_session_kb\": " + Fmt(run.rss_per_session_kb, 1) +
           ", \"wall_seconds\": " + Fmt(run.total_wall_s, 3) + "}";
  };
  return "    {\"config\": \"" + c.label +
         "\", \"sessions\": " + std::to_string(c.sessions) +
         ", \"num_facts\": " + std::to_string(c.num_facts) +
         ", \"fork_batch\": " + std::to_string(c.fork_batch) +
         ",\n     \"scratch\": " + mode_json(c.priv) +
         ",\n     \"incremental\": " + mode_json(c.forked) +
         ",\n     \"latency_speedup\": " + Fmt(c.latency_speedup, 2) +
         ", \"rss_ratio\": " + Fmt(c.rss_ratio, 2) + "}";
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main(int argc, char** argv) {
  using namespace kbrepair;
  using namespace kbrepair::bench;

  bool emit_json = false;
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      emit_json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--quick] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  // Ladder: (sessions, base atoms). Quick keeps the CI gate in the
  // seconds range; the full run carries the 1k-session headline config.
  std::vector<std::pair<size_t, size_t>> ladder;
  if (quick) {
    ladder = {{16, 240}, {64, 240}};
  } else {
    ladder = {{64, 2000}, {256, 2000}, {1024, 2000}};
  }
  const size_t fork_batch = quick ? kQuickForkBatch : 1;

  std::printf(
      "cow_sessions — session creation, private KB (scratch) vs "
      "shared-base fork (incremental)%s\n",
      quick ? ", quick ladder" : "");
  if (fork_batch > 1) {
    std::printf("forked latency per batch of %zu creates; speedup per create\n",
                fork_batch);
  }
  std::printf("%-28s %14s %14s %9s %12s %12s %9s\n", "config",
              "private (ms)", "forked (ms)", "speedup", "priv RSS/s",
              "fork RSS/s", "RSS x");

  std::vector<Comparison> size_ladder;
  for (const auto& [sessions, num_facts] : ladder) {
    size_ladder.push_back(Compare(sessions, num_facts, fork_batch));
    const Comparison& c = size_ladder.back();
    std::printf("%-28s %14s %14s %8sx %10sKB %10sKB %8sx\n", c.label.c_str(),
                Fmt(c.priv.mean_delay_ms, 3).c_str(),
                Fmt(c.forked.mean_delay_ms, 3).c_str(),
                Fmt(c.latency_speedup, 1).c_str(),
                Fmt(c.priv.rss_per_session_kb, 1).c_str(),
                Fmt(c.forked.rss_per_session_kb, 1).c_str(),
                Fmt(c.rss_ratio, 1).c_str());
  }

  if (emit_json) {
    std::string json = "{\n  \"bench\": \"cow_sessions\",\n";
    json += "  \"size_ladder\": [\n";
    for (size_t i = 0; i < size_ladder.size(); ++i) {
      json += ComparisonJson(size_ladder[i]);
      json += i + 1 < size_ladder.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    if (out_path.empty()) {
      std::printf("\n--- JSON baseline ---\n%s", json.c_str());
    } else {
      FILE* f = std::fopen(out_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("\nJSON written to %s\n", out_path.c_str());
    }
  }
  return 0;
}
