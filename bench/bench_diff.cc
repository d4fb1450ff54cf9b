// bench_diff: the CI regression gate over BENCH_*.json files.
//
// Compares two benchmark JSON files in the BENCH_delta_chase.json
// schema (size_ladder / depth_ladder arrays of per-config rows), prints
// a per-series delta table, and exits nonzero when any gated series'
// mean delay regressed by more than the threshold. A *series* is any
// member of a row that is an object carrying "mean_delay_ms" (e.g.
// "incremental"); every series of a baseline row is gated.
//
//   bench_diff BASELINE.json NEW.json [--threshold PCT] [--min-abs-ms X]
//
// A regression must clear BOTH gates to fail the build: the relative
// threshold (default 15%) and an absolute floor (--min-abs-ms, default
// 0.05 ms) that keeps sub-scheduler-quantum noise on tiny configs from
// flapping the gate. Configs present in only one file are reported and
// fail the diff (exit 2), and so does a baseline series the fresh row
// lacks: a silently shrinking ladder is how a gate rots. A row that
// records how many questions its dialogue asked ("questions") fails the
// same way when the fresh row asked a different number: its delays then
// time another dialogue than the baseline's.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/schema.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace kbrepair {
namespace {

struct EngineResult {
  double mean_delay_ms = 0;
  double median_delay_ms = 0;
  double max_delay_ms = 0;
};

struct ConfigResult {
  // Series name ("incremental", ...) -> result.
  std::map<std::string, EngineResult> series;
  // The row's "questions" count; -1 when it records none.
  int64_t questions = -1;
};

// "size_ladder/400 atoms" -> result
using ResultMap = std::map<std::string, ConfigResult>;

StatusOr<JsonValue> LoadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::Parse(buffer.str());
}

EngineResult ParseEngine(const JsonValue& json) {
  EngineResult out;
  out.mean_delay_ms = json.Get("mean_delay_ms").AsDouble(-1);
  out.median_delay_ms = json.Get("median_delay_ms").AsDouble(-1);
  out.max_delay_ms = json.Get("max_delay_ms").AsDouble(-1);
  return out;
}

Status ParseBenchFile(const JsonValue& json, ResultMap* results) {
  if (!json.is_object()) return Status::InvalidArgument("not a JSON object");
  bool any_ladder = false;
  for (const char* ladder : {"size_ladder", "depth_ladder"}) {
    const JsonValue& entries = json.Get(ladder);
    if (!entries.is_array()) continue;
    any_ladder = true;
    for (size_t i = 0; i < entries.size(); ++i) {
      const JsonValue& entry = entries.at(i);
      const std::string config = entry.Get("config").AsString();
      if (config.empty()) {
        return Status::InvalidArgument(std::string(ladder) + "[" +
                                       std::to_string(i) + "] has no config");
      }
      ConfigResult result;
      for (const auto& [name, value] : entry.members()) {
        if (value.is_object() && value.Get("mean_delay_ms").is_number()) {
          result.series[name] = ParseEngine(value);
        }
      }
      result.questions = entry.Get("questions").AsInt(-1);
      if (result.series.empty()) {
        return Status::InvalidArgument("config '" + config +
                                       "' has no series with mean_delay_ms");
      }
      (*results)[std::string(ladder) + "/" + config] = result;
    }
  }
  if (!any_ladder) {
    return Status::InvalidArgument(
        "no size_ladder / depth_ladder array found");
  }
  return Status::Ok();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json NEW.json [--threshold PCT]"
               " [--min-abs-ms X]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::vector<std::string> files;
  double threshold_pct = 15.0;
  double min_abs_ms = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold_pct = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-abs-ms" && i + 1 < argc) {
      min_abs_ms = std::strtod(argv[++i], nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return Usage(argv[0]);

  ResultMap baseline, fresh;
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<JsonValue> json = LoadJsonFile(files[i]);
    if (!json.ok()) {
      std::fprintf(stderr, "%s: %s\n", files[i].c_str(),
                   json.status().ToString().c_str());
      return 2;
    }
    const Status parsed =
        ParseBenchFile(*json, i == 0 ? &baseline : &fresh);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", files[i].c_str(),
                   parsed.ToString().c_str());
      return 2;
    }
  }

  std::printf("bench_diff: %s -> %s (threshold %+.1f%%, abs floor %.3f ms)\n",
              files[0].c_str(), files[1].c_str(), threshold_pct, min_abs_ms);
  std::printf("%-34s %-12s %10s %10s %8s  %s\n", "config", "series",
              "base(ms)", "new(ms)", "delta", "verdict");

  bool regression = false;
  bool mismatch = false;
  for (const auto& [config, base] : baseline) {
    auto it = fresh.find(config);
    if (it == fresh.end()) {
      std::printf("%-34s MISSING from %s\n", config.c_str(),
                  files[1].c_str());
      mismatch = true;
      continue;
    }
    if (base.questions != it->second.questions) {
      std::printf("%-34s QUESTIONS %lld in %s, %lld in %s\n", config.c_str(),
                  static_cast<long long>(base.questions), files[0].c_str(),
                  static_cast<long long>(it->second.questions),
                  files[1].c_str());
      mismatch = true;
    }
    for (const auto& [series, old_run] : base.series) {
      auto fresh_series = it->second.series.find(series);
      if (fresh_series == it->second.series.end()) {
        std::printf("%-34s %-12s MISSING from %s\n", config.c_str(),
                    series.c_str(), files[1].c_str());
        mismatch = true;
        continue;
      }
      const double old_ms = old_run.mean_delay_ms;
      const double new_ms = fresh_series->second.mean_delay_ms;
      const double delta_pct =
          old_ms > 0 ? (new_ms - old_ms) / old_ms * 100.0 : 0.0;
      const bool regressed = delta_pct > threshold_pct &&
                             new_ms - old_ms > min_abs_ms;
      if (regressed) regression = true;
      std::printf("%-34s %-12s %10.3f %10.3f %+7.1f%%  %s\n", config.c_str(),
                  series.c_str(), old_ms, new_ms, delta_pct,
                  regressed ? "REGRESSION" : "ok");
    }
  }
  for (const auto& [config, result] : fresh) {
    (void)result;
    if (baseline.count(config) == 0) {
      std::printf("%-34s NEW (not in %s)\n", config.c_str(),
                  files[0].c_str());
      mismatch = true;
    }
  }

  if (mismatch) {
    std::fprintf(stderr,
                 "bench_diff: the fresh file lacks a baseline config or "
                 "series, adds a config, or asks a different number of "
                 "questions\n");
    return 2;
  }
  if (regression) {
    std::fprintf(stderr, "bench_diff: mean-delay regression past %.1f%%\n",
                 threshold_pct);
    return 1;
  }
  std::printf("bench_diff: no regression\n");
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
