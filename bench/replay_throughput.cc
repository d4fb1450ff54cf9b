// replay_throughput: how fast kbrepair-debug can reconstruct a repair
// session from its WAL.
//
// For each ladder config a live dialogue is recorded through the real
// InquiryEngine and written to an actual v2 WAL file; the timed unit is
// then a full cold reconstruction — ReadWalFile (parse + CRC check)
// followed by SessionTimeline::Create (validation replay through
// the engine) and ReplayVerify (byte-compare of every regenerated
// entry). The one series is keyed by the conflict engine's name,
// "incremental".
//
//   replay_throughput [--quick] [--out PATH] [--reps N]
//
// Output follows the BENCH_*.json size_ladder schema understood by
// bench_diff.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "debug/timeline.h"
#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "service/session.h"
#include "service/wal.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

struct LadderConfig {
  std::string label;
  size_t num_facts = 0;
  uint64_t kb_seed = 0;
};

struct Sample {
  double mean_ms = 0;
  double median_ms = 0;
  double max_ms = 0;
  size_t questions = 0;
};

JsonValue ConfigParams(const LadderConfig& config) {
  JsonValue p = JsonValue::Object();
  p.Set("kb", JsonValue::String("synthetic"));
  p.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(config.kb_seed)));
  p.Set("num_facts", JsonValue::Number(static_cast<int64_t>(config.num_facts)));
  p.Set("inconsistency_ratio", JsonValue::Number(0.25));
  p.Set("num_cdds", JsonValue::Number(int64_t{5}));
  p.Set("num_tgds", JsonValue::Number(int64_t{6}));
  p.Set("conflict_depth", JsonValue::Number(int64_t{2}));
  p.Set("routed_violation_share", JsonValue::Number(0.5));
  p.Set("strategy", JsonValue::String("opti-mcd"));
  p.Set("two_phase", JsonValue::Bool(true));
  p.Set("seed", JsonValue::Number(static_cast<int64_t>(config.kb_seed * 17 + 3)));
  p.Set("record_convergence", JsonValue::String("total"));
  return p;
}

// Records a live dialogue and writes it as a real WAL file; returns the
// WAL path and the number of questions answered.
StatusOr<size_t> RecordWal(const JsonValue& params, const std::string& dir,
                           const std::string& session_id) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb, BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  InquiryEngine engine(&kb, options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  KBREPAIR_ASSIGN_OR_RETURN(std::unique_ptr<SessionWal> wal,
                            SessionWal::Open(dir, session_id));
  KBREPAIR_RETURN_IF_ERROR(wal->Append(SessionWal::CreateRecord(params)));
  Rng chooser(params.Get("kb_seed").AsInt(0) * 101 + 13);
  size_t questions = 0;
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
    if (question == nullptr) break;
    const size_t choice = chooser.UniformIndex(question->fixes.size());
    const JsonValue entry = SessionTranscript::EntryToJson(
        TranscriptEntry{*question, choice}, kb.symbols());
    KBREPAIR_RETURN_IF_ERROR(wal->Append(SessionWal::AnswerRecord(entry)));
    KBREPAIR_RETURN_IF_ERROR(engine.Answer(choice));
    ++questions;
  }
  return questions;
}

// One timed unit: cold load + validation replay + byte-exact verify.
Status ReplayOnce(const std::string& wal_path, size_t* questions_out) {
  KBREPAIR_ASSIGN_OR_RETURN(WalRecovery recorded,
                            ReadWalFile(wal_path, "bench"));
  debug::TimelineOptions options;
  options.checkpoint_every = 0;  // throughput, not time travel
  KBREPAIR_ASSIGN_OR_RETURN(
      debug::SessionTimeline timeline,
      debug::SessionTimeline::Create(std::move(recorded), options));
  KBREPAIR_RETURN_IF_ERROR(timeline.ReplayVerify());
  *questions_out = timeline.num_questions();
  return Status::Ok();
}

StatusOr<Sample> Measure(const std::string& wal_path, size_t reps) {
  std::vector<double> times;
  times.reserve(reps);
  size_t questions = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    KBREPAIR_RETURN_IF_ERROR(ReplayOnce(wal_path, &questions));
    const auto end = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count() /
        1e6);
  }
  std::sort(times.begin(), times.end());
  Sample sample;
  sample.questions = questions;
  sample.median_ms = times[times.size() / 2];
  sample.max_ms = times.back();
  for (const double t : times) sample.mean_ms += t;
  sample.mean_ms /= static_cast<double>(times.size());
  return sample;
}

JsonValue SampleJson(const Sample& sample) {
  JsonValue out = JsonValue::Object();
  out.Set("mean_delay_ms", JsonValue::Number(sample.mean_ms));
  out.Set("median_delay_ms", JsonValue::Number(sample.median_ms));
  out.Set("max_delay_ms", JsonValue::Number(sample.max_ms));
  return out;
}

int Main(int argc, char** argv) {
  bool quick = false;
  size_t reps = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0] << " [--quick] [--out PATH] [--reps N]\n";
      return 2;
    }
  }
  if (reps == 0) reps = quick ? 5 : 20;

  std::vector<LadderConfig> ladder = {
      {"120 atoms", 120, 7},
      {"240 atoms", 240, 11},
  };
  if (!quick) ladder.push_back({"480 atoms", 480, 5});

  char dir_tmpl[] = "/tmp/kbrepair_replay_bench_XXXXXX";
  if (::mkdtemp(dir_tmpl) == nullptr) {
    std::cerr << "mkdtemp failed\n";
    return 1;
  }
  const std::string dir = dir_tmpl;

  JsonValue ladder_json = JsonValue::Array();
  int exit_code = 0;
  for (size_t i = 0; i < ladder.size(); ++i) {
    const LadderConfig& config = ladder[i];
    const JsonValue params = ConfigParams(config);
    const std::string session_id = "bench-" + std::to_string(i);
    const StatusOr<size_t> recorded = RecordWal(params, dir, session_id);
    if (!recorded.ok()) {
      std::cerr << config.label << ": record failed: " << recorded.status()
                << "\n";
      exit_code = 1;
      break;
    }
    const std::string wal_path = dir + "/" + session_id + ".wal";
    const StatusOr<Sample> incremental = Measure(wal_path, reps);
    if (!incremental.ok()) {
      std::cerr << config.label << ": replay failed: "
                << incremental.status() << "\n";
      exit_code = 1;
      break;
    }
    std::fprintf(stderr, "%-12s %3zu questions  %.3f ms  (%zu reps)\n",
                 config.label.c_str(), incremental->questions,
                 incremental->mean_ms, reps);
    JsonValue entry = JsonValue::Object();
    entry.Set("config", JsonValue::String(config.label));
    entry.Set("num_facts",
              JsonValue::Number(static_cast<int64_t>(config.num_facts)));
    entry.Set("questions",
              JsonValue::Number(static_cast<int64_t>(incremental->questions)));
    entry.Set("incremental", SampleJson(*incremental));
    ladder_json.Append(std::move(entry));
  }

  const std::string cleanup = "rm -rf '" + dir + "'";
  if (std::system(cleanup.c_str()) != 0) {
    std::cerr << "warning: cleanup of " << dir << " failed\n";
  }
  if (exit_code != 0) return exit_code;

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::String("replay_throughput"));
  doc.Set("reps", JsonValue::Number(static_cast<int64_t>(reps)));
  doc.Set("size_ladder", std::move(ladder_json));
  const std::string rendered = doc.Dump();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << rendered << "\n";
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::cout << rendered << "\n";
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
