// Request-path tracing and per-phase time accounting.
//
// Two cooperating facilities, both driven by the same RAII guard
// (ScopedSpan):
//
//  * Phase accounting (always on): every instrumented region is tagged
//    with a Phase; a thread-local accumulator sums the wall time spent
//    in each phase on this thread. Callers snapshot the accumulator
//    around a unit of work (ThreadPhaseTotals / PhaseTotals::Since) and
//    attribute the delta — this is what feeds the per-strategy /
//    per-engine phase histograms in ServiceMetrics and the fig5 delay
//    breakdown. Nested regions are *inclusive*: a chase running under
//    question generation counts in both kChase and kQuestionGen.
//
//  * Span collection (off by default): when the recorder is enabled
//    (--trace-dir), each region additionally emits a span — monotonic
//    start + duration, a thread-local parent id forming a proper tree
//    per thread, an optional detail annotation — into a per-thread
//    buffer. Buffers are drained on demand (the `trace` wire command)
//    and written as JSON lines via AtomicWriteFile.
//
// Cost model, mirroring util/failpoint: when disabled, a span is two
// steady_clock reads, one relaxed atomic load, and one thread-local
// add — no allocation, no locking, no id assignment. The < 2%
// bench/delta_chase budget in ISSUE 4 is measured against exactly this
// path. When enabled, the completed-span append takes a per-thread
// mutex that only the infrequent drainer ever contends on.

#ifndef KBREPAIR_UTIL_TRACE_H_
#define KBREPAIR_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace kbrepair {
namespace trace {

// The instrumented phases of the repair pipeline. Stable order — these
// index fixed-size arrays in ServiceMetrics and QuestionRecord.
enum class Phase : int {
  kRepairability = 0,  // Π-skeleton builds and Π-REPOPT full checks
  kQuestionGen,        // sound-question generation (Algorithm 2)
  kApplyFix,           // fix application + census/skeleton maintenance
  kChase,              // full chase: IncrementalChase::Initialize
  kDeltaChase,         // delta re-saturation: IncrementalChase::ApplyFix
  kConflictScan,       // homomorphism enumeration over CDD bodies
  kWalAppend,          // WAL append + fsync
  kNone,               // span carries no phase attribution
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kNone);

// Short stable name ("chase", "wal_append", ...) used as the metric and
// span-field key.
const char* PhaseName(Phase phase);

// Cumulative per-phase seconds recorded by the calling thread. Cheap
// value type: snapshot before a unit of work, snapshot after, subtract.
struct PhaseTotals {
  double seconds[kNumPhases] = {};

  // Component-wise `*this - earlier` (this must be the later snapshot).
  PhaseTotals Since(const PhaseTotals& earlier) const;
  void Add(const PhaseTotals& delta);
  double TotalSeconds() const;
};

// Snapshot of the calling thread's accumulator.
PhaseTotals ThreadPhaseTotals();

// One completed span, as drained from the recorder.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root of its tree
  const char* name = "";  // static string supplied at the span site
  Phase phase = Phase::kNone;
  int64_t start_us = 0;  // steady clock, relative to Enable()
  int64_t duration_us = 0;
  uint32_t thread = 0;  // per-process thread registration index
  std::string detail;   // optional "k=v ..." annotation
};

// JSON object for one span:
// {"id":..,"parent":..,"name":"..","phase":"..","thread":..,
//  "start_us":..,"dur_us":..,"detail":".."}  — phase omitted for kNone,
// detail omitted if empty.
JsonValue SpanToJson(const SpanRecord& span);

// Single-line rendering of SpanToJson (the --trace-dir file format).
std::string SpanToJsonLine(const SpanRecord& span);

// Process-wide span sink. All methods are thread-safe except where
// noted; recording costs nothing (beyond the disabled-path loads) until
// Enable() is called.
class Recorder {
 public:
  static Recorder& Instance();

  // Turns span collection on. `dir` may be empty: spans are then only
  // available through Drain() / the `trace` wire command; otherwise
  // DrainToFile() writes JSON lines under it. Resets the epoch that
  // start_us is measured from.
  void Enable(std::string dir);

  // Turns collection off and discards anything still buffered.
  void Disable();

  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  // Moves every buffered completed span out of the per-thread buffers,
  // ordered by start time. Spans still open stay with their thread and
  // surface on a later drain.
  std::vector<SpanRecord> Drain();

  // Drain() + atomic write of <dir>/trace-<seq>.jsonl. Returns the file
  // path, or InvalidArgument when no sink directory was configured.
  // Drained spans are also returned through *spans when non-null (they
  // are consumed either way).
  StatusOr<std::string> DrainToFile(std::vector<SpanRecord>* spans = nullptr);

  // Spans dropped because a thread buffer hit its cap, since Enable().
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  bool has_sink() const;

 private:
  friend class ScopedSpan;
  friend struct ThreadState;

  Recorder() = default;

  static std::atomic<bool>& enabled_flag();

  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> next_file_seq_{1};
  std::atomic<uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_{};
};

// RAII region guard. Always feeds the thread-local phase accumulator
// (unless phase == kNone); additionally records a span when the
// recorder is enabled. The name must be a string literal (it is stored
// by pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Phase phase = Phase::kNone);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a "k=v ..." annotation; no-op (and no allocation) when the
  // span is not being recorded.
  void Annotate(const std::string& detail);
  bool recording() const { return recording_; }

 private:
  const char* name_;
  Phase phase_;
  bool recording_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  std::string detail_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace trace
}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_TRACE_H_
