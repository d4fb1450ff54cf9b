// SessionTimeline: deterministic time travel over a recorded repair
// session.
//
// The inquiry engine is a pure function of (create params, answer
// sequence), so a session's WAL is not just a recovery recipe — it is a
// replayable execution. The timeline loads it as the WalRecovery that
// ReadWalFile returns and materializes that execution as a *cursor*: a
// CoW-forked KnowledgeBase plus a live InquiryEngine, advanced one
// recorded entry at a time by ReplayRecordedEntry
// (repair/session_log.h) — the replay step daemon recovery uses, fsync
// ghost rule included. Stepping
// forward advances the current cursor; stepping backward re-materializes
// an earlier step from the nearest parked cursor (a ladder of them is
// pre-warmed every `checkpoint_every` steps at load, and every backward
// seek parks the cursor it leaves, so the recently-inspected
// neighbourhood stays warm). Engines are deliberately not copyable, so
// a cold backward jump replays forward from the nearest parked cursor —
// cursor *creation* is O(1) thanks to the shared-base snapshot, only
// the replayed answers cost anything.
//
// Everything the debugger shows at a step — the pending question, the
// conflict census, Π, provenance cones, the fact-base content hash — is
// read through InquiryEngine's inspection accessors, which never consume
// RNG state or mint symbols into the live table: inspecting a step any
// number of times cannot perturb the replay.

#ifndef KBREPAIR_DEBUG_TIMELINE_H_
#define KBREPAIR_DEBUG_TIMELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "repair/inquiry.h"
#include "repair/kb_snapshot.h"
#include "rules/knowledge_base.h"
#include "service/wal.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {
namespace debug {

struct TimelineOptions {
  // Stride of the pre-warmed parked-cursor ladder (0 disables
  // pre-warming; backward seeks then replay from step 0 or from
  // cursors parked by earlier seeks).
  size_t checkpoint_every = 8;
};

// What the initial replay pass learned about one recorded entry.
struct StepNote {
  size_t index = 0;           // 0-based recorded entry index
  // 1-based executed question number; a ghost repeats its predecessor's.
  size_t question_index = 0;
  size_t record_index = 0;    // WAL coordinates of the entry
  uint64_t byte_offset = 0;
  // A fsync-ghost: an exact duplicate of the previous record that the
  // dialogue has no question for (rejected command, retried verbatim).
  // Skipped by every replay, exactly as daemon recovery skips it.
  bool ghost = false;
  int phase = 1;
  size_t chosen = 0;          // index answered, within the question
  size_t num_fixes = 0;
  size_t source_cdd = 0;
  AtomId chosen_atom = 0;     // position the chosen fix rewrote
  int chosen_arg = 0;
  std::string chosen_text;    // "(p(a,b), 2, c)" rendering of the fix
  size_t conflicts_remaining = 0;
  // Conflict-engine rebuilds so far, as of the end of this step
  // (cumulative; the dialogue itself is unaffected by a rebuild).
  size_t engine_rebuilds = 0;
};

// A what-if branch forked off the timeline: the common prefix of the
// recording up to `from_step` entries, one deliberately different
// answer, then a seeded simulated user driving the dialogue onward
// through the real engine.
struct ForkBranch {
  size_t from_step = 0;    // recorded entries replayed before diverging
  size_t alt_choice = 0;
  uint64_t user_seed = 0;
  // The full branch transcript (prefix + divergence + tail) as
  // transcript-entry records — a WalRecovery holding them and the create
  // params is a replayable recording, which is how branches are
  // verified.
  std::vector<JsonValue> entries;
  bool completed = false;  // reached consistency within the question cap
  size_t num_questions = 0;
  uint64_t final_state_hash = 0;
};

// First step at which a replay of one WAL stops agreeing: with the
// reference census, or with the recording.
struct EngineDivergence {
  bool diverged = false;
  size_t step = 0;         // 1-based recorded entry index of divergence
  std::string reason;
  std::string recorded_entry;
  // The step as the replay regenerated it (transcript-entry JSON, or a
  // note when it offered no matching question).
  std::string replayed_entry;
  // Both censuses at the step as "cdd:[support...]" lines, when they
  // differ (empty otherwise).
  std::string maintained_census;
  std::string reference_census;
};

class SessionTimeline {
 public:
  // Loads the recording: resolves engine options (with overrides),
  // rebuilds the KB from the create params, freezes it into a shared
  // snapshot all cursors fork from, then replays every entry once to
  // validate the recording and collect the per-step notes. Fails with
  // the diverging record's index and byte offset if the recording does
  // not replay. Recordings of base-forked sessions ("base" in the
  // create params) are rejected: the WAL alone cannot rebuild their KB.
  static StatusOr<SessionTimeline> Create(WalRecovery recording,
                                          TimelineOptions options = {});

  SessionTimeline(SessionTimeline&&) = default;
  SessionTimeline& operator=(SessionTimeline&&) = default;

  const WalRecovery& recording() const { return recording_; }
  const InquiryOptions& inquiry_options() const { return inquiry_options_; }

  // Recorded entries (ghosts included) / executed questions.
  size_t num_entries() const { return recording_.entries.size(); }
  size_t num_questions() const;

  // Current position: number of recorded entries consumed (0 =
  // pre-dialogue, num_entries() = end of recording).
  size_t position() const { return current_.step; }

  const std::vector<StepNote>& notes() const { return notes_; }
  const StepNote& note(size_t index) const { return notes_.at(index); }

  Status SeekTo(size_t step);
  Status StepForward() { return SeekTo(position() + 1); }
  Status StepBack();

  // The question pending at the current position (nullptr once the
  // replayed dialogue is consistent). Idempotent and deterministic.
  StatusOr<const Question*> PendingQuestion();

  // The conflict census at the current position, canonical order.
  StatusOr<std::vector<Conflict>> Census() const;

  // Live views of the current cursor.
  const InquiryEngine& engine() const { return *current_.engine; }
  const KnowledgeBase& kb() const { return *current_.kb; }

  // Order-sensitive content hash of the working facts, comparable
  // across independently replayed cursors (rendered through each one's
  // own symbol table).
  uint64_t StateHash() const;

  // Replays the whole recording through a fresh cursor and checks each
  // regenerated transcript entry is byte-identical to the recorded one
  // (ghosts skipped). Does not disturb the current position. The error
  // names the first diverging step, its WAL record and byte offset, and
  // both entry renderings.
  Status ReplayVerify();

  // Forks a what-if branch: replays to `from_step`, answers
  // `alt_choice` on the pending question, then drives the dialogue with
  // a seeded RandomUser for at most `max_extra_questions` further
  // rounds. The current position is not disturbed. Fails if the
  // dialogue is already consistent at `from_step` or the choice is out
  // of range.
  StatusOr<ForkBranch> Fork(size_t from_step, size_t alt_choice,
                            uint64_t user_seed,
                            size_t max_extra_questions = 10000);

 private:
  struct Cursor {
    // Engine keeps a KnowledgeBase*, so the KB lives behind a stable
    // address and is declared first (destroyed last).
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<InquiryEngine> engine;
    size_t step = 0;  // recorded entries consumed
  };

  SessionTimeline() = default;

  // A cursor at step 0: CoW fork of the shared snapshot + BeginShared
  // adoption — O(1) KB construction, no re-chase.
  StatusOr<Cursor> FreshCursor() const;

  // Consumes recorded entry `c.step` (ghosts skipped); with `note`, the
  // initial pass fills it in.
  Status AdvanceCursor(Cursor& c, StepNote* note) const;

  // A cursor at exactly `step`: consumes the nearest parked cursor at
  // or below it, else starts fresh, then replays forward.
  StatusOr<Cursor> Materialize(size_t step);

  // Retains `c` for later backward seeks (bounded pool; ladder
  // multiples are preferred when thinning).
  void Park(Cursor c);

  WalRecovery recording_;
  TimelineOptions options_;
  InquiryOptions inquiry_options_;
  std::shared_ptr<const SharedKbSnapshot> snapshot_;
  std::vector<StepNote> notes_;
  Cursor current_;
  std::map<size_t, Cursor> parked_;
};

// Replays one recording through the engine and, before every recorded
// answer, compares the census the engine selects from (InspectCensus)
// with the reference census of a cold DeltaConflictEngine initialized on
// a cloned symbol table — its naive conflicts in phase one, its whole
// census otherwise — by (CDD index, original support). Reports the first step
// where the two differ or where the replay stops matching the
// recording. Unlike SessionTimeline, the replay need not *succeed*:
// where it stops matching is exactly the finding.
StatusOr<EngineDivergence> DiffEngines(const WalRecovery& recording);

// Multi-line report of a divergence: the reason, then the recorded and
// replayed entries and, for a census split, both censuses.
std::string FormatDivergence(const EngineDivergence& divergence);

}  // namespace debug
}  // namespace kbrepair

#endif  // KBREPAIR_DEBUG_TIMELINE_H_
