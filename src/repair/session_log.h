// Session transcripts: recording, rendering and replaying inquiry
// dialogues.
//
// A transcript is the inquiry Q_E = ((φ1, f1), ..., (φn, fn)) of
// Definition 4.1 made tangible: every question with its offered fixes
// and the index the user chose. Transcripts support
//  * human-readable rendering (audit trails for data stewards),
//  * exact replay — running the same engine configuration over the same
//    KB with a replayed transcript reproduces the repair bit for bit
//    (Prop. 4.8), which turns any interactive session into a regression
//    test.
//
// Replay has one step, ReplayRecordedEntry: it feeds one recorded entry
// (EntryToJson shape) to an InquiryEngine, matching the recorded fix
// against the regenerated question and skipping fsync ghosts. Daemon
// WAL recovery and every kbrepair-debug replay go through it; ReplayUser
// and the oracle users match offered fixes with the same rule,
// FindOfferedFix (repair/user.h).

#ifndef KBREPAIR_REPAIR_SESSION_LOG_H_
#define KBREPAIR_REPAIR_SESSION_LOG_H_

#include <optional>
#include <string>
#include <vector>

#include "repair/inquiry.h"
#include "repair/question.h"
#include "repair/user.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

struct TranscriptEntry {
  Question question;
  size_t chosen_index = 0;
};

class SessionTranscript {
 public:
  void Record(const Question& question, size_t chosen_index);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<TranscriptEntry>& entries() const { return entries_; }
  void Clear() { entries_.clear(); }

  // Human-readable rendering:
  //   Q1 (cdd 0, 6 fixes): chose [2] (hasAllergy(...), 2, penicillin)
  std::string Render(const SymbolTable& symbols,
                     const FactBase& original_facts) const;

  // JSON round-trip. Atom ids are serialized numerically (stable for a
  // given KB) and terms symbolically (kind + name), so a transcript
  // written by one process re-loads against a *fresh* symbol table of
  // the same KB — any interactive session becomes a portable regression
  // fixture (served by the repair service's `snapshot` command).
  JsonValue ToJson(const SymbolTable& symbols) const;
  static StatusOr<SessionTranscript> FromJson(const JsonValue& json,
                                              SymbolTable& symbols);

  // One entry in the exact shape ToJson puts into "entries". The WAL
  // logs each accepted answer as one such record, so a WAL's answer
  // lines concatenate into a FromJson-loadable transcript.
  static JsonValue EntryToJson(const TranscriptEntry& entry,
                               const SymbolTable& symbols);

 private:
  std::vector<TranscriptEntry> entries_;
};

// What replaying one recorded entry did.
struct EntryReplay {
  enum class Outcome {
    kAnswered,  // the recorded fix was offered and answered
    kGhost,     // an fsync ghost, skipped; the engine is untouched
    kDiverged,  // the entry does not replay; the engine is untouched
  };
  Outcome outcome = Outcome::kDiverged;
  // kAnswered: the regenerated question and the index answered on it.
  Question question;
  size_t choice = 0;
  // kDiverged: why, without the entry's location.
  std::string reason;
};

// Replays `entries[n]` onto `engine`: checks its shape (a numeric
// "chosen" indexing into "question.fixes", as FromJson also requires),
// regenerates the pending question, matches the recorded fix against it
// with FindOfferedFix (repair/user.h) and answers it. Recorded terms are
// looked up, never interned: interning would advance the fresh-null
// counter and break byte-identical replay. An entry that does not
// replay but is an exact duplicate of `entries[n - 1]` is an fsync
// ghost — an append whose write landed but whose fsync failed, so the
// command was rejected and the client's verbatim retry logged it again
// — and is skipped. A legitimately repeated identical answer still
// matches its own regenerated question and replays normally. Errors
// are the engine's own.
StatusOr<EntryReplay> ReplayRecordedEntry(InquiryEngine& engine,
                                          const std::vector<JsonValue>& entries,
                                          size_t n);

// Replays a transcript: the k-th question must offer the recorded
// chosen fix (FindOfferedFix); replay answers with its index.
// Returns nullopt — aborting the inquiry — on divergence (different
// engine configuration or a mutated KB).
class ReplayUser : public User {
 public:
  explicit ReplayUser(const SessionTranscript* transcript,
                      const SymbolTable* symbols);

  std::optional<size_t> ChooseFix(const Question& question,
                                  const InquiryView& view) override;

  size_t next_entry() const { return next_entry_; }
  bool Finished() const;

 private:
  const SessionTranscript* transcript_;
  const SymbolTable* symbols_;
  size_t next_entry_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_SESSION_LOG_H_
