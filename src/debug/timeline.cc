#include "debug/timeline.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "repair/delta_conflicts.h"
#include "repair/session_log.h"
#include "repair/user.h"
#include "service/protocol.h"
#include "service/session.h"
#include "util/logging.h"

namespace kbrepair {
namespace debug {

namespace {

// What every replay of a recording starts from: the engine options
// and the KB rebuilt from the create params, frozen into a snapshot
// that replay engines fork from.
struct ReplayBase {
  InquiryOptions options;
  std::shared_ptr<const SharedKbSnapshot> snapshot;
};

StatusOr<ReplayBase> OpenReplayBase(const WalRecovery& recording) {
  if (recording.create_params.Get("base").is_string()) {
    return Status::InvalidArgument(
        "recording belongs to a base-forked session ('base' in the create "
        "params): the WAL alone cannot rebuild its KB — replay it through "
        "kbrepaird --recover-dir with the base registry present");
  }
  ReplayBase base;
  KBREPAIR_ASSIGN_OR_RETURN(base.options,
                            InquiryOptionsFromParams(recording.create_params));
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(
      KnowledgeBase kb, BuildKbFromParams(recording.create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(
      base.snapshot,
      BuildSharedKbSnapshot(std::move(kb), label, base.options.chase_options));
  return base;
}

}  // namespace

StatusOr<SessionTimeline> SessionTimeline::Create(WalRecovery recording,
                                                  TimelineOptions options) {
  KBREPAIR_ASSIGN_OR_RETURN(ReplayBase base, OpenReplayBase(recording));
  SessionTimeline timeline;
  timeline.recording_ = std::move(recording);
  timeline.options_ = std::move(options);
  timeline.inquiry_options_ = base.options;
  timeline.snapshot_ = std::move(base.snapshot);

  // The validation pass: replay every entry once, collecting the notes.
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, timeline.FreshCursor());
  timeline.notes_.reserve(timeline.num_entries());
  while (cursor.step < timeline.num_entries()) {
    StepNote note;
    KBREPAIR_RETURN_IF_ERROR(timeline.AdvanceCursor(cursor, &note));
    timeline.notes_.push_back(std::move(note));
  }
  timeline.current_ = std::move(cursor);

  // Pre-warm the parked-cursor ladder for backward seeks.
  if (timeline.options_.checkpoint_every > 0) {
    for (size_t m = timeline.options_.checkpoint_every;
         m < timeline.num_entries(); m += timeline.options_.checkpoint_every) {
      KBREPAIR_ASSIGN_OR_RETURN(Cursor parked, timeline.FreshCursor());
      while (parked.step < m) {
        KBREPAIR_RETURN_IF_ERROR(timeline.AdvanceCursor(parked, nullptr));
      }
      timeline.parked_.emplace(m, std::move(parked));
    }
  }
  return timeline;
}

StatusOr<SessionTimeline::Cursor> SessionTimeline::FreshCursor() const {
  Cursor cursor;
  cursor.kb = std::make_unique<KnowledgeBase>(snapshot_->Fork());
  cursor.engine =
      std::make_unique<InquiryEngine>(cursor.kb.get(), inquiry_options_);
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->BeginShared(snapshot_->Seed()));
  return cursor;
}

Status SessionTimeline::AdvanceCursor(Cursor& cursor, StepNote* note) const {
  const size_t i = cursor.step;
  KBREPAIR_CHECK(i < num_entries());
  KBREPAIR_ASSIGN_OR_RETURN(const EntryReplay step,
                            ReplayWalStep(*cursor.engine, recording_, i));
  cursor.step = i + 1;
  if (note == nullptr) return Status::Ok();
  note->index = i;
  if (i < recording_.entry_origins.size()) {
    note->record_index = recording_.entry_origins[i].record_index;
    note->byte_offset = recording_.entry_origins[i].byte_offset;
  }
  const InquiryResult& progress = cursor.engine->progress();
  note->question_index = progress.records.size();
  if (step.outcome == EntryReplay::Outcome::kGhost) {
    note->ghost = true;
    return Status::Ok();
  }
  note->chosen = step.choice;
  note->num_fixes = step.question.fixes.size();
  note->source_cdd = step.question.source_cdd;
  const Fix& fix = step.question.fixes[step.choice];
  note->chosen_atom = fix.atom;
  note->chosen_arg = fix.arg;
  // Rendered against the original facts, as transcripts render fixes.
  note->chosen_text = fix.ToString(cursor.kb->symbols(), cursor.kb->facts());
  note->phase = progress.records.back().phase;
  note->conflicts_remaining = progress.records.back().conflicts_remaining;
  note->engine_rebuilds = progress.engine_rebuilds;
  return Status::Ok();
}

StatusOr<SessionTimeline::Cursor> SessionTimeline::Materialize(size_t step) {
  Cursor cursor;
  auto it = parked_.upper_bound(step);
  if (it != parked_.begin()) {
    --it;
    cursor = std::move(it->second);
    parked_.erase(it);
  } else {
    KBREPAIR_ASSIGN_OR_RETURN(cursor, FreshCursor());
  }
  while (cursor.step < step) {
    KBREPAIR_RETURN_IF_ERROR(AdvanceCursor(cursor, nullptr));
  }
  return cursor;
}

void SessionTimeline::Park(Cursor cursor) {
  constexpr size_t kMaxParked = 64;
  const size_t step = cursor.step;
  parked_[step] = std::move(cursor);
  if (parked_.size() <= kMaxParked) return;
  // Thin the pool: prefer dropping off-ladder positions (backward seeks
  // deposit cursors wherever the user happened to be), keep the ladder.
  const size_t stride =
      options_.checkpoint_every == 0 ? 1 : options_.checkpoint_every;
  for (auto it = parked_.rbegin(); it != parked_.rend(); ++it) {
    if (it->first != step && (it->first % stride) != 0) {
      parked_.erase(std::next(it).base());
      return;
    }
  }
  parked_.erase(std::prev(parked_.end()));
}

size_t SessionTimeline::num_questions() const {
  size_t count = 0;
  for (const StepNote& note : notes_) {
    if (!note.ghost) ++count;
  }
  return count;
}

Status SessionTimeline::SeekTo(size_t step) {
  if (step > num_entries()) {
    return Status::InvalidArgument(
        "step " + std::to_string(step) + " out of range (recording has " +
        std::to_string(num_entries()) + " entries)");
  }
  if (step == current_.step) return Status::Ok();
  if (step > current_.step) {
    while (current_.step < step) {
      KBREPAIR_RETURN_IF_ERROR(AdvanceCursor(current_, nullptr));
    }
    return Status::Ok();
  }
  KBREPAIR_ASSIGN_OR_RETURN(Cursor target, Materialize(step));
  Park(std::move(current_));
  current_ = std::move(target);
  return Status::Ok();
}

Status SessionTimeline::StepBack() {
  if (position() == 0) {
    return Status::FailedPrecondition("already at step 0");
  }
  return SeekTo(position() - 1);
}

StatusOr<const Question*> SessionTimeline::PendingQuestion() {
  return current_.engine->NextQuestion();
}

StatusOr<std::vector<Conflict>> SessionTimeline::Census() const {
  return current_.engine->InspectCensus();
}

uint64_t SessionTimeline::StateHash() const {
  return current_.engine->working_facts().ContentHash(current_.kb->symbols());
}

Status SessionTimeline::ReplayVerify() {
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, FreshCursor());
  for (size_t i = 0; i < num_entries(); ++i) {
    KBREPAIR_ASSIGN_OR_RETURN(const EntryReplay step,
                              ReplayWalStep(*cursor.engine, recording_, i));
    if (step.outcome == EntryReplay::Outcome::kGhost) continue;
    const std::string recorded = recording_.entries[i].Dump();
    const std::string regenerated =
        SessionTranscript::EntryToJson(
            TranscriptEntry{step.question, step.choice}, cursor.kb->symbols())
            .Dump();
    if (regenerated != recorded) {
      return Status::Internal("replay not byte-identical at " +
                              WalEntryWhere(recording_, i) +
                              "\n  recorded:    " + recorded +
                              "\n  regenerated: " + regenerated);
    }
  }
  return Status::Ok();
}

StatusOr<ForkBranch> SessionTimeline::Fork(size_t from_step,
                                           size_t alt_choice,
                                           uint64_t user_seed,
                                           size_t max_extra_questions) {
  if (from_step > num_entries()) {
    return Status::InvalidArgument(
        "fork step " + std::to_string(from_step) +
        " out of range (recording has " + std::to_string(num_entries()) +
        " entries)");
  }
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, Materialize(from_step));
  ForkBranch branch;
  branch.from_step = from_step;
  branch.alt_choice = alt_choice;
  branch.user_seed = user_seed;
  for (size_t i = 0; i < from_step; ++i) {
    if (!notes_[i].ghost) branch.entries.push_back(recording_.entries[i]);
  }
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            cursor.engine->NextQuestion());
  if (question == nullptr) {
    return Status::FailedPrecondition(
        "dialogue is already consistent at entry " +
        std::to_string(from_step) + "; nothing to answer differently");
  }
  if (alt_choice >= question->fixes.size()) {
    return Status::InvalidArgument(
        "choice " + std::to_string(alt_choice) +
        " out of range (question has " +
        std::to_string(question->fixes.size()) + " fixes)");
  }
  branch.entries.push_back(SessionTranscript::EntryToJson(
      TranscriptEntry{*question, alt_choice}, cursor.kb->symbols()));
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(alt_choice));
  branch.num_questions = 1;
  RandomUser user(user_seed);
  for (size_t extra = 0; extra < max_extra_questions; ++extra) {
    KBREPAIR_ASSIGN_OR_RETURN(question, cursor.engine->NextQuestion());
    if (question == nullptr) {
      branch.completed = true;
      break;
    }
    const std::optional<size_t> pick =
        user.ChooseFix(*question, cursor.engine->View());
    if (!pick.has_value()) {
      return Status::Internal("simulated user declined to answer");
    }
    branch.entries.push_back(SessionTranscript::EntryToJson(
        TranscriptEntry{*question, *pick}, cursor.kb->symbols()));
    KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*pick));
    ++branch.num_questions;
  }
  if (!branch.completed) {
    KBREPAIR_ASSIGN_OR_RETURN(question, cursor.engine->NextQuestion());
    branch.completed = question == nullptr;
  }
  branch.final_state_hash =
      cursor.engine->working_facts().ContentHash(cursor.kb->symbols());
  return branch;
}

namespace {

// One "cdd:[support...]" line per conflict, sorted: the census identity
// that does not depend on the order a chase derived atoms in.
std::string CensusRendering(const std::vector<Conflict>& census) {
  std::vector<std::string> lines;
  lines.reserve(census.size());
  for (const Conflict& c : census) {
    std::string line = std::to_string(c.cdd_index) + ":[";
    for (size_t k = 0; k < c.support.size(); ++k) {
      if (k > 0) line += ",";
      line += std::to_string(c.support[k]);
    }
    lines.push_back(line + "]");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// The census InspectCensus should report, from a cold engine
// initialized against a clone of the symbol table.
StatusOr<std::vector<Conflict>> ReferenceCensus(const InquiryEngine& engine,
                                                const KnowledgeBase& kb,
                                                const InquiryOptions& opts) {
  if (engine.finished()) return std::vector<Conflict>{};
  std::unique_ptr<SymbolTable> symbols = kb.symbols().Clone();
  DeltaConflictEngine cold(symbols.get(), &kb.tgds(), &kb.cdds(),
                           opts.chase_options);
  KBREPAIR_RETURN_IF_ERROR(cold.Initialize(engine.working_facts()));
  if (opts.two_phase && engine.current_phase() == 1) {
    return cold.CanonicalNaiveConflicts();
  }
  return cold.CanonicalConflicts();
}

}  // namespace

StatusOr<EngineDivergence> DiffEngines(const WalRecovery& recording) {
  KBREPAIR_ASSIGN_OR_RETURN(ReplayBase base, OpenReplayBase(recording));
  KnowledgeBase kb = base.snapshot->Fork();
  InquiryEngine engine(&kb, base.options);
  KBREPAIR_RETURN_IF_ERROR(engine.BeginShared(base.snapshot->Seed()));

  EngineDivergence out;
  for (size_t i = 0; i < recording.entries.size(); ++i) {
    out.step = i + 1;
    out.recorded_entry = recording.entries[i].Dump();
    // The censuses first: the replay step below answers the question
    // they are taken before (NextQuestion is idempotent, so the step
    // regenerates the same one).
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
    KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> maintained,
                              engine.InspectCensus());
    KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> reference,
                              ReferenceCensus(engine, kb, base.options));
    KBREPAIR_ASSIGN_OR_RETURN(
        const EntryReplay step,
        ReplayRecordedEntry(engine, recording.entries, i));
    const bool answered = step.outcome == EntryReplay::Outcome::kAnswered;
    if (answered) {
      out.replayed_entry = SessionTranscript::EntryToJson(
                               TranscriptEntry{step.question, step.choice},
                               kb.symbols())
                               .Dump();
    } else if (question == nullptr) {
      out.replayed_entry = "<consistent>";
    } else {
      // Unanswered, so `question` is still the pending one.
      out.replayed_entry = "<no matching fix> question=" +
                           QuestionToWireJson(*question, engine.View()).Dump();
    }

    const std::string maintained_text = CensusRendering(maintained);
    const std::string reference_text = CensusRendering(reference);
    if (maintained_text != reference_text) {
      out.diverged = true;
      out.reason = "maintained census diverges from the reference census at " +
                   WalEntryWhere(recording, i) + " (" +
                   std::to_string(maintained.size()) + " vs " +
                   std::to_string(reference.size()) + " conflicts)";
      out.maintained_census = maintained_text;
      out.reference_census = reference_text;
      return out;
    }
    if (step.outcome == EntryReplay::Outcome::kGhost) continue;
    if (!answered || out.replayed_entry != out.recorded_entry) {
      out.diverged = true;
      out.reason = "replay diverges from the recording at " +
                   WalEntryWhere(recording, i) + " (censuses agree)";
      return out;
    }
  }
  return EngineDivergence{};
}

std::string FormatDivergence(const EngineDivergence& divergence) {
  std::string out = "diverged at step " + std::to_string(divergence.step) +
                    ": " + divergence.reason +
                    "\n  recorded: " + divergence.recorded_entry +
                    "\n  replayed: " + divergence.replayed_entry + "\n";
  if (!divergence.maintained_census.empty() ||
      !divergence.reference_census.empty()) {
    out += "  maintained census:\n" + divergence.maintained_census +
           "  reference census:\n" + divergence.reference_census;
  }
  return out;
}

}  // namespace debug
}  // namespace kbrepair
