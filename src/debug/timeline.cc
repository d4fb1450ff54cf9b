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

std::string EntryWhere(const RecordedStep& rec, size_t index) {
  return "WAL record " + std::to_string(rec.record_index) + " (byte offset " +
         std::to_string(rec.byte_offset) + ", entry " +
         std::to_string(index + 1) + ")";
}

// Validates the shape shared by every consumer of a recorded entry.
Status CheckEntryShape(const RecordedStep& rec, size_t index) {
  const JsonValue& fixes = rec.entry.Get("question").Get("fixes");
  if (!rec.entry.Get("chosen").is_number() || !fixes.is_array()) {
    return Status::InvalidArgument(EntryWhere(rec, index) +
                                   " needs 'chosen' and 'question.fixes'");
  }
  const size_t chosen = static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
  if (chosen >= fixes.size()) {
    return Status::InvalidArgument(EntryWhere(rec, index) +
                                   " chose a fix index out of range");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SessionTimeline> SessionTimeline::Create(RecordedSession recorded,
                                                  TimelineOptions options) {
  if (recorded.create_params.Get("base").is_string()) {
    return Status::InvalidArgument(
        "recording belongs to a base-forked session ('base' in the create "
        "params): the WAL alone cannot rebuild its KB — replay it through "
        "kbrepaird --recover-dir with the base registry present");
  }
  SessionTimeline timeline;
  timeline.recorded_ = std::move(recorded);
  timeline.options_ = std::move(options);
  KBREPAIR_ASSIGN_OR_RETURN(
      timeline.inquiry_options_,
      InquiryOptionsFromParams(timeline.recorded_.create_params));
  if (timeline.options_.chase_threads > 0) {
    timeline.inquiry_options_.chase_options.num_threads =
        timeline.options_.chase_threads;
  }
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(
      KnowledgeBase kb,
      BuildKbFromParams(timeline.recorded_.create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(
      timeline.snapshot_,
      BuildSharedKbSnapshot(std::move(kb), label,
                            timeline.inquiry_options_.chase_options));

  // The validation pass: replay every entry once, collecting the notes.
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, timeline.FreshCursor());
  timeline.notes_.reserve(timeline.recorded_.steps.size());
  while (cursor.step < timeline.recorded_.steps.size()) {
    StepNote note;
    KBREPAIR_RETURN_IF_ERROR(timeline.AdvanceCursor(cursor, &note));
    timeline.notes_.push_back(std::move(note));
  }
  timeline.current_ = std::move(cursor);

  // Pre-warm the parked-cursor ladder for backward seeks.
  if (timeline.options_.checkpoint_every > 0) {
    for (size_t m = timeline.options_.checkpoint_every;
         m < timeline.recorded_.steps.size();
         m += timeline.options_.checkpoint_every) {
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
  KBREPAIR_CHECK(i < recorded_.steps.size());
  const RecordedStep& rec = recorded_.steps[i];
  if (note == nullptr && i < notes_.size() && notes_[i].ghost) {
    cursor.step = i + 1;
    return Status::Ok();
  }
  KBREPAIR_RETURN_IF_ERROR(CheckEntryShape(rec, i));
  const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
  const size_t chosen = static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
  const bool duplicate_of_previous =
      i > 0 && rec.entry.Dump() == recorded_.steps[i - 1].entry.Dump();
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            cursor.engine->NextQuestion());
  std::optional<size_t> choice;
  if (question != nullptr) {
    choice = MatchRecordedFixJson(fixes_json.at(chosen), *question,
                                  cursor.engine->View(),
                                  cursor.kb->symbols());
  }
  if (question == nullptr || !choice.has_value()) {
    // Same ghost rule as daemon recovery: an append whose fsync failed
    // was rejected, retried verbatim, and logged twice; the regenerated
    // dialogue has no question for the duplicate.
    if (duplicate_of_previous) {
      if (note != nullptr) {
        note->index = i;
        note->question_index = cursor.engine->progress().records.size();
        note->record_index = rec.record_index;
        note->byte_offset = rec.byte_offset;
        note->ghost = true;
      }
      cursor.step = i + 1;
      return Status::Ok();
    }
    if (question == nullptr) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": dialogue reached consistency with recorded answers left");
    }
    return Status::Internal(
        "replay diverged at " + EntryWhere(rec, i) +
        ": recorded fix not offered by the regenerated question");
  }
  if (note != nullptr) {
    note->index = i;
    note->question_index = cursor.engine->progress().records.size() + 1;
    note->record_index = rec.record_index;
    note->byte_offset = rec.byte_offset;
    note->chosen = *choice;
    note->num_fixes = question->fixes.size();
    note->source_cdd = question->source_cdd;
    const Fix& fix = question->fixes[*choice];
    note->chosen_atom = fix.atom;
    note->chosen_arg = fix.arg;
    note->chosen_text =
        fix.ToString(cursor.kb->symbols(), cursor.engine->working_facts());
  }
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*choice));
  if (note != nullptr) {
    const QuestionRecord& record = cursor.engine->progress().records.back();
    note->phase = record.phase;
    note->conflicts_remaining = record.conflicts_remaining;
    note->engine_rebuilds = cursor.engine->progress().engine_rebuilds;
  }
  cursor.step = i + 1;
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
  if (step > recorded_.steps.size()) {
    return Status::InvalidArgument(
        "step " + std::to_string(step) + " out of range (recording has " +
        std::to_string(recorded_.steps.size()) + " entries)");
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
  for (size_t i = 0; i < recorded_.steps.size(); ++i) {
    const RecordedStep& rec = recorded_.steps[i];
    if (notes_[i].ghost) {
      cursor.step = i + 1;
      continue;
    }
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              cursor.engine->NextQuestion());
    if (question == nullptr) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": dialogue reached consistency with recorded answers left");
    }
    const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
    const size_t chosen =
        static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
    const std::optional<size_t> choice = MatchRecordedFixJson(
        fixes_json.at(chosen), *question, cursor.engine->View(),
        cursor.kb->symbols());
    if (!choice.has_value()) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": recorded fix not offered by the regenerated question");
    }
    const JsonValue regenerated = SessionTranscript::EntryToJson(
        TranscriptEntry{*question, *choice}, cursor.kb->symbols());
    if (regenerated.Dump() != rec.entry.Dump()) {
      return Status::Internal(
          "replay not byte-identical at " + EntryWhere(rec, i) +
          "\n  recorded:    " + rec.entry.Dump() +
          "\n  regenerated: " + regenerated.Dump());
    }
    KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*choice));
    cursor.step = i + 1;
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
    if (!notes_[i].ghost) branch.entries.push_back(recorded_.steps[i].entry);
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

StatusOr<EngineDivergence> DiffEngines(const RecordedSession& recorded,
                                       TimelineOptions options) {
  if (recorded.create_params.Get("base").is_string()) {
    return Status::InvalidArgument(
        "recording belongs to a base-forked session; diff-engines needs the "
        "create params alone to rebuild the KB");
  }
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions opts,
                            InquiryOptionsFromParams(recorded.create_params));
  if (options.chase_threads > 0) {
    opts.chase_options.num_threads = options.chase_threads;
  }
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase base,
                            BuildKbFromParams(recorded.create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(
      std::shared_ptr<const SharedKbSnapshot> snapshot,
      BuildSharedKbSnapshot(std::move(base), label, opts.chase_options));
  KnowledgeBase kb = snapshot->Fork();
  InquiryEngine engine(&kb, opts);
  KBREPAIR_RETURN_IF_ERROR(engine.BeginShared(snapshot->Seed()));

  EngineDivergence out;
  for (size_t i = 0; i < recorded.steps.size(); ++i) {
    const RecordedStep& rec = recorded.steps[i];
    KBREPAIR_RETURN_IF_ERROR(CheckEntryShape(rec, i));
    const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
    const size_t chosen =
        static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
    const bool duplicate_of_previous =
        i > 0 && rec.entry.Dump() == recorded.steps[i - 1].entry.Dump();
    out.step = i + 1;
    out.recorded_entry = rec.entry.Dump();

    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
    KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> maintained,
                              engine.InspectCensus());
    KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> reference,
                              ReferenceCensus(engine, kb, opts));
    std::optional<size_t> choice;
    if (question == nullptr) {
      out.replayed_entry = "<consistent>";
    } else {
      choice = MatchRecordedFixJson(fixes_json.at(chosen), *question,
                                    engine.View(), kb.symbols());
      out.replayed_entry =
          choice.has_value()
              ? SessionTranscript::EntryToJson(
                    TranscriptEntry{*question, *choice}, kb.symbols())
                    .Dump()
              : "<no matching fix> question=" +
                    QuestionToWireJson(*question, engine.View()).Dump();
    }

    const std::string maintained_text = CensusRendering(maintained);
    const std::string reference_text = CensusRendering(reference);
    if (maintained_text != reference_text) {
      out.diverged = true;
      out.reason = "maintained census diverges from the reference census at " +
                   EntryWhere(rec, i) + " (" +
                   std::to_string(maintained.size()) + " vs " +
                   std::to_string(reference.size()) + " conflicts)";
      out.maintained_census = maintained_text;
      out.reference_census = reference_text;
      return out;
    }
    // A ghost the replay rejects is skipped, exactly as in recovery.
    if (!choice.has_value() && duplicate_of_previous) continue;
    if (!choice.has_value() || out.replayed_entry != out.recorded_entry) {
      out.diverged = true;
      out.reason = "replay diverges from the recording at " +
                   EntryWhere(rec, i) + " (censuses agree)";
      return out;
    }
    KBREPAIR_RETURN_IF_ERROR(engine.Answer(*choice));
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
