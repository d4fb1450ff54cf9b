#include "repair/session_log.h"

#include "util/logging.h"

namespace kbrepair {

void SessionTranscript::Record(const Question& question,
                               size_t chosen_index) {
  KBREPAIR_CHECK_LT(chosen_index, question.fixes.size());
  entries_.push_back(TranscriptEntry{question, chosen_index});
}

std::string SessionTranscript::Render(const SymbolTable& symbols,
                                      const FactBase& original_facts) const {
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const TranscriptEntry& entry = entries_[i];
    const Fix& chosen = entry.question.fixes[entry.chosen_index];
    const std::string number = std::to_string(i + 1);
    out += "Q" + number + " (cdd " +
           std::to_string(entry.question.source_cdd) + ", " +
           std::to_string(entry.question.fixes.size()) +
           " fixes): chose [" + std::to_string(entry.chosen_index) + "] " +
           chosen.ToString(symbols, original_facts) + "\n";
  }
  return out;
}

namespace {

const char* TermKindTag(TermKind kind) {
  switch (kind) {
    case TermKind::kConstant:
      return "constant";
    case TermKind::kVariable:
      return "variable";
    case TermKind::kNull:
      return "null";
  }
  return "constant";
}

StatusOr<TermKind> TermKindFromTag(const std::string& tag) {
  if (tag == "constant") return TermKind::kConstant;
  if (tag == "variable") return TermKind::kVariable;
  if (tag == "null") return TermKind::kNull;
  return Status::InvalidArgument("unknown term kind '" + tag + "'");
}

JsonValue FixToJson(const Fix& fix, const SymbolTable& symbols) {
  JsonValue out = JsonValue::Object();
  out.Set("atom", JsonValue::Number(static_cast<int64_t>(fix.atom)));
  out.Set("arg", JsonValue::Number(static_cast<int64_t>(fix.arg)));
  out.Set("kind", JsonValue::String(TermKindTag(symbols.term_kind(fix.value))));
  out.Set("value", JsonValue::String(symbols.term_name(fix.value)));
  return out;
}

StatusOr<Fix> FixFromJson(const JsonValue& json, SymbolTable& symbols) {
  if (!json.is_object()) {
    return Status::InvalidArgument("transcript fix must be an object");
  }
  Fix fix;
  fix.atom = static_cast<AtomId>(json.Get("atom").AsInt(-1));
  fix.arg = static_cast<int>(json.Get("arg").AsInt(-1));
  if (!json.Get("atom").is_number() || !json.Get("arg").is_number() ||
      fix.arg < 0) {
    return Status::InvalidArgument("transcript fix needs atom/arg numbers");
  }
  KBREPAIR_ASSIGN_OR_RETURN(const TermKind kind,
                            TermKindFromTag(json.Get("kind").AsString()));
  if (!json.Get("value").is_string()) {
    return Status::InvalidArgument("transcript fix needs a value string");
  }
  fix.value = symbols.InternTerm(kind, json.Get("value").AsString());
  return fix;
}

// The shape every consumer of a recorded entry relies on: a numeric
// "chosen" indexing into a "question.fixes" array. The message names no
// location; callers prefix it.
Status ValidateRecordedEntry(const JsonValue& entry) {
  const JsonValue& fixes = entry.Get("question").Get("fixes");
  if (!entry.Get("chosen").is_number() || !fixes.is_array()) {
    return Status::InvalidArgument("needs 'chosen' and 'question.fixes'");
  }
  if (entry.Get("chosen").AsInt(-1) < 0 ||
      static_cast<size_t>(entry.Get("chosen").AsInt()) >= fixes.size()) {
    return Status::InvalidArgument("chose a fix index out of range");
  }
  return Status::Ok();
}

// The offered fix of `question` that a recorded fix (wire JSON:
// atom/arg numbers plus kind/value strings) selects, by FindOfferedFix.
std::optional<size_t> MatchRecordedFixJson(const JsonValue& recorded,
                                           const Question& question,
                                           const InquiryView& view) {
  const SymbolTable& symbols = *view.symbols;
  const StatusOr<TermKind> kind =
      TermKindFromTag(recorded.Get("kind").AsString());
  if (!kind.ok()) return std::nullopt;
  // FindTerm, not InternTerm: a recorded term the table has never seen
  // (a null minted under another name) matches nothing exactly, and the
  // fresh-null counter stays where the original run left it.
  const Fix wanted{static_cast<AtomId>(recorded.Get("atom").AsInt(-1)),
                   static_cast<int>(recorded.Get("arg").AsInt(-1)),
                   symbols.FindTerm(*kind, recorded.Get("value").AsString())};
  return FindOfferedFix(question, wanted, *kind == TermKind::kNull, symbols,
                        view);
}

}  // namespace

JsonValue SessionTranscript::EntryToJson(const TranscriptEntry& entry,
                                         const SymbolTable& symbols) {
  JsonValue question = JsonValue::Object();
  question.Set("source_cdd", JsonValue::Number(static_cast<int64_t>(
                                 entry.question.source_cdd)));
  JsonValue positions = JsonValue::Array();
  for (const Position& p : entry.question.considered_positions) {
    JsonValue pos = JsonValue::Array();
    pos.Append(JsonValue::Number(static_cast<int64_t>(p.atom)));
    pos.Append(JsonValue::Number(static_cast<int64_t>(p.arg)));
    positions.Append(std::move(pos));
  }
  question.Set("positions", std::move(positions));
  JsonValue fixes = JsonValue::Array();
  for (const Fix& fix : entry.question.fixes) {
    fixes.Append(FixToJson(fix, symbols));
  }
  question.Set("fixes", std::move(fixes));

  JsonValue record = JsonValue::Object();
  record.Set("chosen",
             JsonValue::Number(static_cast<int64_t>(entry.chosen_index)));
  record.Set("question", std::move(question));
  return record;
}

JsonValue SessionTranscript::ToJson(const SymbolTable& symbols) const {
  JsonValue entries = JsonValue::Array();
  for (const TranscriptEntry& entry : entries_) {
    entries.Append(EntryToJson(entry, symbols));
  }
  JsonValue out = JsonValue::Object();
  out.Set("entries", std::move(entries));
  return out;
}

StatusOr<SessionTranscript> SessionTranscript::FromJson(
    const JsonValue& json, SymbolTable& symbols) {
  const JsonValue& entries = json.Get("entries");
  if (!entries.is_array()) {
    return Status::InvalidArgument(
        "transcript JSON needs an 'entries' array");
  }
  SessionTranscript transcript;
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& record = entries.at(i);
    const Status shape = ValidateRecordedEntry(record);
    if (!shape.ok()) {
      const std::string index = std::to_string(i);
      return Status::InvalidArgument("transcript entry " + index + " " +
                                     shape.message());
    }
    const JsonValue& question_json = record.Get("question");
    Question question;
    question.source_cdd = static_cast<size_t>(
        question_json.Get("source_cdd").AsInt(0));
    const JsonValue& positions = question_json.Get("positions");
    for (size_t j = 0; j < positions.size(); ++j) {
      const JsonValue& pos = positions.at(j);
      if (!pos.is_array() || pos.size() != 2) {
        return Status::InvalidArgument(
            "transcript position must be an [atom, arg] pair");
      }
      question.considered_positions.push_back(
          Position{static_cast<AtomId>(pos.at(0).AsInt(0)),
                   static_cast<int>(pos.at(1).AsInt(0))});
    }
    const JsonValue& fixes = question_json.Get("fixes");
    for (size_t j = 0; j < fixes.size(); ++j) {
      KBREPAIR_ASSIGN_OR_RETURN(Fix fix,
                                FixFromJson(fixes.at(j), symbols));
      question.fixes.push_back(fix);
    }
    transcript.Record(question,
                      static_cast<size_t>(record.Get("chosen").AsInt(0)));
  }
  return transcript;
}

StatusOr<EntryReplay> ReplayRecordedEntry(InquiryEngine& engine,
                                          const std::vector<JsonValue>& entries,
                                          size_t n) {
  const JsonValue& entry = entries.at(n);
  EntryReplay out;
  const Status shape = ValidateRecordedEntry(entry);
  if (!shape.ok()) {
    out.reason = shape.message();
    return out;
  }
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
  std::optional<size_t> choice;
  if (question != nullptr) {
    const size_t chosen = static_cast<size_t>(entry.Get("chosen").AsInt());
    choice = MatchRecordedFixJson(
        entry.Get("question").Get("fixes").at(chosen), *question,
        engine.View());
  }
  if (!choice.has_value()) {
    if (n > 0 && entry.Dump() == entries[n - 1].Dump()) {
      out.outcome = EntryReplay::Outcome::kGhost;
    } else if (question == nullptr) {
      const std::string left = std::to_string(entries.size() - n);
      out.reason = "dialogue reached consistency with " + left +
                   " recorded answer(s) left";
    } else {
      out.reason = "recorded fix not offered by the regenerated question";
    }
    return out;
  }
  out.question = *question;  // Answer() invalidates the pending question
  out.choice = *choice;
  KBREPAIR_RETURN_IF_ERROR(engine.Answer(*choice));
  out.outcome = EntryReplay::Outcome::kAnswered;
  return out;
}

ReplayUser::ReplayUser(const SessionTranscript* transcript,
                       const SymbolTable* symbols)
    : transcript_(transcript), symbols_(symbols) {
  KBREPAIR_CHECK(transcript != nullptr);
  KBREPAIR_CHECK(symbols != nullptr);
}

bool ReplayUser::Finished() const {
  return next_entry_ == transcript_->size();
}

std::optional<size_t> ReplayUser::ChooseFix(const Question& question,
                                            const InquiryView& view) {
  if (next_entry_ >= transcript_->size()) return std::nullopt;
  const TranscriptEntry& entry = transcript_->entries()[next_entry_];
  const Fix& recorded = entry.question.fixes[entry.chosen_index];
  const std::optional<size_t> choice = FindOfferedFix(
      question, recorded, symbols_->IsNull(recorded.value), *symbols_, view);
  if (choice.has_value()) ++next_entry_;
  return choice;  // nullopt: divergence
}

}  // namespace kbrepair
