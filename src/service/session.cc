#include "service/session.h"

#include <utility>

#include "gen/durum_wheat.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/user.h"
#include "service/wal.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

JsonValue FactsToJson(const FactBase& facts, const SymbolTable& symbols) {
  JsonValue out = JsonValue::Array();
  for (AtomId id = 0; id < facts.size(); ++id) {
    out.Append(JsonValue::String(facts.atom(id).ToString(symbols)));
  }
  return out;
}

}  // namespace

StatusOr<KnowledgeBase> BuildKbFromParams(const JsonValue& params,
                                          std::string* label) {
  if (params.Get("kb_dlgp").is_string()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        KnowledgeBase kb, ParseDlgp(params.Get("kb_dlgp").AsString()));
    KBREPAIR_RETURN_IF_ERROR(kb.Validate());
    *label = "dlgp";
    return kb;
  }
  const std::string name = params.Get("kb").AsString();
  if (name == "durum_wheat_v1" || name == "durum_wheat_v2") {
    DurumWheatOptions options;
    options.version = name == "durum_wheat_v1" ? DurumWheatVersion::kV1
                                               : DurumWheatVersion::kV2;
    KBREPAIR_ASSIGN_OR_RETURN(DurumWheatKb durum,
                              GenerateDurumWheatKb(options));
    *label = name;
    return std::move(durum.kb);
  }
  if (name == "synthetic") {
    SyntheticKbOptions options;
    // Service defaults favour fast interactive sessions; callers scale
    // up explicitly.
    options.num_facts = 60;
    options.num_cdds = 6;
    options.inconsistency_ratio = 0.3;
    if (params.Get("kb_seed").is_number()) {
      options.seed = static_cast<uint64_t>(params.Get("kb_seed").AsInt());
    }
    if (params.Get("num_facts").is_number()) {
      options.num_facts =
          static_cast<size_t>(params.Get("num_facts").AsInt());
    }
    if (params.Get("num_cdds").is_number()) {
      options.num_cdds = static_cast<size_t>(params.Get("num_cdds").AsInt());
    }
    if (params.Get("inconsistency_ratio").is_number()) {
      options.inconsistency_ratio =
          params.Get("inconsistency_ratio").AsDouble();
    }
    // The full generator surface, so a WAL create record reconstructs
    // any harness KB bit-for-bit (the differential matrix uses TGD
    // chains and tight arity/multiplicity ranges the defaults lack).
    if (params.Get("num_tgds").is_number()) {
      options.num_tgds = static_cast<size_t>(params.Get("num_tgds").AsInt());
    }
    if (params.Get("conflict_depth").is_number()) {
      options.conflict_depth =
          static_cast<int>(params.Get("conflict_depth").AsInt());
    }
    if (params.Get("routed_violation_share").is_number()) {
      options.routed_violation_share =
          params.Get("routed_violation_share").AsDouble();
    }
    if (params.Get("cdd_min_atoms").is_number()) {
      options.cdd_min_atoms =
          static_cast<int>(params.Get("cdd_min_atoms").AsInt());
    }
    if (params.Get("cdd_max_atoms").is_number()) {
      options.cdd_max_atoms =
          static_cast<int>(params.Get("cdd_max_atoms").AsInt());
    }
    if (params.Get("min_arity").is_number()) {
      options.min_arity = static_cast<int>(params.Get("min_arity").AsInt());
    }
    if (params.Get("max_arity").is_number()) {
      options.max_arity = static_cast<int>(params.Get("max_arity").AsInt());
    }
    if (params.Get("min_multiplicity").is_number()) {
      options.min_multiplicity =
          static_cast<int>(params.Get("min_multiplicity").AsInt());
    }
    if (params.Get("max_multiplicity").is_number()) {
      options.max_multiplicity =
          static_cast<int>(params.Get("max_multiplicity").AsInt());
    }
    KBREPAIR_ASSIGN_OR_RETURN(SyntheticKb synthetic,
                              GenerateSyntheticKb(options));
    *label = "synthetic";
    return std::move(synthetic.kb);
  }
  if (name.empty()) {
    return Status::InvalidArgument(
        "create needs a 'kb' name or inline 'kb_dlgp' text");
  }
  return Status::InvalidArgument("unknown kb '" + name + "'");
}

StatusOr<InquiryOptions> InquiryOptionsFromParams(const JsonValue& params) {
  InquiryOptions options;
  if (params.Get("strategy").is_string()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        options.strategy, StrategyFromName(params.Get("strategy").AsString()));
  }
  if (params.Get("seed").is_number()) {
    options.seed = static_cast<uint64_t>(params.Get("seed").AsInt());
  }
  if (params.Get("two_phase").is_bool()) {
    options.two_phase = params.Get("two_phase").AsBool();
  }
  if (params.Get("max_questions").is_number()) {
    options.max_questions =
        static_cast<size_t>(params.Get("max_questions").AsInt());
  }
  // One conflict engine remains; naming it stays accepted so existing
  // clients and WALs keep working.
  if (params.Get("engine").is_string() &&
      params.Get("engine").AsString() != "incremental") {
    return Status::InvalidArgument(
        "unknown engine '" + params.Get("engine").AsString() +
        "' (the only conflict engine is 'incremental')");
  }
  if (params.Get("record_convergence").is_string()) {
    const std::string mode = params.Get("record_convergence").AsString();
    if (mode == "off") {
      options.record_convergence = ConvergenceRecording::kOff;
    } else if (mode == "total") {
      options.record_convergence = ConvergenceRecording::kTotalConflicts;
    } else if (mode == "discovered") {
      options.record_convergence = ConvergenceRecording::kDiscoveredConflicts;
    } else {
      return Status::InvalidArgument(
          "unknown record_convergence '" + mode +
          "' (expected 'off', 'total', or 'discovered')");
    }
  }
  // Validated, then ignored (the chase is single-threaded), so WALs
  // whose create carries it still recover.
  if (params.Get("chase_threads").is_number()) {
    const int64_t threads = params.Get("chase_threads").AsInt();
    if (threads < 1 || threads > 64) {
      return Status::InvalidArgument("chase_threads must be in [1, 64]");
    }
  }
  return options;
}

StatusOr<std::vector<std::string>> OracleFacts(const JsonValue& params,
                                               uint64_t answer_seed) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  InquiryEngine engine(&kb, options);
  RandomUser user(answer_seed);
  KBREPAIR_ASSIGN_OR_RETURN(InquiryResult result, engine.Run(user));
  std::vector<std::string> facts;
  facts.reserve(result.facts.size());
  for (AtomId id = 0; id < result.facts.size(); ++id) {
    facts.push_back(result.facts.atom(id).ToString(kb.symbols()));
  }
  return facts;
}

RepairSession::RepairSession(std::string id, std::string kb_label,
                             BaseRegistry::Handle base, KnowledgeBase kb,
                             InquiryOptions options)
    : id_(std::move(id)),
      kb_label_(std::move(kb_label)),
      base_(std::move(base)),
      kb_(std::move(kb)),
      options_(options),
      cancel_(std::make_shared<CancelToken>()) {
  // Every chase-running component the engine builds shares this token,
  // so arming it bounds a whole command.
  options_.chase_options.cancel = cancel_;
  engine_ = std::make_unique<InquiryEngine>(&kb_, options_);
}

namespace {

// The session's KB: a fork of the shared base, else a private build.
StatusOr<KnowledgeBase> SessionKb(const JsonValue& params,
                                  const BaseRegistry::Handle& base,
                                  std::string* label) {
  if (!base) return BuildKbFromParams(params, label);
  *label = base.snapshot()->label;
  return base.snapshot()->Fork();
}

}  // namespace

StatusOr<std::unique_ptr<RepairSession>> RepairSession::Open(
    std::string id, const JsonValue& params, BaseRegistry::Handle base,
    int64_t deadline_ms) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb, SessionKb(params, base, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  std::unique_ptr<RepairSession> session(
      new RepairSession(std::move(id), std::move(label), std::move(base),
                        std::move(kb), options));
  session->ArmDeadline(deadline_ms);
  // A fork adopts the snapshot's precomputed verdict/censuses and arms
  // the frozen engine prototypes; the seed stays valid because base_
  // pins the snapshot for the session's lifetime.
  const Status begun =
      session->base_
          ? session->engine_->BeginShared(session->base_.snapshot()->Seed())
          : session->engine_->Begin();
  session->DisarmDeadline();
  KBREPAIR_RETURN_IF_ERROR(begun);
  return session;
}

StatusOr<EntryReplay> ReplayWalStep(InquiryEngine& engine,
                                    const WalRecovery& recording, size_t n) {
  KBREPAIR_ASSIGN_OR_RETURN(EntryReplay step,
                            ReplayRecordedEntry(engine, recording.entries, n));
  if (step.outcome == EntryReplay::Outcome::kDiverged) {
    return Status::Internal("replay diverged at " +
                            WalEntryWhere(recording, n) + ": " + step.reason);
  }
  return step;
}

Status RepairSession::Replay(const WalRecovery& recording) {
  for (size_t n = 0; n < recording.entries.size(); ++n) {
    KBREPAIR_ASSIGN_OR_RETURN(const EntryReplay step,
                              ReplayWalStep(*engine_, recording, n));
    if (step.outcome == EntryReplay::Outcome::kAnswered) {
      transcript_.Record(step.question, step.choice);
    }
  }
  return Status::Ok();
}

void RepairSession::ArmDeadline(int64_t budget_ms) {
  if (budget_ms > 0) cancel_->ArmDeadline(budget_ms);
}

void RepairSession::DisarmDeadline() { cancel_->Disarm(); }

StatusOr<JsonValue> RepairSession::Ask() {
  trace::ScopedSpan span("session.ask");
  // `step` is the 1-based question index the command works on; per
  // session it is non-decreasing, which kbrepair-client --trace-dir
  // validation checks.
  if (span.recording()) {
    span.Annotate("session=" + id_ + " step=" +
                  std::to_string(engine_->progress().records.size() + 1));
  }
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            engine_->NextQuestion());
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  const size_t answered = engine_->progress().records.size();
  if (question == nullptr) {
    out.Set("done", JsonValue::Bool(true));
    out.Set("questions", JsonValue::Number(static_cast<int64_t>(answered)));
    return out;
  }
  if (!question_outstanding_) {
    question_outstanding_ = true;
    ++totals_.questions_served;
  }
  out.Set("done", JsonValue::Bool(false));
  out.Set("turn", JsonValue::Number(static_cast<int64_t>(answered + 1)));
  out.Set("question", QuestionToWireJson(*question, engine_->View()));
  return out;
}

StatusOr<JsonValue> RepairSession::Answer(const JsonValue& params,
                                          const LogBeforeExecute& log) {
  trace::ScopedSpan span("session.answer");
  if (span.recording()) {
    span.Annotate("session=" + id_ + " step=" +
                  std::to_string(engine_->progress().records.size() + 1));
  }
  if (!params.Get("choice").is_number() ||
      params.Get("choice").AsInt() < 0) {
    return Status::InvalidArgument(
        "answer needs a non-negative numeric 'choice'");
  }
  const size_t choice = static_cast<size_t>(params.Get("choice").AsInt());
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            engine_->NextQuestion());
  if (question == nullptr) {
    return Status::FailedPrecondition("session is already consistent");
  }
  if (choice >= question->fixes.size()) {
    return Status::InvalidArgument(
        "choice " + std::to_string(choice) + " out of range (question has " +
        std::to_string(question->fixes.size()) + " fixes)");
  }
  // Copy before Answer() invalidates the pending question.
  const Question recorded = *question;
  // Log-before-execute: the accepted answer is durable before it takes
  // effect; a rejected append leaves the engine untouched.
  if (log) {
    KBREPAIR_RETURN_IF_ERROR(log(SessionWal::AnswerRecord(
        SessionTranscript::EntryToJson(TranscriptEntry{recorded, choice},
                                       kb_.symbols()))));
  }
  KBREPAIR_RETURN_IF_ERROR(engine_->Answer(choice));
  transcript_.Record(recorded, choice);
  question_outstanding_ = false;
  ++totals_.answers_applied;

  const QuestionRecord& record = engine_->progress().records.back();
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("applied", JsonValue::Bool(true));
  out.Set("turn", JsonValue::Number(static_cast<int64_t>(
                      engine_->progress().records.size())));
  out.Set("phase", JsonValue::Number(static_cast<int64_t>(record.phase)));
  out.Set("conflicts_remaining",
          JsonValue::Number(static_cast<int64_t>(record.conflicts_remaining)));
  return out;
}

JsonValue RepairSession::StatusInfo() const {
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("kb", JsonValue::String(kb_label_));
  if (base_) out.Set("base", JsonValue::String(base_.name()));
  out.Set("strategy", JsonValue::String(StrategyName(options_.strategy)));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options_.seed)));
  const char* state = "active";
  if (closed_) {
    state = "closed";
  } else if (engine_->finished()) {
    state = "consistent";
  } else if (question_outstanding_) {
    state = "awaiting_answer";
  }
  out.Set("state", JsonValue::String(state));
  out.Set("questions", JsonValue::Number(static_cast<int64_t>(
                           engine_->started()
                               ? engine_->progress().records.size()
                               : transcript_.size())));
  if (engine_->started()) {
    out.Set("facts", JsonValue::Number(static_cast<int64_t>(
                         engine_->working_facts().size())));
    out.Set("initial_conflicts",
            JsonValue::Number(static_cast<int64_t>(
                engine_->progress().initial_conflicts)));
  }
  return out;
}

StatusOr<JsonValue> RepairSession::Snapshot() const {
  if (!engine_->started()) {
    return Status::FailedPrecondition("session is closed");
  }
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("consistent", JsonValue::Bool(engine_->finished()));
  out.Set("questions", JsonValue::Number(static_cast<int64_t>(
                           engine_->progress().records.size())));
  out.Set("transcript", transcript_.ToJson(kb_.symbols()));
  out.Set("facts", FactsToJson(engine_->working_facts(), kb_.symbols()));
  return out;
}

StatusOr<JsonValue> RepairSession::Close(const JsonValue& params,
                                         const LogBeforeExecute& log) {
  trace::ScopedSpan span("session.close");
  if (span.recording()) span.Annotate("session=" + id_);
  if (closed_) {
    return Status::FailedPrecondition("session is already closed");
  }
  // Log the close before executing it; if the daemon dies in between,
  // recovery sees the close record and discards the WAL instead of
  // resurrecting a session the client was told nothing about.
  if (log) KBREPAIR_RETURN_IF_ERROR(log(SessionWal::CloseRecord()));
  const bool consistent = engine_->finished();
  KBREPAIR_ASSIGN_OR_RETURN(InquiryResult result, engine_->Finish());
  closed_ = true;
  totals_.engine_rebuilds = result.engine_rebuilds;
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("closed", JsonValue::Bool(true));
  out.Set("consistent", JsonValue::Bool(consistent));
  out.Set("questions",
          JsonValue::Number(static_cast<int64_t>(result.num_questions())));
  out.Set("applied_fixes",
          JsonValue::Number(static_cast<int64_t>(result.applied_fixes.size())));
  out.Set("total_seconds", JsonValue::Number(result.total_seconds));
  out.Set("mean_delay_ms",
          JsonValue::Number(result.MeanDelaySeconds() * 1e3));
  if (params.Get("include_facts").AsBool(false)) {
    out.Set("facts", FactsToJson(result.facts, kb_.symbols()));
  }
  return out;
}

int64_t RepairSession::EstimateMemoryBytes() const {
  // Calibrated against heap profiles of synthetic sessions: an overlay
  // atom plus its provenance node lands near 128 bytes and a transcript
  // entry (question copy + fix strings) near 512. The fixed overhead
  // covers the engine, symbol table delta, and bookkeeping of an idle
  // session.
  constexpr int64_t kSessionOverheadBytes = 16 * 1024;
  constexpr int64_t kBytesPerFact = 128;
  constexpr int64_t kBytesPerTranscriptEntry = 512;
  int64_t estimate = kSessionOverheadBytes;
  if (engine_ != nullptr && engine_->started()) {
    estimate += static_cast<int64_t>(engine_->working_facts().size()) *
                kBytesPerFact;
  }
  estimate +=
      static_cast<int64_t>(transcript_.size()) * kBytesPerTranscriptEntry;
  return estimate;
}

JsonValue RepairSession::TranscriptJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("kb", JsonValue::String(kb_label_));
  out.Set("strategy", JsonValue::String(StrategyName(options_.strategy)));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options_.seed)));
  out.Set("transcript", transcript_.ToJson(kb_.symbols()));
  return out;
}

RepairSession::Totals RepairSession::totals() const {
  Totals totals = totals_;
  if (engine_->started()) {
    totals.engine_rebuilds = engine_->progress().engine_rebuilds;
  }
  return totals;
}

double RepairSession::last_turn_delay_seconds() const {
  return engine_->progress().records.back().delay_seconds;
}

}  // namespace kbrepair
