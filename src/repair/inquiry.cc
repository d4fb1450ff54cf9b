#include "repair/inquiry.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "repair/delta_conflicts.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kbrepair {

using RankScope = DeltaConflictEngine::RankScope;

// The census one round selects from, read in place: the live engine's
// naive conflicts in phase one, its whole census in phase two and
// Algorithm 3 — canonical order either way — less the conflict the
// `delta.census_drop` failpoint dropped, if any.
struct CensusView {
  DeltaConflictEngine* engine = nullptr;
  RankScope scope = RankScope::kCensus;
  const Conflict* dropped = nullptr;

  const Census& conflicts() const {
    return scope == RankScope::kNaive ? engine->naive_conflicts()
                                      : engine->census();
  }
  size_t size() const {
    const size_t live = scope == RankScope::kNaive ? engine->naive_size()
                                                   : engine->size();
    return live - (dropped != nullptr ? 1 : 0);
  }
  // The conflicts in order, less `dropped`.
  std::vector<const Conflict*> Pointers() const {
    std::vector<const Conflict*> out;
    out.reserve(size());
    for (const Conflict* conflict : conflicts()) {
      if (conflict != dropped) out.push_back(conflict);
    }
    return out;
  }
  std::vector<Conflict> Copy() const {
    std::vector<Conflict> out;
    out.reserve(size());
    for (const Conflict* conflict : Pointers()) out.push_back(*conflict);
    return out;
  }
};

namespace {

CensusView NaiveCensus(DeltaConflictEngine& engine) {
  return CensusView{&engine, RankScope::kNaive, nullptr};
}

// The live engine's chased census — every read of it in this file. Subject
// to the `delta.census_drop` failpoint, which drops the last canonical
// conflict when armed: the maintained census then diverges from a cold
// reference engine's at a deterministic step, the fault drill for
// kbrepair-debug --diff-engines.
CensusView LiveCensus(DeltaConflictEngine& engine) {
  CensusView view{&engine, RankScope::kCensus, nullptr};
  if (failpoint::ShouldFail("delta.census_drop") && !engine.empty()) {
    view.dropped = *engine.census().rbegin();
  }
  return view;
}

// Walks a rank table from the highest rank down, one group of candidate
// positions at a time, ascending within the group. Π positions are left
// out, and a conflict the view dropped no longer counts: each position
// it holds moves one group down.
class RankWalk {
 public:
  RankWalk(const CensusView& census, const RankTable& ranks)
      : ranking_(ranks.ranking()), next_(ranking_.begin()) {
    if (census.dropped != nullptr) {
      dropped_positions_ = census.engine->RankedPositions(*census.dropped);
      for (const Position& p : dropped_positions_) {
        const size_t rank = ranks.holders(p)->size();
        if (rank > 1) demoted_[rank - 1].push_back(p);
      }
    }
    moved_ = demoted_.begin();
  }

  // Fills `positions` with the next group that has a position outside
  // `pi`; false once the ranking is exhausted.
  bool Next(const PositionSet& pi, std::vector<Position>& positions) {
    while (next_ != ranking_.end() || moved_ != demoted_.end()) {
      const size_t rank =
          std::max(next_ != ranking_.end() ? next_->rank : 0,
                   moved_ != demoted_.end() ? moved_->first : 0);
      positions.clear();
      for (; next_ != ranking_.end() && next_->rank == rank; ++next_) {
        if (pi.count(next_->position) == 0 &&
            !std::binary_search(dropped_positions_.begin(),
                                dropped_positions_.end(), next_->position)) {
          positions.push_back(next_->position);
        }
      }
      if (moved_ != demoted_.end() && moved_->first == rank) {
        for (const Position& p : moved_->second) {
          if (pi.count(p) == 0) positions.push_back(p);
        }
        std::sort(positions.begin(), positions.end());
        ++moved_;
      }
      if (!positions.empty()) return true;
    }
    return false;
  }

 private:
  using Demoted =
      std::map<size_t, std::vector<Position>, std::greater<size_t>>;

  const RankTable::Ranking& ranking_;
  RankTable::Ranking::const_iterator next_;
  std::vector<Position> dropped_positions_;  // ascending
  Demoted demoted_;  // rank without the dropped conflict -> positions
  Demoted::const_iterator moved_;
};

}  // namespace

namespace {

// The one table of strategy names, in enum order.
constexpr std::pair<Strategy, const char*> kStrategyNames[] = {
    {Strategy::kRandom, "random"},     {Strategy::kOptiJoin, "opti-join"},
    {Strategy::kOptiProp, "opti-prop"}, {Strategy::kOptiMcd, "opti-mcd"},
    {Strategy::kOptiLearn, "opti-learn"},
};

}  // namespace

const char* StrategyName(Strategy strategy) {
  for (const auto& [value, name] : kStrategyNames) {
    if (value == strategy) return name;
  }
  return "unknown";
}

StatusOr<Strategy> StrategyFromName(const std::string& name) {
  for (const auto& [value, known] : kStrategyNames) {
    if (name == known) return value;
  }
  return Status::InvalidArgument("unknown strategy '" + name + "'");
}

double InquiryResult::MeanDelaySeconds() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const QuestionRecord& r : records) sum += r.delay_seconds;
  return sum / static_cast<double>(records.size());
}

double InquiryResult::MaxDelaySeconds() const {
  double max = 0.0;
  for (const QuestionRecord& r : records) {
    max = std::max(max, r.delay_seconds);
  }
  return max;
}

// Mutable per-run state bundled so helper methods stay small. With the
// stepwise API this is the *suspended* state of a dialogue between an
// Answer() and the next NextQuestion() — everything a service needs to
// park a session between turns.
struct InquiryEngine::Session {
  // Which loop of the original algorithms the state machine is in.
  enum class Mode {
    kPhaseOne,  // Algorithm 4 phase one: naive conflicts, incremental
    kPhaseTwo,  // Algorithm 4 phase two: chase-surfaced conflicts
    kBasic,     // Algorithm 3: allconflicts recomputed each round
  };

  FactBase facts;
  PositionSet pi;
  PositionSet propagated;                 // Π entries added by opti-prop
  std::vector<Position> pending_propagation;
  Rng rng;
  InquiryResult result;
  WallTimer total_timer;
  // Engine compute spent on the *next* question so far: the post-answer
  // maintenance accumulates here (and in pending_phase_totals, by
  // phase), and ComputeNextQuestion folds in the generation time. Parked
  // wall time between stepwise calls never enters either.
  double pending_compute = 0.0;
  trace::PhaseTotals pending_phase_totals;

  Mode mode;
  // Maintained conflict engine: phase one reads its naive conflicts,
  // phase two and Algorithm 3 its chased census. Built (or adopted) by
  // Begin and notified of every fix; dropped on a failure and rebuilt
  // cold on next use.
  std::unique_ptr<DeltaConflictEngine> delta;
  std::optional<Question> pending;        // awaiting an Answer()
  double pending_delay = 0.0;             // delay captured at generation
  bool done = false;                      // consistent; dialogue over
  // The last answer's census reads (ReadAnswerCensus) could not run at
  // answer time (the engine failed to rebuild); the next round settles
  // them.
  bool census_owed = false;

  // Helpers bound to the KB's rules. The repairability checker owns the
  // maintained Π-skeleton, built by Begin and kept in step with every Π
  // change.
  RepairabilityChecker repairability;
  QuestionGenerator generator;
  const std::vector<Cdd>* cdds;
  PreferenceModel preferences;

  Session(KnowledgeBase* kb, const InquiryOptions& options)
      : facts(kb->facts()),
        rng(options.seed),
        mode(options.two_phase ? Mode::kPhaseOne : Mode::kBasic),
        repairability(&kb->symbols(), &kb->tgds(), &kb->cdds(),
                      options.chase_options, &result.engine_rebuilds),
        generator(&kb->symbols(), &repairability),
        cdds(&kb->cdds()),
        preferences(&kb->symbols()) {}
};

InquiryEngine::InquiryEngine(KnowledgeBase* kb, InquiryOptions options)
    : kb_(kb), options_(options) {
  KBREPAIR_CHECK(kb != nullptr);
}

InquiryEngine::~InquiryEngine() = default;
InquiryEngine::InquiryEngine(InquiryEngine&&) noexcept = default;
InquiryEngine& InquiryEngine::operator=(InquiryEngine&&) noexcept = default;

Status InquiryEngine::Begin(PositionSet initial_pi) {
  step_ = std::make_unique<Session>(kb_, options_);
  Session& session = *step_;
  session.pi = std::move(initial_pi);

  KBREPAIR_RETURN_IF_ERROR(
      session.repairability.EnsureSkeleton(session.facts, session.pi));
  if (!session.repairability.skeleton()->empty()) {
    step_.reset();
    return Status::FailedPrecondition(
        "knowledge base is not Π-repairable for the initial Π");
  }

  // The conflict engine lives from here on; its censuses are the
  // initial conflict counts of the effectiveness metrics.
  KBREPAIR_RETURN_IF_ERROR(EnsureDeltaEngine(session));
  session.result.initial_conflicts = session.delta->size();
  session.result.initial_naive_conflicts = session.delta->naive_size();

  session.total_timer.Restart();
  return Status::Ok();
}

Status InquiryEngine::BeginShared(const SharedBeginSeed& seed) {
  step_ = std::make_unique<Session>(kb_, options_);
  Session& session = *step_;

  // The snapshot's verdicts were computed for Π = ∅, which is exactly
  // the initial Π of a forked session.
  if (!seed.repairable) {
    step_.reset();
    return Status::FailedPrecondition(
        "knowledge base is not Π-repairable for the initial Π");
  }

  session.result.initial_conflicts = seed.initial_conflicts;
  session.result.initial_naive_conflicts = seed.initial_naive_conflicts;

  if (seed.delta_proto != nullptr) {
    session.delta = std::make_unique<DeltaConflictEngine>(
        &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
    KBREPAIR_RETURN_IF_ERROR(
        session.delta->InitializeFromShared(*seed.delta_proto));
  }
  if (seed.skeleton_proto != nullptr) {
    session.repairability.AdoptSkeleton(*seed.skeleton_proto);
  }

  session.total_timer.Restart();
  return Status::Ok();
}

StatusOr<const Question*> InquiryEngine::NextQuestion() {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("NextQuestion() before Begin()");
  }
  Session& session = *step_;
  if (session.done) return static_cast<const Question*>(nullptr);
  if (!session.pending.has_value()) {
    KBREPAIR_RETURN_IF_ERROR(ComputeNextQuestion(session));
  }
  if (session.done) return static_cast<const Question*>(nullptr);
  return static_cast<const Question*>(&*session.pending);
}

Status InquiryEngine::Answer(size_t choice) {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("Answer() before Begin()");
  }
  if (!step_->pending.has_value()) {
    return Status::FailedPrecondition("Answer() with no pending question");
  }
  return ApplyAnswer(*step_, choice);
}

bool InquiryEngine::finished() const {
  return step_ != nullptr && step_->done;
}

const FactBase& InquiryEngine::working_facts() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->facts;
}

const InquiryResult& InquiryEngine::progress() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->result;
}

InquiryView InquiryEngine::View() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return InquiryView{&kb_->symbols(), &step_->facts, step_->cdds};
}

StatusOr<InquiryResult> InquiryEngine::Finish() {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("Finish() before Begin()");
  }
  Session& session = *step_;
  session.result.total_seconds = session.total_timer.ElapsedSeconds();
  session.result.question_candidates = session.generator.total_candidates();
  session.result.question_filtered = session.generator.total_filtered();
  session.result.repairability_fast_paths =
      session.generator.total_fast_paths();
  session.result.repairability_full_checks =
      session.generator.total_full_checks();
  session.result.facts = std::move(session.facts);
  InquiryResult result = std::move(session.result);
  step_.reset();
  return result;
}

StatusOr<InquiryResult> InquiryEngine::Run(User& user,
                                           PositionSet initial_pi) {
  KBREPAIR_RETURN_IF_ERROR(Begin(std::move(initial_pi)));
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, NextQuestion());
    if (question == nullptr) break;
    const InquiryView view = View();
    const std::optional<size_t> choice = user.ChooseFix(*question, view);
    if (!choice.has_value() || *choice >= question->fixes.size()) {
      step_.reset();
      return Status::FailedPrecondition(
          "user did not choose a fix from the question");
    }
    KBREPAIR_RETURN_IF_ERROR(Answer(*choice));
  }
  return Finish();
}

StatusOr<Question> InquiryEngine::SelectQuestion(Session& session,
                                                  const CensusView& census) {
  KBREPAIR_CHECK(census.size() > 0);
  trace::ScopedSpan span("inquiry.select_question",
                         trace::Phase::kQuestionGen);

  // Rebuilds the maintained skeleton if a failure dropped it, before
  // any RNG is consumed, so a failed rebuild is retry-safe.
  KBREPAIR_RETURN_IF_ERROR(
      session.repairability.EnsureSkeleton(session.facts, session.pi));

  auto finalize = [&](Question question) {
    if (options_.strategy == Strategy::kOptiLearn) {
      session.preferences.OrderQuestion(question, session.facts);
    }
    return question;
  };

  if (options_.strategy == Strategy::kOptiMcd ||
      options_.strategy == Strategy::kOptiLearn) {
    // Ask about the maximally-contained position; walk down the ranking
    // until some position yields a non-empty sound question. The ranks
    // are the engine's maintained ones for this census.
    const RankTable& ranks = census.engine->ranks(census.scope);
    RankWalk walk(census, ranks);
    std::vector<Position> positions;
    while (walk.Next(session.pi, positions)) {
      // The paper breaks ties randomly; drawing from the ascending group
      // keeps the draw independent of hash-map layout.
      session.rng.Shuffle(positions);
      for (const Position& position : positions) {
        // SOUNDQUESTION's X: the first conflict in census order holding
        // the position.
        const Conflict* conflict =
            ranks.FirstHolder(position, census.dropped);
        KBREPAIR_ASSIGN_OR_RETURN(
            Question question,
            session.generator.SoundQuestion(
                session.facts, session.pi, *conflict, *session.cdds,
                PositionSelection::kResolvingPositions, position));
        if (!question.fixes.empty()) return finalize(std::move(question));
      }
    }
    // Fall through to the conflict-based fallbacks below.
  }

  // random / opti-join / opti-prop (and the opti-mcd fallback): pick a
  // random conflict and question its positions.
  const PositionSelection preferred =
      options_.strategy == Strategy::kRandom
          ? PositionSelection::kAllPositions
          : PositionSelection::kResolvingPositions;

  const std::vector<const Conflict*> conflicts = census.Pointers();
  std::vector<size_t> order(conflicts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  session.rng.Shuffle(order);

  for (size_t index : order) {
    const Conflict& conflict = *conflicts[index];
    KBREPAIR_ASSIGN_OR_RETURN(
        Question question,
        session.generator.SoundQuestion(session.facts, session.pi, conflict,
                                        *session.cdds, preferred));
    if (!question.fixes.empty()) return finalize(std::move(question));
    if (preferred == PositionSelection::kResolvingPositions) {
      // All resolving positions frozen or filtered: widen to every
      // position of the conflict (Lemma 4.3 applies to the full set).
      KBREPAIR_ASSIGN_OR_RETURN(
          question, session.generator.SoundQuestion(
                        session.facts, session.pi, conflict, *session.cdds,
                        PositionSelection::kAllPositions));
      if (!question.fixes.empty()) return finalize(std::move(question));
    }
  }
  return Question{};  // caller decides: unfreeze propagated Π or fail
}

Status InquiryEngine::EnsureDeltaEngine(Session& session) {
  if (session.delta != nullptr) return Status::Ok();
  session.delta = std::make_unique<DeltaConflictEngine>(
      &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
  const Status status = session.delta->Initialize(session.facts);
  // A half-initialized engine must not be mistaken for a live one by the
  // next round's check. Anything but a deadline counts as a rebuild; a
  // deadline is retried as-is.
  if (!status.ok()) {
    session.delta.reset();
    if (status.code() != StatusCode::kDeadlineExceeded) {
      ++session.result.engine_rebuilds;
    }
  }
  return status;
}

int InquiryEngine::current_phase() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->mode == Session::Mode::kPhaseTwo ? 2 : 1;
}

const PositionSet& InquiryEngine::current_pi() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->pi;
}

const PositionSet& InquiryEngine::propagated_positions() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->propagated;
}

const IncrementalChase* InquiryEngine::delta_chase() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->delta != nullptr ? &step_->delta->chase() : nullptr;
}

const DeltaConflictEngine* InquiryEngine::conflict_engine() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->delta.get();
}

std::optional<std::vector<Conflict>> InquiryEngine::chased_census() const {
  KBREPAIR_CHECK(step_ != nullptr);
  if (step_->delta == nullptr) return std::nullopt;
  return LiveCensus(*step_->delta).Copy();
}

const RepairabilityChecker& InquiryEngine::repairability() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->repairability;
}

StatusOr<std::vector<Conflict>> InquiryEngine::InspectCensus() const {
  KBREPAIR_CHECK(step_ != nullptr);
  const Session& session = *step_;
  if (session.done) return std::vector<Conflict>{};
  const bool naive = session.mode == Session::Mode::kPhaseOne;
  if (session.delta != nullptr) {
    return naive ? session.delta->CanonicalNaiveConflicts()
                 : LiveCensus(*session.delta).Copy();
  }
  // No live engine (dropped, awaiting its rebuild): the census of a
  // cold engine, chased against a cloned symbol table so inspection
  // cannot mint nulls into the live one.
  std::unique_ptr<SymbolTable> symbols = kb_->symbols().Clone();
  DeltaConflictEngine cold(symbols.get(), &kb_->tgds(), &kb_->cdds(),
                           options_.chase_options);
  KBREPAIR_RETURN_IF_ERROR(cold.Initialize(session.facts));
  return naive ? cold.CanonicalNaiveConflicts() : cold.CanonicalConflicts();
}

Status InquiryEngine::ComputeNextQuestion(Session& session) {
  trace::ScopedSpan span("inquiry.next_question");
  const trace::PhaseTotals phases_before = trace::ThreadPhaseTotals();
  WallTimer compute_timer;
  if (session.census_owed) {
    KBREPAIR_RETURN_IF_ERROR(EnsureDeltaEngine(session));
    ReadAnswerCensus(session, session.result.records.back());
    session.census_owed = false;
  }
  while (true) {
    KBREPAIR_RETURN_IF_ERROR(EnsureDeltaEngine(session));
    CensusView census;
    if (session.mode == Session::Mode::kPhaseOne) {
      // --- Phase one: the maintained naive conflicts, in canonical
      // order.
      if (session.delta->naive_size() == 0) {
        session.mode = Session::Mode::kPhaseTwo;
        continue;
      }
      census = NaiveCensus(*session.delta);
    } else {
      // --- Phase two / Algorithm 3: the chased census. Selection sees
      // the whole set.
      census = LiveCensus(*session.delta);
      if (census.size() == 0) {
        session.done = true;
        return Status::Ok();
      }
      if (options_.strategy == Strategy::kOptiProp) {
        ApplyPendingPropagation(session, [&](AtomId atom) {
          for (const Conflict* c : census.conflicts()) {
            if (c != census.dropped &&
                std::binary_search(c->support.begin(), c->support.end(),
                                   atom)) {
              return true;
            }
          }
          return false;
        });
      }
    }

    KBREPAIR_ASSIGN_OR_RETURN(Question question,
                              SelectQuestion(session, census));
    if (question.fixes.empty()) {
      if (UnfreezePropagated(session)) continue;
      return Status::Internal(
          "no sound question exists; knowledge base is not Π-repairable");
    }
    session.pending = std::move(question);
    session.pending_delay =
        session.pending_compute + compute_timer.ElapsedSeconds();
    session.pending_compute = 0.0;
    session.pending_phase_totals.Add(
        trace::ThreadPhaseTotals().Since(phases_before));
    return Status::Ok();
  }
}

Status InquiryEngine::ApplyAnswer(Session& session, size_t choice) {
  const Question& question = *session.pending;
  if (choice >= question.fixes.size()) {
    return Status::FailedPrecondition(
        "user did not choose a fix from the question");
  }

  QuestionRecord record;
  record.phase = session.mode == Session::Mode::kPhaseTwo ? 2 : 1;
  record.delay_seconds = session.pending_delay;
  record.phases = session.pending_phase_totals;
  session.pending_phase_totals = trace::PhaseTotals{};
  record.question_size = question.fixes.size();
  record.num_positions = question.considered_positions.size();

  const Fix fix = question.fixes[choice];
  record.chosen = fix;
  record.chosen_index = choice;
  if (options_.strategy == Strategy::kOptiLearn) {
    session.preferences.Observe(question, choice, session.facts);
  }

  // Post-answer maintenance counts toward the next question's delay.
  // The span is reset (flushing its phase time) before the phase delta
  // below is snapshotted.
  const trace::PhaseTotals phases_before = trace::ThreadPhaseTotals();
  WallTimer apply_timer;
  std::optional<trace::ScopedSpan> apply_span;
  apply_span.emplace("inquiry.apply_answer", trace::Phase::kApplyFix);

  ApplyFix(session.facts, fix);
  session.pi.insert(fix.position());
  session.result.applied_fixes.push_back(fix);

  // Both maintained engines mirror every fix, in either phase. The fixed
  // position joined Π, so the skeleton now carries its real value
  // instead of the position's scratch null. A failed rewrite drops the
  // engine for a cold rebuild; the answer itself already took effect and
  // must not fail.
  if (session.delta != nullptr &&
      !session.delta->OnFixApplied(fix.atom, fix.arg, fix.value).ok()) {
    session.delta.reset();
    ++session.result.engine_rebuilds;
  }
  session.repairability.SyncSkeleton(session.facts, session.pi,
                                     fix.position());

  if (options_.strategy == Strategy::kOptiProp) {
    // Defer freezing until conflicts are up to date for this round;
    // the chosen position is already in Π.
    for (const Position& p : question.considered_positions) {
      if (p != fix.position()) session.pending_propagation.push_back(p);
    }
  }

  if (session.mode == Session::Mode::kPhaseOne ||
      options_.record_convergence != ConvergenceRecording::kOff) {
    // A dropped engine is rebuilt before it is read. The fix is already
    // applied, so even a deadline here must not fail the answer; the
    // next round settles the reads instead.
    if (EnsureDeltaEngine(session).ok()) {
      ReadAnswerCensus(session, record);
    } else {
      session.census_owed = true;
    }
  }

  apply_span.reset();
  session.pending_compute += apply_timer.ElapsedSeconds();
  session.pending_phase_totals.Add(
      trace::ThreadPhaseTotals().Since(phases_before));

  session.pending.reset();
  session.result.records.push_back(record);
  if (session.result.records.size() > options_.max_questions) {
    return Status::Internal("inquiry exceeded max_questions");
  }
  return Status::Ok();
}

void InquiryEngine::ReadAnswerCensus(Session& session,
                                     QuestionRecord& record) {
  const DeltaConflictEngine& census = *session.delta;
  if (session.mode == Session::Mode::kPhaseOne) {
    if (options_.strategy == Strategy::kOptiProp) {
      ApplyPendingPropagation(session, [&](AtomId atom) {
        return census.NaiveConflictMatches(atom);
      });
    }
    record.conflicts_remaining =
        options_.record_convergence == ConvergenceRecording::kTotalConflicts
            ? census.size()
            : census.naive_size();
  } else if (options_.record_convergence != ConvergenceRecording::kOff) {
    record.conflicts_remaining = census.size();
  }
}

bool InquiryEngine::UnfreezePropagated(Session& session) {
  if (session.propagated.empty()) return false;
  for (const Position& p : session.propagated) {
    session.pi.erase(p);
    // Leaving Π reverts the position to its stable scratch null.
    session.repairability.SyncSkeleton(session.facts, session.pi, p);
  }
  session.propagated.clear();
  return true;
}

template <typename TouchFn>
void InquiryEngine::ApplyPendingPropagation(Session& session,
                                            TouchFn&& touches) {
  for (const Position& p : session.pending_propagation) {
    if (session.pi.count(p) > 0) continue;
    if (!touches(p.atom)) {
      session.pi.insert(p);
      session.propagated.insert(p);
      ++session.result.propagated_positions;
      // Freezing exposes the position's current value to the skeleton.
      session.repairability.SyncSkeleton(session.facts, session.pi, p);
    }
  }
  session.pending_propagation.clear();
}

}  // namespace kbrepair
