// The inquiry dialogue (Algorithms 3 and 4) and the questioning
// strategies of Section 5.
//
// The engine repeatedly: computes/maintains the conflicts of the working
// fact base, selects a conflict (or a position, for opti-mcd), generates a
// sound question, asks the user, applies the chosen fix and freezes its
// position. It terminates when the KB is consistent (Proposition 4.4) and,
// when the user is an oracle, outputs exactly the oracle's repair
// (Proposition 4.8).
//
// Two algorithm modes:
//  * two_phase = false — plain Algorithm 3: allconflicts(K) on the chased
//    base before every question.
//  * two_phase = true  — Algorithm 4: phase one resolves *naive* conflicts
//    (visible without chasing) with incremental maintenance
//    (UPDATECONFLICTS); phase two resolves the conflicts the chase
//    uncovers, projected onto the original facts through chase
//    provenance.
//
// Conflicts of either phase and every Π-repairability decision come from
// one conflict engine: the maintained delta engine of
// repair/delta_conflicts.h. Both instances share one lifecycle: Begin
// builds them (BeginShared adopts a snapshot's frozen prototypes), every
// answer maintains them in either phase, and a failed maintenance,
// probe or initialization step drops the affected engine for a cold
// rebuild from the current working facts (counted in
// InquiryResult::engine_rebuilds). One instance keeps the chased base
// and its canonical census current: phase one reads its naive
// (all-original) conflicts, phase two and Algorithm 3 the whole census,
// and its censuses at Begin are the initial conflict counts. The
// second, owned by the session's RepairabilityChecker, keeps the census
// of the Π-skeleton: Begin reads its verdict, each answer, opti-prop
// freeze and unfreeze rewrites it, and sound-question filtering probes
// it for every full Π-REPOPT check. The scratch implementations — the
// tests' from-scratch conflict census (tests/support) and the
// repairability checker's one-shot Π-REP — remain the references the
// tests compare it against.
//
// Strategies (Section 5):
//  * random    — random conflict, question on all of its positions;
//  * opti-join — random conflict, question on join/resolving positions;
//  * opti-prop — opti-join plus propagation: unchosen question positions
//    that participate in no other conflict are frozen into Π;
//  * opti-mcd  — conflict-hypergraph ranking: ask about the position
//    contained in the most conflicts.

#ifndef KBREPAIR_REPAIR_INQUIRY_H_
#define KBREPAIR_REPAIR_INQUIRY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "repair/kb_snapshot.h"
#include "repair/preference_model.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "repair/user.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/trace.h"

namespace kbrepair {

enum class Strategy {
  kRandom,
  kOptiJoin,
  kOptiProp,
  kOptiMcd,
  // opti-mcd plus a learned user-preference model that re-orders each
  // question's fixes by choice propensity (Section 7 future work; see
  // repair/preference_model.h). Same fix sets, same soundness — only the
  // presentation order adapts to the user.
  kOptiLearn,
};

// "random", "opti-join", "opti-prop", "opti-mcd", "opti-learn";
// "unknown" for a value outside the enum.
const char* StrategyName(Strategy strategy);

// The inverse of StrategyName; InvalidArgument for any other name.
StatusOr<Strategy> StrategyFromName(const std::string& name);

// How chased conflicts (phase two / Algorithm 3) are computed. One
// value: the delta-chase conflict engine (repair/delta_conflicts.h), a
// maintained chased base with provenance-guided retraction plus
// index-anchored conflict maintenance.
enum class ConflictEngineKind {
  kIncremental,
};

// What the per-question conflicts_remaining field records.
enum class ConvergenceRecording {
  // Cheap default: the engine's naive-conflict count (phase one only).
  kOff,
  // allconflicts(K) — chase included — after every answer: the
  // omniscient convergence series. An O(1) read of the census the
  // conflict engine maintains anyway, in both phases.
  kTotalConflicts,
  // Conflicts as the two-phase algorithm *discovers* them: the naive
  // conflicts during phase one, the full chased census in phase two. This
  // is the counting behind the paper's Figure 4(b) fluctuations — the
  // count jumps up when the chase starts surfacing conflicts that were
  // invisible to phase one.
  kDiscoveredConflicts,
};

struct InquiryOptions {
  Strategy strategy = Strategy::kOptiMcd;

  // Algorithm 4 (two-phase + optimized primitives) vs Algorithm 3.
  bool two_phase = true;

  // Seed for conflict selection and tie-breaking.
  uint64_t seed = 1;

  // Safety valve; exceeding it returns Internal.
  size_t max_questions = 1000000;

  ConvergenceRecording record_convergence = ConvergenceRecording::kOff;

  // Always kIncremental: there is nothing to choose. The field stays
  // only because the benchmark driver (perfbench/src/dialogue_large.cc)
  // still assigns it.
  ConflictEngineKind conflict_engine = ConflictEngineKind::kIncremental;

  ChaseOptions chase_options;
};

// Everything measured about one question/answer round.
struct QuestionRecord {
  int phase = 1;                  // 1 = naive conflicts, 2 = chase
  // Engine compute time to produce the question: the maintenance that
  // followed the previous answer plus this question's generation. Time
  // the dialogue sat parked between stepwise calls (a service session
  // waiting for the wire, a human thinking) is *not* included — this is
  // the algorithmic delay Prop. 4.10 bounds, not wall time since the
  // last answer.
  double delay_seconds = 0.0;
  // Where delay_seconds went, by pipeline phase (chase, question
  // generation, ...). Inclusive attribution: a chase running under
  // question generation counts in both, so the components can exceed
  // delay_seconds.
  trace::PhaseTotals phases;
  size_t question_size = 0;       // number of fixes offered
  size_t num_positions = 0;       // positions the question covered
  Fix chosen;                     // the user's answer
  // Index of the chosen fix within the question — the user's scanning
  // effort; what opti-learn's re-ordering drives down.
  size_t chosen_index = 0;
  // Conflicts remaining after the fix: naive-conflict count in phase one
  // (total chase conflicts when record_convergence is set).
  size_t conflicts_remaining = 0;
};

struct InquiryResult {
  FactBase facts;                 // the repaired fact base
  std::vector<Fix> applied_fixes;
  std::vector<QuestionRecord> records;
  // allconflicts(K) on the *initial* KB (used by the conflicts-per-
  // question metric of Figure 2).
  size_t initial_conflicts = 0;
  size_t initial_naive_conflicts = 0;
  double total_seconds = 0.0;

  // Engine instrumentation:
  // positions frozen by opti-prop's propagation (0 for other strategies);
  size_t propagated_positions = 0;
  // Π-REPOPT outcomes across all sound-question filtering;
  size_t repairability_fast_paths = 0;
  size_t repairability_full_checks = 0;
  // candidate fixes enumerated / filtered out by Algorithm 2.
  size_t question_candidates = 0;
  size_t question_filtered = 0;
  // Times a maintained conflict engine was dropped after a failed
  // maintenance or initialization step, to be rebuilt cold from the
  // working facts on next use. The dialogue is unaffected.
  size_t engine_rebuilds = 0;

  size_t num_questions() const { return records.size(); }
  double ConflictsPerQuestion() const {
    return records.empty() ? 0.0
                           : static_cast<double>(initial_conflicts) /
                                 static_cast<double>(records.size());
  }
  double MeanDelaySeconds() const;
  double MaxDelaySeconds() const;
};

// The census one round selects from (inquiry.cc).
struct CensusView;

class InquiryEngine {
 public:
  // `kb` supplies the rules and symbol table (mutated: fresh nulls) and
  // the starting facts, which are copied — the original KB is not
  // repaired in place.
  InquiryEngine(KnowledgeBase* kb, InquiryOptions options);
  ~InquiryEngine();

  InquiryEngine(InquiryEngine&&) noexcept;
  InquiryEngine& operator=(InquiryEngine&&) noexcept;

  // INQUIRY(K, Π): runs the dialogue to consistency. Fails with
  // FailedPrecondition if K is not Π-repairable for the initial Π or the
  // user declines to answer; Internal on safety-valve trips.
  //
  // Implemented on top of the stepwise API below, so a driven session
  // (service, remote user) and a blocking Run produce bit-identical
  // repairs for the same options and answers.
  StatusOr<InquiryResult> Run(User& user, PositionSet initial_pi = {});

  // --- Stepwise API -------------------------------------------------------
  //
  // One question/answer round is a pair of resumable calls, so a session
  // can be suspended between turns (the scaling unit of the repair
  // service):
  //
  //   engine.Begin();
  //   while (const Question* q = *engine.NextQuestion()) {
  //     size_t choice = ...;        // any out-of-process dialogue
  //     engine.Answer(choice);
  //   }
  //   InquiryResult result = *engine.Finish();

  // Starts a dialogue: builds the maintained Π-skeleton and checks its
  // Π-repairability verdict, then builds the chased-conflict engine and
  // takes the initial chased and naive censuses. Discards any session in
  // progress.
  Status Begin(PositionSet initial_pi = {});

  // Begin(Π=∅) for a session whose KB was forked from a shared snapshot
  // (repair/kb_snapshot.h): adopts the precomputed repairability verdict,
  // conflict censuses and both frozen engine prototypes instead of
  // re-running the chases. The seed and the structures it points to must
  // outlive the session.
  Status BeginShared(const SharedBeginSeed& seed);

  // Produces (or returns the already-pending) next question. Returns
  // nullptr once the working base is consistent. Repeated calls without
  // an intervening Answer() return the same pending question.
  StatusOr<const Question*> NextQuestion();

  // Applies the `choice`-th fix of the pending question and advances the
  // state machine. FailedPrecondition if no question is pending or the
  // index is out of range.
  Status Answer(size_t choice);

  // True once Begin() has been called and Finish() has not.
  bool started() const { return step_ != nullptr; }
  // True when the dialogue reached consistency (NextQuestion == nullptr).
  bool finished() const;

  // The working fact base of the in-progress session. Requires started().
  const FactBase& working_facts() const;
  // Rounds recorded so far (facts/result totals are filled by Finish()).
  const InquiryResult& progress() const;
  // Rendering context for the current session's questions.
  InquiryView View() const;

  // Finalizes timing/instrumentation, moves the result out and ends the
  // session. Callable mid-dialogue (e.g., when a service session is
  // evicted): the result then holds the partial repair.
  StatusOr<InquiryResult> Finish();

  // --- Debug inspection ---------------------------------------------------
  //
  // Read-only views of the suspended session for kbrepair-debug. None of
  // these consume RNG state or mint fresh symbols into the live table,
  // so a deterministic replay is unperturbed by any amount of
  // inspection. All require started().

  // 1 while phase-one naive conflicts are being resolved, 2 in phase
  // two (Algorithm 3 sessions report 1, matching QuestionRecord.phase).
  int current_phase() const;

  // The frozen-position set Π, and the subset frozen by opti-prop
  // propagation rather than by answers.
  const PositionSet& current_pi() const;
  const PositionSet& propagated_positions() const;

  // The conflict census the engine would select from at this point, in
  // canonical order: the live engine's naive conflicts in phase one and
  // its chased census in phase two; otherwise (a dropped engine awaits
  // its rebuild) the same census of a cold engine initialized against a
  // *clone* of the symbol table — fresh nulls minted by the inspection
  // chase never touch the live table. Reads of the live chased census
  // (here, in chased_census() and in question selection) are subject to
  // the `delta.census_drop` failpoint; the cold engine's never are.
  StatusOr<std::vector<Conflict>> InspectCensus() const;

  // The maintained chased census in canonical order, or nullopt while a
  // dropped delta engine awaits its rebuild.
  std::optional<std::vector<Conflict>> chased_census() const;

  // Maintained chased base of the live delta engine, or nullptr while a
  // dropped engine awaits its rebuild. Provenance cones can be walked
  // off its Derivation DAG without re-chasing.
  const IncrementalChase* delta_chase() const;

  // The live delta engine itself (its census and any opti-mcd rank
  // table question selection has built), or nullptr while a dropped
  // engine awaits its rebuild.
  const DeltaConflictEngine* conflict_engine() const;

  // The session's Π-repairability checker. Its skeleton() is the
  // maintained Π-skeleton engine while live (census empty iff
  // Π-repairable), null while a dropped one awaits its rebuild.
  const RepairabilityChecker& repairability() const;

 private:
  struct Session;  // per-run mutable state

  // Builds the delta conflict engine cold from the current working
  // facts: at Begin, and after a failure dropped it. No-op when already
  // live. On failure nothing is live and the next call starts over, so a
  // deadline is retry-safe.
  Status EnsureDeltaEngine(Session& session);

  // The census reads that follow an answer, on the live engine: in phase
  // one, opti-prop's propagation test against the naive conflicts; the
  // record's conflicts_remaining (naive in phase one unless
  // record_convergence asks for the total, chased in phase two when
  // recording is on).
  void ReadAnswerCensus(Session& session, QuestionRecord& record);

  // Advances to the next pending question (or to done). No-op when a
  // question is already pending or the session is finished.
  Status ComputeNextQuestion(Session& session);
  Status ApplyAnswer(Session& session, size_t choice);

  // Picks a conflict + question for the current round from `census`.
  // Returns an empty question when no sound question exists (the caller
  // then unfreezes propagated positions or errors out).
  StatusOr<Question> SelectQuestion(Session& session,
                                    const CensusView& census);

  // Removes every propagation-frozen position from Π. Returns true if
  // anything was unfrozen. The skeleton engine replays each unfreeze as
  // a rewrite back to the position's stable scratch null.
  bool UnfreezePropagated(Session& session);

  // Freezes pending opti-prop positions that no longer touch a conflict.
  template <typename TouchFn>
  void ApplyPendingPropagation(Session& session, TouchFn&& touches);

  KnowledgeBase* kb_;
  InquiryOptions options_;
  std::unique_ptr<Session> step_;  // live stepwise session, if any
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_INQUIRY_H_
