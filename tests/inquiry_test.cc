#include "repair/inquiry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "repair/user.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

bool Consistent(KnowledgeBase& kb, const FactBase& facts) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  return checker.IsConsistentOpt(facts).value();
}

constexpr const char* kHospital = R"(
  prescribed(aspirin, john).
  hasAllergy(john, aspirin).
  hasAllergy(mike, penicillin).
  hasPain(john, migraine).
  isPainKillerFor(nsaids, migraine).
  incompatible(aspirin, nsaids).
  prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  ! :- prescribed(X, Y), hasAllergy(Y, X).
  ! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
)";

TEST(InquiryTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kRandom), "random");
  EXPECT_STREQ(StrategyName(Strategy::kOptiJoin), "opti-join");
  EXPECT_STREQ(StrategyName(Strategy::kOptiProp), "opti-prop");
  EXPECT_STREQ(StrategyName(Strategy::kOptiMcd), "opti-mcd");
}

TEST(InquiryTest, TerminatesAndProducesConsistentKb) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(1);
  InquiryOptions options;
  options.strategy = Strategy::kRandom;
  options.seed = 2;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->num_questions(), 0u);
  EXPECT_TRUE(Consistent(kb, result->facts));
  // One applied fix per question, positions all distinct.
  EXPECT_EQ(result->applied_fixes.size(), result->num_questions());
  PositionSet positions;
  for (const Fix& fix : result->applied_fixes) {
    EXPECT_TRUE(positions.insert(fix.position()).second)
        << "position fixed twice";
  }
}

TEST(InquiryTest, OriginalKbIsNotMutated) {
  KnowledgeBase kb = Parse(kHospital);
  const std::string before = kb.facts().ToString(kb.symbols());
  RandomUser user(1);
  InquiryEngine engine(&kb, InquiryOptions{});
  ASSERT_TRUE(engine.Run(user).ok());
  EXPECT_EQ(kb.facts().ToString(kb.symbols()), before);
}

// ParseDlgp returns F frozen, so a cold Begin holds it once: the
// working facts and the chase base are O(1) forks of the parsed F, and
// stay so after an answer. A return to copies loses the shared base.
TEST(InquiryTest, ColdBeginSharesTheParsedFacts) {
  KnowledgeBase kb = Parse(kHospital);
  ASSERT_TRUE(kb.facts().has_shared_base());
  const size_t num_facts = kb.facts().size();
  InquiryEngine engine(&kb, InquiryOptions{});
  ASSERT_TRUE(engine.Begin().ok());

  const FactBase& working = engine.working_facts();
  EXPECT_TRUE(working.has_shared_base());
  EXPECT_EQ(working.shared_base_size(), num_facts);
  EXPECT_EQ(working.overlay_size(), 0u);
  const IncrementalChase* chase = engine.delta_chase();
  ASSERT_NE(chase, nullptr);
  EXPECT_EQ(chase->num_original(), num_facts);
  EXPECT_TRUE(chase->facts().has_shared_base());
  EXPECT_EQ(chase->facts().shared_base_size(), chase->num_original());
  EXPECT_GT(chase->facts().size(), num_facts);  // derived atoms

  StatusOr<const Question*> question = engine.NextQuestion();
  ASSERT_TRUE(question.ok()) << question.status();
  ASSERT_NE(*question, nullptr);
  ASSERT_TRUE(engine.Answer(0).ok());
  EXPECT_EQ(engine.working_facts().shared_base_size(), num_facts);
  EXPECT_GT(engine.working_facts().overlay_size(), 0u);
  EXPECT_EQ(engine.delta_chase()->facts().shared_base_size(), num_facts);
}

TEST(InquiryTest, ConsistentKbNeedsNoQuestions) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(c, d).
    ! :- p(X, Y), q(Y, X).
  )");
  RandomUser user(1);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_questions(), 0u);
  EXPECT_EQ(result->initial_conflicts, 0u);
}

TEST(InquiryTest, FailsWhenInitialPiMakesKbUnrepairable) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RandomUser user(1);
  InquiryEngine engine(&kb, InquiryOptions{});
  const PositionSet frozen = {Position{0, 1}, Position{1, 0}};
  StatusOr<InquiryResult> result = engine.Run(user, frozen);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InquiryTest, InitialPiIsRespected) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RandomUser user(1);
  InquiryOptions options;
  options.strategy = Strategy::kRandom;
  InquiryEngine engine(&kb, options);
  // Freeze everything except q's join position: the only possible fix.
  PositionSet pi;
  for (const Position& p : AllPositions(kb.facts())) pi.insert(p);
  pi.erase(Position{1, 0});
  StatusOr<InquiryResult> result = engine.Run(user, pi);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->applied_fixes.size(), 1u);
  EXPECT_EQ(result->applied_fixes[0].position(), (Position{1, 0}));
}

TEST(InquiryTest, UserRefusalAborts) {
  KnowledgeBase kb = Parse(kHospital);
  CallbackUser refuser(
      [](const Question&, const InquiryView&) -> std::optional<size_t> {
        return std::nullopt;
      });
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(refuser);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InquiryTest, OutOfRangeAnswerAborts) {
  KnowledgeBase kb = Parse(kHospital);
  CallbackUser liar([](const Question& question,
                       const InquiryView&) -> std::optional<size_t> {
    return question.fixes.size();  // one past the end
  });
  InquiryEngine engine(&kb, InquiryOptions{});
  EXPECT_FALSE(engine.Run(liar).ok());
}

TEST(InquiryTest, TwoPhaseRecordsPhases) {
  // Naive conflict + chase-only conflict: phase 1 then phase 2.
  KnowledgeBase kb = Parse(R"(
    p(j, a). q(j, b).
    c0(u, v). other(u, v).
    c1(X, Y) :- c0(X, Y).
    ! :- p(X, Y), q(X, Z).
    ! :- c1(X, Y), other(X, Y).
  )");
  CallbackUser null_chooser([&kb](const Question& question,
                                  const InquiryView&)
                                -> std::optional<size_t> {
    // Always pick a fresh-null fix (they always exist).
    for (size_t i = 0; i < question.fixes.size(); ++i) {
      if (kb.symbols().IsNull(question.fixes[i].value)) return i;
    }
    return 0;
  });
  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.two_phase = true;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(null_chooser);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_phase1 = false;
  bool saw_phase2 = false;
  for (const QuestionRecord& record : result->records) {
    saw_phase1 = saw_phase1 || record.phase == 1;
    saw_phase2 = saw_phase2 || record.phase == 2;
    EXPECT_GE(record.delay_seconds, 0.0);
    EXPECT_GT(record.question_size, 0u);
  }
  EXPECT_TRUE(saw_phase1);
  EXPECT_TRUE(saw_phase2);
  EXPECT_TRUE(Consistent(kb, result->facts));
}

TEST(InquiryTest, BasicModeMatchesAlgorithmThree) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(5);
  InquiryOptions options;
  options.two_phase = false;
  options.strategy = Strategy::kRandom;
  options.seed = 5;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Consistent(kb, result->facts));
  for (const QuestionRecord& record : result->records) {
    EXPECT_EQ(record.phase, 1);  // basic mode has a single phase
  }
}

TEST(InquiryTest, ConvergenceRecordingCountsConflicts) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(3);
  InquiryOptions options;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;
  options.strategy = Strategy::kOptiJoin;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->records.empty());
  // The last record must report zero remaining conflicts.
  EXPECT_EQ(result->records.back().conflicts_remaining, 0u);
}

TEST(InquiryTest, InitialConflictCensusMatchesExample24) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(3);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->initial_conflicts, 2u);
  EXPECT_EQ(result->initial_naive_conflicts, 1u);
}

TEST(InquiryTest, ResultAggregatesAreConsistent) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(8);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_seconds, 0.0);
  EXPECT_GE(result->MaxDelaySeconds(), 0.0);
  EXPECT_LE(result->MeanDelaySeconds(), result->MaxDelaySeconds());
  EXPECT_NEAR(result->ConflictsPerQuestion(),
              static_cast<double>(result->initial_conflicts) /
                  static_cast<double>(result->num_questions()),
              1e-12);
}

TEST(InquiryTest, AllStrategiesRepairTheHospitalKb) {
  for (Strategy strategy :
       {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
        Strategy::kOptiMcd}) {
    KnowledgeBase kb = Parse(kHospital);
    RandomUser user(17);
    InquiryOptions options;
    options.strategy = strategy;
    options.seed = 17;
    InquiryEngine engine(&kb, options);
    StatusOr<InquiryResult> result = engine.Run(user);
    ASSERT_TRUE(result.ok())
        << StrategyName(strategy) << ": " << result.status();
    EXPECT_TRUE(Consistent(kb, result->facts)) << StrategyName(strategy);
  }
}

TEST(InquiryTest, DeterministicGivenSeeds) {
  auto run = [] {
    KnowledgeBase kb = Parse(kHospital);
    RandomUser user(99);
    InquiryOptions options;
    options.strategy = Strategy::kOptiJoin;
    options.seed = 99;
    InquiryEngine engine(&kb, options);
    StatusOr<InquiryResult> result = engine.Run(user);
    EXPECT_TRUE(result.ok());
    return result->facts.ToString(kb.symbols());
  };
  EXPECT_EQ(run(), run());
}


TEST(InquiryTest, InstrumentationCountersArePopulated) {
  KnowledgeBase kb = Parse(kHospital);
  RandomUser user(4);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->question_candidates, 0u);
  EXPECT_GE(result->question_candidates, result->question_filtered);
  // With Π growing one position per answer and no rule constants in the
  // hospital KB, most filtering decisions ride the Π-REPOPT fast path.
  EXPECT_GT(result->repairability_fast_paths, 0u);
  // Every candidate is decided by exactly one scope call: a fast path, a
  // full check, or the inconsistent-base short-circuit (uncounted).
  EXPECT_LE(result->repairability_fast_paths +
                result->repairability_full_checks,
            result->question_candidates);
}

TEST(InquiryTest, OptiPropReportsPropagatedPositions) {
  // Two disjoint conflicts: after answering the first question,
  // opti-prop freezes the question's unchosen positions (they belong to
  // no other conflict).
  KnowledgeBase kb = Parse(R"(
    p(j, a). q(j, b).
    p(k, c). q(k, d).
    ! :- p(X, Y), q(X, Z).
  )");
  RandomUser user(6);
  InquiryOptions options;
  options.strategy = Strategy::kOptiProp;
  options.seed = 6;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->propagated_positions, 0u);

  // Other strategies never propagate.
  KnowledgeBase kb2 = Parse(R"(
    p(j, a). q(j, b).
    p(k, c). q(k, d).
    ! :- p(X, Y), q(X, Z).
  )");
  RandomUser user2(6);
  InquiryOptions options2;
  options2.strategy = Strategy::kOptiJoin;
  options2.seed = 6;
  InquiryEngine engine2(&kb2, options2);
  StatusOr<InquiryResult> result2 = engine2.Run(user2);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->propagated_positions, 0u);
}


TEST(InquiryTest, HandlesCddConstantsEndToEnd) {
  // Constants in CDD bodies exercise the rule-constant collision path of
  // Π-REPOPT inside a full inquiry.
  KnowledgeBase kb = Parse(R"(
    status(order1, shipped).
    status(order1, cancelled).
    status(order2, pending).
    ! :- status(X, shipped), status(X, cancelled).
  )");
  RandomUser user(12);
  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.seed = 12;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Consistent(kb, result->facts));
  // Constant collisions force at least one full repairability check.
  EXPECT_GT(result->repairability_full_checks +
                result->repairability_fast_paths,
            0u);
}

TEST(InquiryTest, HandlesMultiHeadTgdEndToEnd) {
  KnowledgeBase kb = Parse(R"(
    emp(alice, sales).
    forbidden(alice, sales).
    badge(X, B), dept(B, Y) :- emp(X, Y).
    ! :- badge(X, B), forbidden(X, Y), dept(B, Y).
  )");
  ASSERT_TRUE(kb.Validate().ok());
  RandomUser user(13);
  InquiryOptions options;
  options.strategy = Strategy::kRandom;
  options.seed = 13;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Consistent(kb, result->facts));
}

TEST(InquiryTest, EqualityCddEndToEnd) {
  KnowledgeBase kb = Parse(R"(
    owner(car1, ann). owner(car2, bob). claimed(car1, bob).
    ! :- owner(C, X), claimed(D, Y), C = D, X = ann.
  )");
  RandomUser user(14);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Consistent(kb, result->facts));
}

// A failed maintenance step drops the conflict engines and the next
// round rebuilds them cold: the answer still succeeds, the census it
// could not count is settled by the next round, and the dialogue is the
// one an unfaulted engine holds.
TEST(InquiryTest, FailedMaintenanceRebuildsWithoutChangingTheDialogue) {
  SyntheticKbOptions kb_options;
  kb_options.seed = 3;
  kb_options.num_facts = 100;
  kb_options.inconsistency_ratio = 0.25;
  kb_options.num_cdds = 5;
  kb_options.num_tgds = 6;
  kb_options.conflict_depth = 2;
  kb_options.routed_violation_share = 0.5;
  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;

  // Answers with seeded choices; arms chase.saturate around the second
  // answer when `fault` is set. Returns the per-round record + the
  // repaired facts as text.
  const auto run = [&](bool fault, size_t* rebuilds) {
    StatusOr<SyntheticKb> gen = GenerateSyntheticKb(kb_options);
    EXPECT_TRUE(gen.ok()) << gen.status();
    InquiryEngine engine(&gen->kb, options);
    EXPECT_TRUE(engine.Begin().ok());
    Rng chooser(17);
    std::string out;
    for (size_t round = 0;; ++round) {
      StatusOr<const Question*> q = engine.NextQuestion();
      EXPECT_TRUE(q.ok()) << q.status();
      if (!q.ok() || *q == nullptr) break;
      if (round > 0) {
        out += " left=" +
               std::to_string(engine.progress().records.back()
                                  .conflicts_remaining) + "\n";
      }
      const size_t choice = chooser.UniformIndex((*q)->fixes.size());
      const Fix& fix = (*q)->fixes[choice];
      out += std::to_string(fix.atom) + "/" + std::to_string(fix.arg) +
             "=" + gen->kb.symbols().term_name(fix.value);
      // Fails the chased-census rewrite, the skeleton rewrite, and the
      // cold re-initialization of the census the record needs.
      if (fault && round == 1) failpoint::Arm("chase.saturate", 0, 3);
      const Status answered = engine.Answer(choice);
      failpoint::Reset();
      EXPECT_TRUE(answered.ok()) << answered;
      if (fault && round == 1) {
        EXPECT_EQ(engine.progress().records.back().conflicts_remaining, 0u)
            << "the census should be owed to the next round";
      }
    }
    StatusOr<InquiryResult> result = engine.Finish();
    EXPECT_TRUE(result.ok()) << result.status();
    *rebuilds = result->engine_rebuilds;
    for (AtomId id = 0; id < result->facts.size(); ++id) {
      out += result->facts.atom(id).ToString(gen->kb.symbols()) + "\n";
    }
    return out;
  };

  size_t clean_rebuilds = 0;
  size_t faulted_rebuilds = 0;
  const std::string clean = run(false, &clean_rebuilds);
  const std::string faulted = run(true, &faulted_rebuilds);
  EXPECT_EQ(clean_rebuilds, 0u);
  EXPECT_EQ(faulted_rebuilds, 3u);
  EXPECT_EQ(faulted, clean);
}

// A full Π-REPOPT check whose rewrite or revert fails mid-probe drops
// the maintained skeleton; the probe rebuilds it cold from (facts, Π)
// and re-probes the same candidate. The ask succeeds and the dialogue is
// the one an unfaulted engine holds.
TEST(InquiryTest, FailedProbeRebuildsWithoutChangingTheDialogue) {
  SyntheticKbOptions kb_options;
  kb_options.seed = 3;
  kb_options.num_facts = 100;
  kb_options.inconsistency_ratio = 0.25;
  kb_options.num_cdds = 5;
  kb_options.num_tgds = 6;
  kb_options.conflict_depth = 2;
  kb_options.routed_violation_share = 0.5;
  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;

  // Runs the dialogue with seeded choices, `delta.corrupt` armed to fail
  // its hit number `fail_hit` (counting from 0; never when out of reach).
  // Records the hit count before and after each NextQuestion call in
  // `ask_hits`. Returns every question, the answers and the repaired
  // facts as text.
  const auto run = [&](int64_t fail_hit,
                       std::vector<std::pair<uint64_t, uint64_t>>* ask_hits,
                       size_t* rebuilds) {
    StatusOr<SyntheticKb> gen = GenerateSyntheticKb(kb_options);
    EXPECT_TRUE(gen.ok()) << gen.status();
    const SymbolTable& symbols = gen->kb.symbols();
    InquiryEngine engine(&gen->kb, options);
    EXPECT_TRUE(engine.Begin().ok());
    failpoint::Arm("delta.corrupt", fail_hit, 1);
    Rng chooser(29);
    std::string out;
    while (true) {
      const uint64_t before = failpoint::Hits("delta.corrupt");
      StatusOr<const Question*> q = engine.NextQuestion();
      EXPECT_TRUE(q.ok()) << q.status();
      ask_hits->emplace_back(before, failpoint::Hits("delta.corrupt"));
      if (!q.ok() || *q == nullptr) break;
      for (const Fix& fix : (*q)->fixes) {
        out += fix.ToString(symbols, engine.working_facts()) + " ";
      }
      const size_t choice = chooser.UniformIndex((*q)->fixes.size());
      out += "-> " + std::to_string(choice) + "\n";
      EXPECT_TRUE(engine.Answer(choice).ok());
    }
    failpoint::Reset();
    StatusOr<InquiryResult> result = engine.Finish();
    EXPECT_TRUE(result.ok()) << result.status();
    *rebuilds = result->engine_rebuilds;
    for (AtomId id = 0; id < result->facts.size(); ++id) {
      out += result->facts.atom(id).ToString(symbols) + "\n";
    }
    return out;
  };

  // A clean run (the failpoint only counts) locates an ask whose full
  // checks hit the failpoint: every hit inside NextQuestion is a probe's
  // rewrite or its revert.
  std::vector<std::pair<uint64_t, uint64_t>> clean_hits;
  size_t clean_rebuilds = 0;
  const std::string clean = run(int64_t{1} << 40, &clean_hits,
                                &clean_rebuilds);
  EXPECT_EQ(clean_rebuilds, 0u);
  const auto probing_ask =
      std::find_if(clean_hits.begin(), clean_hits.end(),
                   [](const auto& hits) { return hits.second > hits.first; });
  ASSERT_NE(probing_ask, clean_hits.end()) << "no ask ran a full check";
  ASSERT_EQ((probing_ask->second - probing_ask->first) % 2, 0u);

  // Fail the last probe's rewrite, then its revert.
  for (const uint64_t offset : {2u, 1u}) {
    SCOPED_TRACE("failing hit " + std::to_string(probing_ask->second - offset));
    std::vector<std::pair<uint64_t, uint64_t>> faulted_hits;
    size_t faulted_rebuilds = 0;
    const std::string faulted =
        run(static_cast<int64_t>(probing_ask->second - offset), &faulted_hits,
            &faulted_rebuilds);
    EXPECT_EQ(faulted_rebuilds, 1u);
    EXPECT_EQ(faulted, clean);
  }
}

// A phase-one answer whose maintenance of the conflict engine fails
// drops the engine; the answer rebuilds it before opti-prop's
// propagation test and the naive count read it. The dialogue is the one
// an unfaulted engine holds, at the cost of exactly one rebuild.
TEST(InquiryTest, PhaseOneCorruptionRebuildsBeforePropagation) {
  SyntheticKbOptions kb_options;
  kb_options.seed = 3;
  kb_options.num_facts = 100;
  kb_options.inconsistency_ratio = 0.25;
  kb_options.num_cdds = 5;
  kb_options.num_tgds = 6;
  kb_options.conflict_depth = 2;
  kb_options.routed_violation_share = 0.5;
  InquiryOptions options;
  options.strategy = Strategy::kOptiProp;

  // Runs the dialogue with seeded choices, failing the first
  // `delta.corrupt` hit of answer `fault_round` (none when out of
  // reach). Returns every question, answer, count and Π as text; lists
  // in `propagating` the phase-one rounds whose answer froze positions.
  const auto run = [&](size_t fault_round, std::vector<size_t>* propagating,
                       size_t* rebuilds) {
    StatusOr<SyntheticKb> gen = GenerateSyntheticKb(kb_options);
    EXPECT_TRUE(gen.ok()) << gen.status();
    const SymbolTable& symbols = gen->kb.symbols();
    InquiryEngine engine(&gen->kb, options);
    EXPECT_TRUE(engine.Begin().ok());
    Rng chooser(41);
    std::string out;
    for (size_t round = 0;; ++round) {
      StatusOr<const Question*> q = engine.NextQuestion();
      EXPECT_TRUE(q.ok()) << q.status();
      if (!q.ok() || *q == nullptr) break;
      for (const Fix& fix : (*q)->fixes) {
        out += fix.ToString(symbols, engine.working_facts()) + " ";
      }
      const size_t choice = chooser.UniformIndex((*q)->fixes.size());
      const bool phase_one = engine.current_phase() == 1;
      const size_t frozen = engine.propagated_positions().size();
      if (round == fault_round) {
        EXPECT_TRUE(phase_one);
        failpoint::Arm("delta.corrupt", 0, 1);
      }
      EXPECT_TRUE(engine.Answer(choice).ok());
      failpoint::Reset();
      if (phase_one && engine.propagated_positions().size() > frozen) {
        propagating->push_back(round);
      }
      out += "-> " + std::to_string(choice) + " left=" +
             std::to_string(
                 engine.progress().records.back().conflicts_remaining) +
             " pi=" + std::to_string(engine.current_pi().size()) + "\n";
    }
    StatusOr<InquiryResult> result = engine.Finish();
    EXPECT_TRUE(result.ok()) << result.status();
    *rebuilds = result->engine_rebuilds;
    for (AtomId id = 0; id < result->facts.size(); ++id) {
      out += result->facts.atom(id).ToString(symbols) + "\n";
    }
    return out;
  };

  std::vector<size_t> propagating;
  size_t clean_rebuilds = 0;
  const std::string clean = run(SIZE_MAX, &propagating, &clean_rebuilds);
  EXPECT_EQ(clean_rebuilds, 0u);
  ASSERT_FALSE(propagating.empty()) << "no phase-one answer propagated";

  std::vector<size_t> faulted_propagating;
  size_t faulted_rebuilds = 0;
  const std::string faulted =
      run(propagating.front(), &faulted_propagating, &faulted_rebuilds);
  EXPECT_EQ(faulted_rebuilds, 1u);
  EXPECT_EQ(faulted_propagating, propagating);
  EXPECT_EQ(faulted, clean);
}

}  // namespace
}  // namespace kbrepair
