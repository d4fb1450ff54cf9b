// Property-based suites: the paper's theorems checked over sweeps of
// generated knowledge bases (parameterized gtest over seeds, strategies
// and workload shapes).
//
//  * Proposition 4.4 — every inquiry terminates with a consistent KB;
//  * Lemma 4.3      — sound questions are non-empty on Π-repairable KBs
//                     and every offered fix preserves Π'-repairability;
//  * Proposition 4.8 — an oracle inquiry outputs exactly the oracle's
//                     repair, in exactly |P_O| questions;
//  * UPDATECONFLICTS agrees with full recomputation along entire runs;
//  * CHECKCONSISTENCY and CHECKCONSISTENCY-OPT agree along entire runs.

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "repair/inquiry.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "repair/deletion_repair.h"
#include "repair/repair_checks.h"
#include "repair/user.h"
#include "support/conflict_finder.h"

namespace kbrepair {
namespace {

struct WorkloadShape {
  const char* name;
  size_t num_tgds;
  int conflict_depth;
  double routed_share;
};

constexpr WorkloadShape kCddOnly{"cdd_only", 0, 1, 0.0};
constexpr WorkloadShape kCddAndTgd{"cdd_tgd", 6, 2, 0.5};

SyntheticKbOptions MakeOptions(uint64_t seed, const WorkloadShape& shape) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 140;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 6;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  options.num_tgds = shape.num_tgds;
  options.conflict_depth = shape.conflict_depth;
  options.routed_violation_share = shape.routed_share;
  return options;
}

// ---------------------------------------------------------------------
// Proposition 4.4 over strategies x seeds x workloads x engine modes.

struct TerminationCase {
  uint64_t seed;
  Strategy strategy;
  bool two_phase;
  bool with_tgds;
};

class InquiryTerminationProperty
    : public ::testing::TestWithParam<TerminationCase> {};

TEST_P(InquiryTerminationProperty, TerminatesConsistently) {
  const TerminationCase& param = GetParam();
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(MakeOptions(
      param.seed, param.with_tgds ? kCddAndTgd : kCddOnly));
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;

  RandomUser user(param.seed * 31 + 7);
  InquiryOptions options;
  options.strategy = param.strategy;
  options.two_phase = param.two_phase;
  options.seed = param.seed * 17 + 3;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();

  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value());
  EXPECT_TRUE(checker.IsConsistentNaive(result->facts).value());

  // Each applied fix froze a distinct position, so the question count is
  // bounded by |pos(F)| — the paper's upper bound.
  EXPECT_LE(result->num_questions(), kb.facts().NumPositions());
}

std::vector<TerminationCase> TerminationCases() {
  std::vector<TerminationCase> cases;
  for (uint64_t seed : {11u, 22u, 33u}) {
    for (Strategy strategy :
         {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
          Strategy::kOptiMcd, Strategy::kOptiLearn}) {
      for (bool with_tgds : {false, true}) {
        cases.push_back({seed, strategy, /*two_phase=*/true, with_tgds});
      }
      cases.push_back({seed, strategy, /*two_phase=*/false, false});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InquiryTerminationProperty,
    ::testing::ValuesIn(TerminationCases()),
    [](const ::testing::TestParamInfo<TerminationCase>& info) {
      std::string name = StrategyName(info.param.strategy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

// ---------------------------------------------------------------------
// Lemma 4.3 over seeds: on a Π-repairable KB, the full-position sound
// question of every naive conflict is non-empty and each offered fix
// keeps the KB Π'-repairable.

class SoundQuestionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundQuestionProperty, NonEmptyAndSound) {
  StatusOr<SyntheticKb> generated =
      GenerateSyntheticKb(MakeOptions(GetParam(), kCddOnly));
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(),
                                     &kb.cdds());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  QuestionGenerator generator(&kb.symbols(), &repairability);

  ASSERT_TRUE(repairability.IsPiRepairable(kb.facts(), {}).value());
  ASSERT_TRUE(repairability.EnsureSkeleton(kb.facts(), {}).ok());
  const std::vector<Conflict> conflicts =
      finder.NaiveConflicts(kb.facts());
  ASSERT_FALSE(conflicts.empty());

  size_t checked = 0;
  for (const Conflict& conflict : conflicts) {
    if (++checked > 5) break;  // bound the quadratic work per seed
    StatusOr<Question> question = generator.SoundQuestion(
        kb.facts(), {}, conflict, kb.cdds(),
        PositionSelection::kAllPositions);
    ASSERT_TRUE(question.ok());
    EXPECT_FALSE(question->fixes.empty());  // Lemma 4.3
    size_t verified = 0;
    for (const Fix& fix : question->fixes) {
      if (++verified > 10) break;
      FactBase applied = kb.facts();
      ApplyFix(applied, fix);
      EXPECT_TRUE(repairability
                      .IsPiRepairable(applied, {fix.position()})
                      .value())
          << fix.ToString(kb.symbols(), kb.facts());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundQuestionProperty,
                         ::testing::Values(3u, 14u, 159u, 265u));

// ---------------------------------------------------------------------
// Proposition 4.8 over seeds: oracle inquiries reconstruct the oracle's
// repair. The oracle's r-fix breaks every cluster by nulling one join
// occurrence per conflict, computed greedily from the live conflicts.

class OracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleProperty, InquiryReconstructsOracleRepair) {
  StatusOr<SyntheticKb> generated =
      GenerateSyntheticKb(MakeOptions(GetParam(), kCddOnly));
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());

  // Greedy oracle construction: while inconsistent, null the first
  // resolving position of the first conflict. Each step fixes a distinct
  // position with a fresh null, so the set is a valid fix set; we then
  // minimize it to an r-fix by dropping redundant members.
  FactBase working = kb.facts();
  std::vector<Fix> fixes;
  while (true) {
    const std::vector<Conflict> conflicts = finder.NaiveConflicts(working);
    if (conflicts.empty()) break;
    const Conflict& conflict = conflicts.front();
    const Cdd& cdd = kb.cdds()[conflict.cdd_index];
    ASSERT_FALSE(cdd.resolving_positions(0).empty());
    const Fix fix{conflict.matched[0], cdd.resolving_positions(0)[0],
                  kb.symbols().MakeFreshNull()};
    ApplyFix(working, fix);
    fixes.push_back(fix);
  }
  // Minimize: drop any fix whose removal keeps consistency.
  for (size_t i = 0; i < fixes.size();) {
    std::vector<Fix> without = fixes;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    FactBase candidate = kb.facts();
    ASSERT_TRUE(ApplyFixes(candidate, without).ok());
    if (checker.IsConsistentOpt(candidate).value()) {
      fixes = std::move(without);
    } else {
      ++i;
    }
  }
  ASSERT_FALSE(fixes.empty());

  FactBase target = kb.facts();
  ASSERT_TRUE(ApplyFixes(target, fixes).ok());
  ASSERT_TRUE(checker.IsConsistentOpt(target).value());

  OracleUser oracle(fixes, &kb.symbols());
  InquiryOptions options;
  options.strategy = Strategy::kRandom;
  options.seed = GetParam();
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_questions(), fixes.size());
  EXPECT_TRUE(EqualUpToNullRenaming(result->facts, target, kb.symbols()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleProperty,
                         ::testing::Values(2u, 71u, 82u, 818u));

// ---------------------------------------------------------------------
// UPDATECONFLICTS and consistency-check agreement along full inquiries.

class MaintenanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceProperty, IncrementalStructuresAgreeAlongInquiry) {
  StatusOr<SyntheticKb> generated =
      GenerateSyntheticKb(MakeOptions(GetParam(), kCddAndTgd));
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;

  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  DeltaConflictEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  FactBase working = kb.facts();
  ASSERT_TRUE(engine.Initialize(working).ok());

  RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(),
                                     &kb.cdds());
  QuestionGenerator generator(&kb.symbols(), &repairability);
  RandomUser user(GetParam() + 5);
  InquiryView view{&kb.symbols(), &working};
  PositionSet pi;
  ASSERT_TRUE(repairability.EnsureSkeleton(working, pi).ok());

  // Drive a phase-one style loop manually so we can cross-check the
  // incremental structures after every single fix.
  size_t steps = 0;
  while (engine.naive_size() > 0 && steps < 60) {
    ++steps;
    const Conflict conflict = **engine.naive_conflicts().begin();
    StatusOr<Question> question = generator.SoundQuestion(
        working, pi, conflict, kb.cdds(),
        PositionSelection::kAllPositions);
    ASSERT_TRUE(question.ok());
    ASSERT_FALSE(question->fixes.empty());
    const std::optional<size_t> choice = user.ChooseFix(*question, view);
    ASSERT_TRUE(choice.has_value());
    const Fix fix = question->fixes[*choice];
    ApplyFix(working, fix);
    pi.insert(fix.position());
    repairability.SyncSkeleton(working, pi, fix.position());
    ASSERT_TRUE(engine.OnFixApplied(fix.atom, fix.arg, fix.value).ok());

    // Incremental naive conflicts == recomputed naive conflicts.
    ASSERT_EQ(engine.naive_size(), finder.NaiveConflicts(working).size());
    // Naive and OPT consistency agree.
    ASSERT_EQ(checker.IsConsistentNaive(working).value(),
              checker.IsConsistentOpt(working).value());
  }
  EXPECT_EQ(engine.naive_size(), 0u)
      << "phase one did not converge in bound";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceProperty,
                         ::testing::Values(4u, 44u, 444u));

// ---------------------------------------------------------------------
// Repairability invariants: the inquiry's Π stays repairable after every
// answer (soundness of the dialogue, the induction step of Prop. 4.4).

class PiInvariantProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PiInvariantProperty, PiStaysRepairableAfterEveryAnswer) {
  StatusOr<SyntheticKb> generated =
      GenerateSyntheticKb(MakeOptions(GetParam(), kCddOnly));
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(),
                                     &kb.cdds());

  // Run the real engine but intercept the user's answers to re-verify
  // the invariant after each.
  FactBase shadow = kb.facts();
  PositionSet shadow_pi;
  RandomUser inner(GetParam() * 3 + 1);
  CallbackUser verifying_user(
      [&](const Question& question,
          const InquiryView& view) -> std::optional<size_t> {
        const std::optional<size_t> choice =
            inner.ChooseFix(question, view);
        if (!choice.has_value()) return choice;
        const Fix& fix = question.fixes[*choice];
        ApplyFix(shadow, fix);
        shadow_pi.insert(fix.position());
        EXPECT_TRUE(
            repairability.IsPiRepairable(shadow, shadow_pi).value());
        return choice;
      });

  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.seed = GetParam();
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(verifying_user);
  ASSERT_TRUE(result.ok()) << result.status();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiInvariantProperty,
                         ::testing::Values(6u, 66u, 666u));


// ---------------------------------------------------------------------
// Baseline/repair-check agreement on small random KBs: the greedy
// constructions must land inside the exhaustively enumerated optima.

class BaselineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineProperty, GreedyDeletionRepairIsAmongMaximalRepairs) {
  SyntheticKbOptions options = MakeOptions(GetParam(), kCddOnly);
  options.num_facts = 12;
  options.inconsistency_ratio = 0.6;
  options.num_cdds = 2;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  if (kb.facts().size() > 14) GTEST_SKIP() << "instance too large";

  StatusOr<DeletionRepair> greedy = GreedyDeletionRepair(kb);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  StatusOr<std::vector<DeletionRepair>> all =
      AllDeletionRepairs(kb, /*max_atoms=*/14);
  ASSERT_TRUE(all.ok()) << all.status();
  bool found = false;
  for (const DeletionRepair& repair : *all) {
    found = found || repair.kept == greedy->kept;
  }
  EXPECT_TRUE(found) << "greedy result is not a maximal repair";
}

TEST_P(BaselineProperty, GreedyRFixIsExhaustivelyMinimal) {
  SyntheticKbOptions options = MakeOptions(GetParam(), kCddOnly);
  options.num_facts = 20;
  options.inconsistency_ratio = 0.5;
  options.num_cdds = 3;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;

  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok()) << fixes.status();
  if (fixes->size() > 12) GTEST_SKIP() << "fix set too large";
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(
      IsRFixExhaustive(kb.facts(), *fixes, checker).value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty,
                         ::testing::Values(9u, 19u, 29u));

}  // namespace
}  // namespace kbrepair
