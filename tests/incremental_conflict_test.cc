// Differential/property harness for the maintained conflict engine.
//
// The 208-dialogue matrix (4 strategies x 2 algorithm modes x 2
// workloads x 13 seeds) drives full inquiry dialogues through the
// stepwise API with seeded choices and checks two things:
//
//  * Golden transcripts. Every dialogue renders to a transcript — each
//    question's phase, source CDD, considered positions and fixes (with
//    exact term names, so minted null labels count), the chosen index,
//    the conflicts left after the answer, and the final fact base — whose
//    FNV-1a digest must equal the one checked in under
//    tests/data/differential_digests.txt. The digests were captured from
//    the delta engine when the scratch reference engine still ran beside
//    it in lockstep, so they pin the dialogues that engine pair agreed on.
//  * Per-round reference checks. After every answer the live chased
//    census, compared by (CDD index, original support), must equal
//    ConflictFinder::AllConflicts recomputed from scratch, and the
//    maintained Π-skeleton census must be empty exactly when
//    RepairabilityChecker::IsPiRepairable(facts, Π) holds. The references
//    run against a cloned symbol table so their chases never mint into
//    the live one (which would shift later null labels).
//
// The same per-round checks run on KBs with existential TGDs — the Durum
// Wheat reconstruction and synthetic KBs with noise TGDs — where chased
// bases differ between engines only by null labels, which the
// support-level comparison is blind to.
//
// Regenerating the digests after a deliberate dialogue change: run the
// suite with KBREPAIR_WRITE_DIGESTS=<file>; each case then appends its
// "<case> <digest>" line to <file> instead of comparing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/durum_wheat.h"
#include "gen/synthetic.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "repair/inquiry.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "rules/knowledge_base.h"
#include "support/conflict_finder.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

SyntheticKbOptions KbOptions(uint64_t seed, bool with_tgds) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 60 + (seed % 5) * 20;  // 60..140 facts
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  if (with_tgds) {
    options.num_tgds = 6;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.5;
  }
  return options;
}

// (CDD index, original support) of every conflict, sorted: the
// engine-independent identity of a census (matched ids of derived atoms
// depend on the order a chase derived them in).
using CensusKey = std::vector<std::pair<size_t, std::vector<AtomId>>>;

CensusKey KeyOf(const std::vector<Conflict>& census) {
  CensusKey key;
  key.reserve(census.size());
  for (const Conflict& c : census) key.emplace_back(c.cdd_index, c.support);
  std::sort(key.begin(), key.end());
  return key;
}

// Checks the live engine against the reference implementations after
// an answer (see the file comment).
void ExpectMatchesReference(const InquiryEngine& engine,
                            const KnowledgeBase& kb,
                            const ChaseOptions& chase_options,
                            size_t round) {
  const std::optional<std::vector<Conflict>> live = engine.chased_census();
  ASSERT_TRUE(live.has_value()) << "round " << round;
  const DeltaConflictEngine* skeleton = engine.repairability().skeleton();
  ASSERT_NE(skeleton, nullptr) << "round " << round;

  std::unique_ptr<SymbolTable> symbols = kb.symbols().Clone();
  ConflictFinder finder(symbols.get(), &kb.tgds(), &kb.cdds(),
                        chase_options);
  StatusOr<std::vector<Conflict>> reference =
      finder.AllConflicts(engine.working_facts());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(KeyOf(*live), KeyOf(*reference))
      << "round " << round << ": maintained census diverges from the "
      << "reference (" << live->size() << " vs " << reference->size()
      << " conflicts)";

  RepairabilityChecker repairability(symbols.get(), &kb.tgds(), &kb.cdds(),
                                     chase_options);
  StatusOr<bool> repairable = repairability.IsPiRepairable(
      engine.working_facts(), engine.current_pi());
  ASSERT_TRUE(repairable.ok()) << repairable.status();
  EXPECT_EQ(skeleton->empty(), *repairable)
      << "round " << round << ": skeleton census holds " << skeleton->size()
      << " conflicts but the reference Π-repairability verdict is "
      << *repairable;
}

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex16(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// Runs one dialogue with seeded choices, checking every round against
// the references, and returns its transcript rendering.
std::string RunDialogue(KnowledgeBase& kb, const InquiryOptions& options,
                        uint64_t choice_seed) {
  InquiryEngine engine(&kb, options);
  const Status begun = engine.Begin();
  EXPECT_TRUE(begun.ok()) << begun;
  if (!begun.ok()) return "";

  // Begin's initial count comes off the engine it builds; it must equal
  // the scratch census of the unrepaired base.
  {
    std::unique_ptr<SymbolTable> symbols = kb.symbols().Clone();
    ConflictFinder finder(symbols.get(), &kb.tgds(), &kb.cdds(),
                          options.chase_options);
    StatusOr<std::vector<Conflict>> initial = finder.AllConflicts(kb.facts());
    EXPECT_TRUE(initial.ok()) << initial.status();
    if (!initial.ok()) return "";
    EXPECT_EQ(engine.progress().initial_conflicts, initial->size());
  }

  std::string transcript;
  Rng chooser(choice_seed);
  size_t round = 0;
  while (true) {
    StatusOr<const Question*> asked = engine.NextQuestion();
    EXPECT_TRUE(asked.ok()) << asked.status();
    if (!asked.ok() || *asked == nullptr) break;
    const Question& question = **asked;

    transcript += "q cdd=" + std::to_string(question.source_cdd) + " pos=";
    for (const Position& p : question.considered_positions) {
      const std::string atom = std::to_string(p.atom);
      transcript += "(" + atom + "," + std::to_string(p.arg) + ")";
    }
    transcript += " fixes=";
    for (const Fix& fix : question.fixes) {
      const std::string atom = std::to_string(fix.atom);
      transcript += "(" + atom + "," + std::to_string(fix.arg) + "," +
                    kb.symbols().term_name(fix.value) + ")";
    }

    const size_t choice = chooser.UniformIndex(question.fixes.size());
    const Status answered = engine.Answer(choice);
    EXPECT_TRUE(answered.ok()) << answered;
    if (!answered.ok()) break;
    const QuestionRecord& record = engine.progress().records.back();
    transcript += " choice=" + std::to_string(choice) +
                  " phase=" + std::to_string(record.phase) +
                  " remaining=" + std::to_string(record.conflicts_remaining) +
                  "\n";

    ExpectMatchesReference(engine, kb, options.chase_options, round);
    if (::testing::Test::HasFatalFailure()) break;
    ++round;
  }

  StatusOr<InquiryResult> result = engine.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return transcript;
  transcript += "initial=" + std::to_string(result->initial_conflicts) +
                " naive=" + std::to_string(result->initial_naive_conflicts) +
                "\n";
  for (AtomId id = 0; id < result->facts.size(); ++id) {
    transcript += result->facts.atom(id).ToString(kb.symbols()) + "\n";
  }
  return transcript;
}

struct DifferentialCase {
  uint64_t seed;
  Strategy strategy;
  bool two_phase;
  bool with_tgds;
};

std::string CaseName(const ::testing::TestParamInfo<DifferentialCase>& info) {
  const DifferentialCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.two_phase ? "_2ph" : "_basic";
  name += c.with_tgds ? "_tgd" : "_flat";
  name += "_s" + std::to_string(c.seed);
  return name;
}

const std::map<std::string, std::string>& GoldenDigests() {
  static const std::map<std::string, std::string>* digests = [] {
    auto* out = new std::map<std::string, std::string>();
    std::ifstream in(KBREPAIR_DIGESTS_FILE);
    std::string name;
    std::string digest;
    while (in >> name >> digest) out->emplace(name, digest);
    return out;
  }();
  return *digests;
}

class DifferentialInquiry
    : public ::testing::TestWithParam<DifferentialCase> {};

// One full dialogue: reference-checked every round, digest compared at
// the end.
TEST_P(DifferentialInquiry, EnginesProduceIdenticalDialogues) {
  const DifferentialCase& param = GetParam();
  StatusOr<SyntheticKb> gen =
      GenerateSyntheticKb(KbOptions(param.seed, param.with_tgds));
  ASSERT_TRUE(gen.ok()) << gen.status();

  InquiryOptions options;
  options.strategy = param.strategy;
  options.two_phase = param.two_phase;
  options.seed = param.seed * 17 + 3;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;

  const std::string transcript =
      RunDialogue(gen->kb, options, param.seed * 101 + 13);
  ASSERT_FALSE(HasFailure());
  const std::string digest = Hex16(Fnv1a64(transcript));
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string case_name = name.substr(name.find('/') + 1);

  if (const char* out = std::getenv("KBREPAIR_WRITE_DIGESTS")) {
    std::ofstream(out, std::ios::app) << case_name << " " << digest << "\n";
    return;
  }
  const auto it = GoldenDigests().find(case_name);
  ASSERT_NE(it, GoldenDigests().end())
      << "no golden digest for " << case_name << " in "
      << KBREPAIR_DIGESTS_FILE;
  EXPECT_EQ(digest, it->second) << "transcript:\n" << transcript;
}

std::vector<DifferentialCase> MakeCases() {
  std::vector<DifferentialCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd};
  // 4 strategies x 2 algorithm modes x 2 workloads x 13 seeds = 208 runs.
  for (const Strategy strategy : strategies) {
    for (const bool two_phase : {false, true}) {
      for (const bool with_tgds : {false, true}) {
        for (uint64_t seed = 1; seed <= 13; ++seed) {
          cases.push_back({seed, strategy, two_phase, with_tgds});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialInquiry,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// opti-learn shares opti-mcd's position ranking and adds the learned
// re-ordering of each question's fixes: 2 modes x 2 workloads x 13
// seeds more, whose digests follow the 208 rows above.
std::vector<DifferentialCase> MakeLearnCases() {
  std::vector<DifferentialCase> cases;
  for (const bool two_phase : {false, true}) {
    for (const bool with_tgds : {false, true}) {
      for (uint64_t seed = 1; seed <= 13; ++seed) {
        cases.push_back({seed, Strategy::kOptiLearn, two_phase, with_tgds});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(LearnSweep, DifferentialInquiry,
                         ::testing::ValuesIn(MakeLearnCases()), CaseName);

// --- Existential TGDs -------------------------------------------------------

InquiryOptions ExistentialOptions(Strategy strategy, bool two_phase,
                                  uint64_t seed) {
  InquiryOptions options;
  options.strategy = strategy;
  options.two_phase = two_phase;
  options.seed = seed;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;
  return options;
}

TEST(ExistentialReference, DurumWheatEveryRoundMatchesReference) {
  for (const Strategy strategy : {Strategy::kRandom, Strategy::kOptiMcd}) {
    SCOPED_TRACE(StrategyName(strategy));
    StatusOr<DurumWheatKb> gen = GenerateDurumWheatKb(DurumWheatOptions{});
    ASSERT_TRUE(gen.ok()) << gen.status();
    RunDialogue(gen->kb, ExistentialOptions(strategy, true, 7), 11);
    ASSERT_FALSE(HasFailure());
  }
}

TEST(ExistentialReference, NoiseTgdKbsEveryRoundMatchesReference) {
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Strategy strategy : strategies) {
      for (const bool two_phase : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                     StrategyName(strategy) +
                     (two_phase ? " two-phase" : " basic"));
        SyntheticKbOptions kb_options = KbOptions(seed, /*with_tgds=*/true);
        kb_options.num_noise_tgds = 4;
        kb_options.noise_tgd_fire_share = 1.0;
        StatusOr<SyntheticKb> gen = GenerateSyntheticKb(kb_options);
        ASSERT_TRUE(gen.ok()) << gen.status();
        RunDialogue(gen->kb,
                    ExistentialOptions(strategy, two_phase, seed * 17 + 3),
                    seed * 101 + 13);
        ASSERT_FALSE(HasFailure());
      }
    }
  }
}

}  // namespace
}  // namespace kbrepair
