// The engine's maintained opti-mcd rank tables against a recount.
//
// DeltaConflictEngine keeps, per census, position -> the conflicts whose
// resolving position set contains it, updated on every conflict add,
// drop and support change; question selection reads it instead of
// recounting. Before every question of a dialogue, these tests recount
// the ranking with the reference RankPositions (tests/support) over the
// census the question was selected from and require:
//   * the same rank groups, Π positions left out as selection leaves
//     them out, and
//   * for every ranked position, the same conflict: the first one in
//     census order that holds it.
// The dialogues cover opti-mcd and opti-learn, Algorithm 4 (naive ranks
// in phase one, census ranks in phase two) and Algorithm 3, synthetic
// KBs without TGDs, with full TGDs and with existential noise TGDs, an
// engine dropped and rebuilt cold mid-dialogue, and sessions forked from
// a shared base.
//
// A last test pins whole dialogues selected from a census the
// `delta.census_drop` failpoint thins: their digests were captured from
// the selection that recounted the ranking over the thinned census every
// round, so the maintained tables must discount the dropped conflict
// exactly as the recount did.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/delta_conflicts.h"
#include "repair/fix.h"
#include "repair/inquiry.h"
#include "repair/kb_snapshot.h"
#include "rules/knowledge_base.h"
#include "support/reference_ranking.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

enum class Workload { kFlat, kTgd, kExistential };

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFlat:
      return "flat";
    case Workload::kTgd:
      return "tgd";
    case Workload::kExistential:
      return "existential";
  }
  return "unknown";
}

SyntheticKbOptions KbOptions(uint64_t seed, Workload workload) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 60 + (seed % 5) * 20;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  if (workload != Workload::kFlat) {
    options.num_tgds = 6;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.5;
  }
  if (workload == Workload::kExistential) {
    options.num_noise_tgds = 4;
    options.noise_tgd_fire_share = 1.0;
  }
  return options;
}

InquiryOptions Options(Strategy strategy, bool two_phase, uint64_t seed) {
  InquiryOptions options;
  options.strategy = strategy;
  options.two_phase = two_phase;
  options.seed = seed * 17 + 3;
  return options;
}

// The pending question was selected from the live engine's census of
// the current phase; its maintained rank table must equal a recount.
void ExpectRanksMatchReference(const InquiryEngine& engine,
                               const KnowledgeBase& kb, bool two_phase,
                               size_t round) {
  const DeltaConflictEngine* delta = engine.conflict_engine();
  ASSERT_NE(delta, nullptr) << "round " << round;
  const bool naive = two_phase && engine.current_phase() == 1;
  const RankTable* ranks =
      delta->built_ranks(naive ? DeltaConflictEngine::RankScope::kNaive
                               : DeltaConflictEngine::RankScope::kCensus);
  ASSERT_NE(ranks, nullptr) << "round " << round
                            << ": selection built no rank table";
  const Status verified = delta->VerifyInvariants();
  ASSERT_TRUE(verified.ok()) << "round " << round << ": " << verified;

  StatusOr<std::vector<Conflict>> census = engine.InspectCensus();
  ASSERT_TRUE(census.ok()) << census.status();
  const PositionSet& pi = engine.current_pi();
  const McdRanking reference =
      RankPositions(*census, engine.working_facts(), kb.cdds(), pi);

  std::map<size_t, std::vector<Position>, std::greater<size_t>> maintained;
  for (const auto& [rank, position] : ranks->ranking()) {
    if (pi.count(position) == 0) maintained[rank].push_back(position);
  }
  ASSERT_EQ(maintained, reference.groups)
      << "round " << round << ": maintained rank groups diverge from the "
      << "recount over " << census->size() << " conflicts";

  for (const auto& [position, conflict] : reference.conflict_for) {
    const Conflict* first = ranks->FirstHolder(position);
    ASSERT_NE(first, nullptr) << "round " << round;
    ASSERT_TRUE(first->SameAs(*conflict))
        << "round " << round << ": position (" << position.atom << ","
        << position.arg << ") resolves to a conflict of CDD "
        << first->cdd_index << " instead of the first holder, of CDD "
        << conflict->cdd_index;
  }
}

// Drives a begun dialogue to consistency with seeded choices, checking
// the ranks before every question. `before_answer(round)` runs just
// before each answer.
template <typename BeforeAnswer>
void RunCheckedDialogue(InquiryEngine& engine, const KnowledgeBase& kb,
                        bool two_phase, uint64_t choice_seed,
                        BeforeAnswer&& before_answer) {
  Rng chooser(choice_seed);
  for (size_t round = 0;; ++round) {
    StatusOr<const Question*> asked = engine.NextQuestion();
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (*asked == nullptr) break;
    ExpectRanksMatchReference(engine, kb, two_phase, round);
    if (::testing::Test::HasFatalFailure()) return;
    before_answer(round);
    const Status answered =
        engine.Answer(chooser.UniformIndex((*asked)->fixes.size()));
    ASSERT_TRUE(answered.ok()) << answered;
  }
  EXPECT_TRUE(engine.finished());
}

struct RankCase {
  Strategy strategy;
  bool two_phase;
  Workload workload;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<RankCase>& info) {
  const RankCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + (c.two_phase ? "_2ph_" : "_basic_") +
         WorkloadName(c.workload) + "_s" + std::to_string(c.seed);
}

std::vector<RankCase> MakeCases() {
  std::vector<RankCase> cases;
  for (const Strategy strategy : {Strategy::kOptiMcd, Strategy::kOptiLearn}) {
    for (const bool two_phase : {false, true}) {
      for (const Workload workload :
           {Workload::kFlat, Workload::kTgd, Workload::kExistential}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          cases.push_back({strategy, two_phase, workload, seed});
        }
      }
    }
  }
  return cases;
}

class RankAgreement : public ::testing::TestWithParam<RankCase> {};

TEST_P(RankAgreement, MaintainedRanksMatchRecountBeforeEveryQuestion) {
  const RankCase& c = GetParam();
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(KbOptions(c.seed, c.workload));
  ASSERT_TRUE(gen.ok()) << gen.status();
  InquiryEngine engine(&gen->kb, Options(c.strategy, c.two_phase, c.seed));
  ASSERT_TRUE(engine.Begin().ok());
  RunCheckedDialogue(engine, gen->kb, c.two_phase, c.seed * 101 + 13,
                     [](size_t) {});
}

INSTANTIATE_TEST_SUITE_P(Matrix, RankAgreement,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// A failed maintenance step drops the engine; its cold rebuild must
// build its rank tables afresh and keep them in step from there on.
TEST(RankAgreementLifecycle, RanksFollowACorruptedEngineThroughItsRebuild) {
  for (const bool two_phase : {false, true}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(two_phase ? "two-phase" : "basic") +
                   " seed " + std::to_string(seed));
      StatusOr<SyntheticKb> gen =
          GenerateSyntheticKb(KbOptions(seed, Workload::kTgd));
      ASSERT_TRUE(gen.ok()) << gen.status();
      InquiryEngine engine(&gen->kb,
                           Options(Strategy::kOptiMcd, two_phase, seed));
      ASSERT_TRUE(engine.Begin().ok());
      // The first failpoint hit of an answer is the chased engine's own
      // maintenance (the skeleton follows it), so failing one hit drops
      // exactly that engine.
      RunCheckedDialogue(engine, gen->kb, two_phase, seed * 101 + 13,
                         [](size_t round) {
                           if (round == 2) {
                             failpoint::Arm("delta.corrupt", 0, 1);
                           }
                         });
      failpoint::Reset();
      ASSERT_FALSE(HasFatalFailure());
      EXPECT_EQ(engine.progress().engine_rebuilds, 1u);
    }
  }
}

// A session forked from a shared base adopts the prototype's census
// and builds its rank tables on its first question.
TEST(RankAgreementLifecycle, ForkedSessionRanksMatchRecount) {
  for (const Workload workload : {Workload::kTgd, Workload::kExistential}) {
    for (const bool two_phase : {false, true}) {
      SCOPED_TRACE(std::string(WorkloadName(workload)) +
                   (two_phase ? " two-phase" : " basic"));
      StatusOr<SyntheticKb> gen = GenerateSyntheticKb(KbOptions(2, workload));
      ASSERT_TRUE(gen.ok()) << gen.status();
      StatusOr<std::shared_ptr<const SharedKbSnapshot>> snapshot =
          BuildSharedKbSnapshot(std::move(gen->kb), "base", ChaseOptions{});
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();
      ASSERT_NE((*snapshot)->delta_proto, nullptr);
      KnowledgeBase kb = (*snapshot)->Fork();
      InquiryEngine engine(&kb, Options(Strategy::kOptiMcd, two_phase, 2));
      ASSERT_TRUE(engine.BeginShared((*snapshot)->Seed()).ok());
      RunCheckedDialogue(engine, kb, two_phase, 215, [](size_t) {});
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

// A fix can give a surviving derived conflict a new canonical support,
// and with it new positions: here r(b) -> r(a) makes q(a) provable from
// r(a), whose support {r(a)} is smaller than {p(a)}, while the conflict
// on q(a), s(a) survives the fix untouched.
TEST(RankAgreementEngine, SupportChangeMovesADerivedConflictsPositions) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
    r(b). s(a). p(a).
    q(X) :- p(X).
    q(X) :- r(X).
    ! :- q(X), s(X).
  )");
  ASSERT_TRUE(kb.ok()) << kb.status();
  DeltaConflictEngine engine(&kb->symbols(), &kb->tgds(), &kb->cdds());
  ASSERT_TRUE(engine.Initialize(kb->facts()).ok());
  const RankTable& ranks =
      engine.ranks(DeltaConflictEngine::RankScope::kCensus);
  ASSERT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.CanonicalConflicts()[0].support,
            (std::vector<AtomId>{1, 2}));

  const TermId a = kb->symbols().InternConstant("a");
  ASSERT_TRUE(engine.OnFixApplied(/*atom=*/0, /*arg=*/0, a).ok());
  FactBase fixed = kb->facts();
  ApplyFix(fixed, Fix{0, 0, a});

  const std::vector<Conflict> census = engine.CanonicalConflicts();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].support, (std::vector<AtomId>{0, 1}));
  const McdRanking reference =
      RankPositions(census, fixed, kb->cdds(), PositionSet{});
  std::map<size_t, std::vector<Position>, std::greater<size_t>> maintained;
  for (const auto& [rank, position] : ranks.ranking()) {
    maintained[rank].push_back(position);
  }
  EXPECT_EQ(maintained, reference.groups);
  EXPECT_TRUE(engine.VerifyInvariants().ok()) << engine.VerifyInvariants();
}

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Every question (source CDD, positions, fixes with term names) and
// answer of a dialogue, then the final facts.
std::string DialogueTranscript(KnowledgeBase& kb, InquiryOptions options,
                               uint64_t choice_seed) {
  InquiryEngine engine(&kb, options);
  EXPECT_TRUE(engine.Begin().ok());
  std::string out;
  Rng chooser(choice_seed);
  while (true) {
    StatusOr<const Question*> asked = engine.NextQuestion();
    EXPECT_TRUE(asked.ok()) << asked.status();
    if (!asked.ok() || *asked == nullptr) break;
    out += "q cdd=" + std::to_string((*asked)->source_cdd) + " pos=";
    for (const Position& p : (*asked)->considered_positions) {
      const std::string atom = std::to_string(p.atom);
      out += "(" + atom + "," + std::to_string(p.arg) + ")";
    }
    out += " fixes=";
    for (const Fix& fix : (*asked)->fixes) {
      const std::string atom = std::to_string(fix.atom);
      out += "(" + atom + "," + std::to_string(fix.arg) + "," +
             kb.symbols().term_name(fix.value) + ")";
    }
    const size_t choice = chooser.UniformIndex((*asked)->fixes.size());
    out += " choice=" + std::to_string(choice) + "\n";
    if (!engine.Answer(choice).ok()) break;
  }
  StatusOr<InquiryResult> result = engine.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return out;
  for (AtomId id = 0; id < result->facts.size(); ++id) {
    out += result->facts.atom(id).ToString(kb.symbols()) + "\n";
  }
  return out;
}

TEST(RankAgreementLifecycle, CensusDropDialoguesMatchRecountedSelection) {
  // (two-phase, seed) -> digest of the dialogue with every read of the
  // chased census losing its last conflict.
  const struct {
    bool two_phase;
    uint64_t seed;
    const char* digest;
  } kGolden[] = {
      {false, 1, "35118a14a981cddc"}, {false, 2, "a2f44215aafeb956"},
      {false, 3, "9e0df5acb5612b44"}, {true, 1, "e15d3199fd4d24a3"},
      {true, 2, "1dc6e5960d4e8443"},  {true, 3, "fc3e093a9b097d2c"},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(std::string(golden.two_phase ? "two-phase" : "basic") +
                 " seed " + std::to_string(golden.seed));
    StatusOr<SyntheticKb> gen =
        GenerateSyntheticKb(KbOptions(golden.seed, Workload::kTgd));
    ASSERT_TRUE(gen.ok()) << gen.status();
    failpoint::Arm("delta.census_drop", /*skip=*/0, /*fail=*/-1);
    const std::string transcript = DialogueTranscript(
        gen->kb, Options(Strategy::kOptiMcd, golden.two_phase, golden.seed),
        golden.seed * 101 + 13);
    failpoint::Reset();
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(transcript)));
    EXPECT_EQ(std::string(digest), golden.digest) << transcript;
  }
}

}  // namespace
}  // namespace kbrepair
