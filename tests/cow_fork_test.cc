// Fork-equivalence differential harness for shared-base CoW sessions.
//
// A session forked from a frozen SharedKbSnapshot (BeginShared + shared
// symbol/fact segments) must be indistinguishable — question by
// question, fix by fix, census by census, fact by fact — from a cold
// private session over an identically generated KB. Five layers:
//
//  * Engine-level lockstep over the full 208-dialogue differential
//    matrix (4 strategies x 2 phase modes x 2 workloads x 13 seeds),
//    mirroring incremental_conflict_test.cc with one side replaced by
//    a snapshot fork. Snapshots are cached per (seed, with_tgds) so the
//    matrix also exercises many forks of one base. The fork either
//    adopts the snapshot's frozen conflict-engine prototypes ("_inc"
//    cases, even seeds) or builds its engines from scratch over the
//    forked facts ("_scr" cases, odd seeds) — the path a fork takes
//    after an engine rebuild.
//  * The same lockstep across all five strategies x both fork engine
//    paths on one base (adds opti-learn, which the matrix omits).
//  * Existential TGDs: a fork adopting both prototypes of a base whose
//    chase mints nulls matches a cold session term for term, with no
//    null bijection.
//  * Service-level: a SessionManager session created from a registered
//    base must produce byte-identical ask transcripts and close output
//    to a private-KB session (no null bijection — the snapshot
//    replicates Begin() exactly, so even minted null names coincide).
//  * Daemon-level: register a base, fork a session, kill -9 the daemon
//    mid-dialogue, restart with --recover-dir; the revived session
//    re-forks from the recovered registry and must finish byte-identical
//    to an uninterrupted private run.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "repair/inquiry.h"
#include "repair/kb_snapshot.h"
#include "repair/question.h"
#include "rules/knowledge_base.h"
#include "service/daemon_client.h"
#include "service/session_manager.h"
#include "support/temp_dir.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// --- Engine-level lockstep ------------------------------------------------

// Null bijection between the two dialogues (the private KB mints its
// nulls independently of the frozen base's).
class NullBijection {
 public:
  bool Corresponds(TermId a, const SymbolTable& sa, TermId b,
                   const SymbolTable& sb) {
    const bool a_null = sa.IsNull(a);
    const bool b_null = sb.IsNull(b);
    if (a_null != b_null) return false;
    if (!a_null) return a == b;
    auto fwd = fwd_.find(a);
    auto rev = rev_.find(b);
    if (fwd == fwd_.end() && rev == rev_.end()) {
      fwd_.emplace(a, b);
      rev_.emplace(b, a);
      return true;
    }
    return fwd != fwd_.end() && fwd->second == b && rev != rev_.end() &&
           rev->second == a;
  }

 private:
  std::unordered_map<TermId, TermId> fwd_;
  std::unordered_map<TermId, TermId> rev_;
};

// Same generator profile as the 208-case differential matrix.
SyntheticKbOptions KbOptions(uint64_t seed, bool with_tgds) {
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
  if (with_tgds) {
    options.num_tgds = 6;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.5;
  }
  return options;
}

// One frozen snapshot per (seed, with_tgds), shared by every strategy
// and engine combination that uses that KB — the production shape:
// register once, fork many.
const std::shared_ptr<const SharedKbSnapshot>& CachedSnapshot(
    uint64_t seed, bool with_tgds) {
  static std::map<std::pair<uint64_t, bool>,
                  std::shared_ptr<const SharedKbSnapshot>>
      cache;
  auto key = std::make_pair(seed, with_tgds);
  auto it = cache.find(key);
  if (it == cache.end()) {
    StatusOr<SyntheticKb> gen = GenerateSyntheticKb(KbOptions(seed, with_tgds));
    KBREPAIR_CHECK(gen.ok());
    StatusOr<std::shared_ptr<const SharedKbSnapshot>> snapshot =
        BuildSharedKbSnapshot(std::move(gen->kb),
                              "synthetic-" + std::to_string(seed),
                              ChaseOptions{});
    KBREPAIR_CHECK(snapshot.ok());
    it = cache.emplace(key, std::move(snapshot).value()).first;
  }
  return it->second;
}

struct ForkCase {
  uint64_t seed;
  Strategy strategy;
  // The fork adopts the snapshot's frozen engine prototypes; otherwise
  // it builds its conflict engines from scratch.
  bool adopt_prototypes;
  bool two_phase;
  bool with_tgds;
};

// A full lockstep dialogue: cold private engine vs snapshot fork.
void RunLockstep(const ForkCase& param) {
  StatusOr<SyntheticKb> gen_private =
      GenerateSyntheticKb(KbOptions(param.seed, param.with_tgds));
  ASSERT_TRUE(gen_private.ok()) << gen_private.status();
  KnowledgeBase& kb_private = gen_private->kb;

  const std::shared_ptr<const SharedKbSnapshot>& snapshot =
      CachedSnapshot(param.seed, param.with_tgds);
  KnowledgeBase kb_fork = snapshot->Fork();

  InquiryOptions options;
  options.strategy = param.strategy;
  options.two_phase = param.two_phase;
  options.seed = param.seed * 17 + 3;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;

  InquiryEngine cold(&kb_private, options);
  InquiryEngine forked(&kb_fork, options);

  SharedBeginSeed seed = snapshot->Seed();
  if (!param.adopt_prototypes) {
    seed.delta_proto = nullptr;
    seed.skeleton_proto = nullptr;
  }
  ASSERT_TRUE(cold.Begin().ok());
  ASSERT_TRUE(forked.BeginShared(seed).ok());

  NullBijection nulls;
  Rng chooser(param.seed * 101 + 13);
  size_t round = 0;
  while (true) {
    StatusOr<const Question*> q_c = cold.NextQuestion();
    StatusOr<const Question*> q_f = forked.NextQuestion();
    ASSERT_TRUE(q_c.ok()) << q_c.status();
    ASSERT_TRUE(q_f.ok()) << q_f.status();
    ASSERT_EQ(*q_c == nullptr, *q_f == nullptr)
        << "round " << round << ": one side finished, the other did not";
    if (*q_c == nullptr) break;

    const Question& question_c = **q_c;
    const Question& question_f = **q_f;
    ASSERT_EQ(question_c.source_cdd, question_f.source_cdd)
        << "round " << round;
    ASSERT_EQ(question_c.considered_positions,
              question_f.considered_positions)
        << "round " << round;
    ASSERT_EQ(question_c.fixes.size(), question_f.fixes.size())
        << "round " << round;
    for (size_t f = 0; f < question_c.fixes.size(); ++f) {
      const Fix& fix_c = question_c.fixes[f];
      const Fix& fix_f = question_f.fixes[f];
      ASSERT_EQ(fix_c.atom, fix_f.atom) << "round " << round << " fix " << f;
      ASSERT_EQ(fix_c.arg, fix_f.arg) << "round " << round << " fix " << f;
      ASSERT_TRUE(nulls.Corresponds(fix_c.value, kb_private.symbols(),
                                    fix_f.value, kb_fork.symbols()))
          << "round " << round << " fix " << f << ": values diverge ("
          << kb_private.symbols().term_name(fix_c.value) << " vs "
          << kb_fork.symbols().term_name(fix_f.value) << ")";
    }

    const size_t choice = chooser.UniformIndex(question_c.fixes.size());
    ASSERT_TRUE(cold.Answer(choice).ok());
    ASSERT_TRUE(forked.Answer(choice).ok());

    const QuestionRecord& record_c = cold.progress().records.back();
    const QuestionRecord& record_f = forked.progress().records.back();
    ASSERT_EQ(record_c.conflicts_remaining, record_f.conflicts_remaining)
        << "round " << round;
    ASSERT_EQ(record_c.phase, record_f.phase) << "round " << round;
    ++round;
  }

  StatusOr<InquiryResult> result_c = cold.Finish();
  StatusOr<InquiryResult> result_f = forked.Finish();
  ASSERT_TRUE(result_c.ok()) << result_c.status();
  ASSERT_TRUE(result_f.ok()) << result_f.status();

  EXPECT_EQ(result_c->initial_conflicts, result_f->initial_conflicts);
  EXPECT_EQ(result_c->initial_naive_conflicts,
            result_f->initial_naive_conflicts);
  ASSERT_EQ(result_c->applied_fixes.size(), result_f->applied_fixes.size());
  for (size_t f = 0; f < result_c->applied_fixes.size(); ++f) {
    EXPECT_EQ(result_c->applied_fixes[f].position(),
              result_f->applied_fixes[f].position());
  }

  const FactBase& facts_c = result_c->facts;
  const FactBase& facts_f = result_f->facts;
  ASSERT_EQ(facts_c.size(), facts_f.size());
  for (AtomId id = 0; id < facts_c.size(); ++id) {
    const Atom& a = facts_c.atom(id);
    const Atom& b = facts_f.atom(id);
    ASSERT_EQ(a.predicate, b.predicate) << "atom " << id;
    ASSERT_EQ(a.args.size(), b.args.size()) << "atom " << id;
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      EXPECT_TRUE(nulls.Corresponds(a.args[pos], kb_private.symbols(),
                                    b.args[pos], kb_fork.symbols()))
          << "atom " << id << " arg " << pos;
    }
  }

  // The base the fork came from is untouched: same size, same census.
  EXPECT_EQ(snapshot->kb.facts().size(),
            CachedSnapshot(param.seed, param.with_tgds)->kb.facts().size());
}

std::string CaseName(const ::testing::TestParamInfo<ForkCase>& info) {
  const ForkCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.adopt_prototypes ? "_inc" : "_scr";
  name += c.two_phase ? "_2ph" : "_basic";
  name += c.with_tgds ? "_tgd" : "_flat";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class ForkDifferential : public ::testing::TestWithParam<ForkCase> {};

TEST_P(ForkDifferential, ForkedDialogueMatchesColdPrivateSession) {
  RunLockstep(GetParam());
}

std::vector<ForkCase> MakeMatrixCases() {
  std::vector<ForkCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd};
  // The 208-dialogue differential matrix, the fork's engine path
  // alternating by seed so both run against forks across the sweep.
  for (const Strategy strategy : strategies) {
    for (const bool two_phase : {false, true}) {
      for (const bool with_tgds : {false, true}) {
        for (uint64_t seed = 1; seed <= 13; ++seed) {
          cases.push_back(
              {seed, strategy, seed % 2 == 0, two_phase, with_tgds});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ForkDifferential,
                         ::testing::ValuesIn(MakeMatrixCases()), CaseName);

// All five strategies (including opti-learn, absent from the matrix)
// crossed with both fork engine paths on one TGD-bearing base.
std::vector<ForkCase> MakeStrategyEngineCases() {
  std::vector<ForkCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd,
                                 Strategy::kOptiLearn};
  for (const Strategy strategy : strategies) {
    for (const bool adopt_prototypes : {false, true}) {
      cases.push_back({3, strategy, adopt_prototypes, /*two_phase=*/true,
                       /*with_tgds=*/true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesBothEngines, ForkDifferential,
                         ::testing::ValuesIn(MakeStrategyEngineCases()),
                         CaseName);

// Existential TGDs mint nulls while the chase saturates. The snapshot
// builds its chased-conflict prototype in Begin's order before freezing,
// so a fork adopting both prototypes mints exactly the nulls a cold
// session mints: no null bijection, the term names and the symbol-table
// size must coincide round by round.
TEST(ExistentialFork, AdoptingForkMatchesColdSessionTermForTerm) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Strategy strategy : {Strategy::kRandom, Strategy::kOptiMcd}) {
      for (const bool two_phase : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                     StrategyName(strategy) +
                     (two_phase ? " two-phase" : " basic"));
        SyntheticKbOptions kb_options = KbOptions(seed, /*with_tgds=*/true);
        kb_options.num_noise_tgds = 4;
        kb_options.noise_tgd_fire_share = 1.0;
        StatusOr<SyntheticKb> gen_private = GenerateSyntheticKb(kb_options);
        ASSERT_TRUE(gen_private.ok()) << gen_private.status();
        KnowledgeBase& kb_private = gen_private->kb;
        StatusOr<SyntheticKb> gen_base = GenerateSyntheticKb(kb_options);
        ASSERT_TRUE(gen_base.ok()) << gen_base.status();
        StatusOr<std::shared_ptr<const SharedKbSnapshot>> snapshot =
            BuildSharedKbSnapshot(std::move(gen_base->kb), "noise",
                                  ChaseOptions{});
        ASSERT_TRUE(snapshot.ok()) << snapshot.status();
        ASSERT_NE((*snapshot)->delta_proto, nullptr);
        ASSERT_NE((*snapshot)->skeleton_proto, nullptr);
        KnowledgeBase kb_fork = (*snapshot)->Fork();

        InquiryOptions options;
        options.strategy = strategy;
        options.two_phase = two_phase;
        options.seed = seed * 17 + 3;
        InquiryEngine cold(&kb_private, options);
        InquiryEngine forked(&kb_fork, options);
        ASSERT_TRUE(cold.Begin().ok());
        ASSERT_TRUE(forked.BeginShared((*snapshot)->Seed()).ok());
        ASSERT_EQ(kb_private.symbols().num_terms(),
                  kb_fork.symbols().num_terms());

        Rng chooser(seed * 101 + 13);
        for (size_t round = 0;; ++round) {
          StatusOr<const Question*> q_c = cold.NextQuestion();
          StatusOr<const Question*> q_f = forked.NextQuestion();
          ASSERT_TRUE(q_c.ok()) << q_c.status();
          ASSERT_TRUE(q_f.ok()) << q_f.status();
          ASSERT_EQ(*q_c == nullptr, *q_f == nullptr) << "round " << round;
          if (*q_c == nullptr) break;
          ASSERT_EQ((*q_c)->fixes.size(), (*q_f)->fixes.size())
              << "round " << round;
          for (size_t f = 0; f < (*q_c)->fixes.size(); ++f) {
            const Fix& fix_c = (*q_c)->fixes[f];
            const Fix& fix_f = (*q_f)->fixes[f];
            ASSERT_EQ(fix_c.position(), fix_f.position())
                << "round " << round << " fix " << f;
            ASSERT_EQ(kb_private.symbols().term_name(fix_c.value),
                      kb_fork.symbols().term_name(fix_f.value))
                << "round " << round << " fix " << f;
          }
          const size_t choice = chooser.UniformIndex((*q_c)->fixes.size());
          ASSERT_TRUE(cold.Answer(choice).ok());
          ASSERT_TRUE(forked.Answer(choice).ok());
          ASSERT_EQ(kb_private.symbols().num_terms(),
                    kb_fork.symbols().num_terms())
              << "round " << round;
        }

        StatusOr<InquiryResult> result_c = cold.Finish();
        StatusOr<InquiryResult> result_f = forked.Finish();
        ASSERT_TRUE(result_c.ok()) << result_c.status();
        ASSERT_TRUE(result_f.ok()) << result_f.status();
        EXPECT_EQ(result_c->initial_conflicts, result_f->initial_conflicts);
        EXPECT_EQ(result_c->engine_rebuilds, 0u);
        EXPECT_EQ(result_f->engine_rebuilds, 0u);
        ASSERT_EQ(result_c->facts.size(), result_f->facts.size());
        for (AtomId id = 0; id < result_c->facts.size(); ++id) {
          EXPECT_EQ(result_c->facts.atom(id).ToString(kb_private.symbols()),
                    result_f->facts.atom(id).ToString(kb_fork.symbols()))
              << "atom " << id;
        }
      }
    }
  }
}

// Original atoms of a skeleton engine: the representatives plus every
// atom of F it holds.
size_t SkeletonOriginals(const DeltaConflictEngine& skeleton) {
  size_t originals = 0;
  for (AtomId id = 0; id < skeleton.chase().facts().size(); ++id) {
    originals += skeleton.chase().IsOriginal(id) ? 1 : 0;
  }
  return originals;
}

// The snapshot's skeleton prototype is the reduced skeleton(F, ∅): one
// all-null atom per predicate of F, no atom of F. The frozen symbol
// table a fork adopts holds one scratch null per representative
// position, however large F is. A fork's answers and probes then add at
// most one atom of F each to its own skeleton, never to the prototype.
TEST(ForkSkeleton, AdoptedPrototypeIsTheReducedSkeleton) {
  SyntheticKbOptions kb_options = KbOptions(4, /*with_tgds=*/true);
  kb_options.num_facts = 600;
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(kb_options);
  ASSERT_TRUE(gen.ok()) << gen.status();
  std::set<PredicateId> predicates;
  for (AtomId id = 0; id < gen->kb.facts().size(); ++id) {
    predicates.insert(gen->kb.facts().atom(id).predicate);
  }
  size_t arity_sum = 0;
  for (const PredicateId pred : predicates) {
    arity_sum += static_cast<size_t>(gen->kb.symbols().predicate_arity(pred));
  }
  StatusOr<std::shared_ptr<const SharedKbSnapshot>> snapshot =
      BuildSharedKbSnapshot(std::move(gen->kb), "reduced", ChaseOptions{});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_NE((*snapshot)->skeleton_proto, nullptr);
  const DeltaConflictEngine& proto = *(*snapshot)->skeleton_proto;
  const size_t proto_originals = SkeletonOriginals(proto);
  const size_t proto_atoms = proto.chase().facts().size();
  EXPECT_EQ(proto_originals, predicates.size());
  const SymbolTable& base_symbols = (*snapshot)->kb.symbols();
  size_t scratch_nulls = 0;
  for (TermId t = 0; t < static_cast<TermId>(base_symbols.num_terms()); ++t) {
    scratch_nulls += base_symbols.IsNull(t) &&
                             base_symbols.term_name(t).rfind("_S", 0) == 0
                         ? 1
                         : 0;
  }
  EXPECT_LE(scratch_nulls, arity_sum);

  KnowledgeBase kb_fork = (*snapshot)->Fork();
  InquiryOptions options;
  options.strategy = Strategy::kOptiMcd;
  options.seed = 23;
  InquiryEngine forked(&kb_fork, options);
  ASSERT_TRUE(forked.BeginShared((*snapshot)->Seed()).ok());
  ASSERT_NE(forked.repairability().skeleton(), nullptr);
  EXPECT_EQ(SkeletonOriginals(*forked.repairability().skeleton()),
            proto_originals);
  Rng chooser(5);
  size_t answers = 0;
  for (; answers < 10; ++answers) {
    StatusOr<const Question*> question = forked.NextQuestion();
    ASSERT_TRUE(question.ok()) << question.status();
    if (*question == nullptr) break;
    ASSERT_TRUE(
        forked.Answer(chooser.UniformIndex((*question)->fixes.size())).ok());
  }
  ASSERT_GT(answers, 0u);
  ASSERT_NE(forked.repairability().skeleton(), nullptr);
  const size_t materialized =
      SkeletonOriginals(*forked.repairability().skeleton()) - proto_originals;
  EXPECT_GT(materialized, 0u);
  StatusOr<InquiryResult> result = forked.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(materialized, answers + result->repairability_full_checks);
  // The fork materialized into its own overlay, not the prototype.
  EXPECT_EQ(SkeletonOriginals(proto), proto_originals);
  EXPECT_EQ(proto.chase().facts().size(), proto_atoms);
}

// Many siblings of one base interleaved: mutations in one fork must
// never leak into another or into the base.
TEST(ForkIsolation, InterleavedSiblingForksStayIndependent) {
  const std::shared_ptr<const SharedKbSnapshot>& snapshot =
      CachedSnapshot(2, /*with_tgds=*/true);
  const size_t base_size = snapshot->kb.facts().size();

  struct Dialogue {
    KnowledgeBase kb;
    std::unique_ptr<InquiryEngine> engine;
    Rng chooser{0};
    bool done = false;
  };
  std::vector<std::unique_ptr<Dialogue>> dialogues;
  for (uint64_t i = 0; i < 6; ++i) {
    auto d = std::make_unique<Dialogue>();
    d->kb = snapshot->Fork();
    InquiryOptions options;
    options.strategy = i % 2 == 0 ? Strategy::kRandom : Strategy::kOptiMcd;
    options.seed = 900 + i;
    d->engine = std::make_unique<InquiryEngine>(&d->kb, options);
    d->chooser = Rng(7000 + i * 31);
    ASSERT_TRUE(d->engine->BeginShared(snapshot->Seed()).ok());
    dialogues.push_back(std::move(d));
  }
  // Round-robin one answer at a time across all forks.
  for (size_t live = dialogues.size(); live > 0;) {
    for (auto& d : dialogues) {
      if (d->done) continue;
      StatusOr<const Question*> q = d->engine->NextQuestion();
      ASSERT_TRUE(q.ok()) << q.status();
      if (*q == nullptr) {
        d->done = true;
        --live;
        continue;
      }
      ASSERT_TRUE(
          d->engine->Answer(d->chooser.UniformIndex((*q)->fixes.size())).ok());
    }
  }
  for (auto& d : dialogues) {
    StatusOr<InquiryResult> result = d->engine->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // The shared base never moved.
  EXPECT_EQ(snapshot->kb.facts().size(), base_size);
}

// --- Service-level --------------------------------------------------------

ServiceRequest MakeRequest(JsonValue params) {
  ServiceRequest request;
  request.command = params.Get("command").AsString();
  request.session_id = params.Get("session").AsString();
  request.params = std::move(params);
  return request;
}

ServiceRequest SessionCommand(const std::string& command,
                              const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return MakeRequest(std::move(params));
}

std::string CloseFingerprint(const JsonValue& closed) {
  JsonValue out = JsonValue::Object();
  out.Set("session", closed.Get("session"));
  out.Set("consistent", closed.Get("consistent"));
  out.Set("questions", closed.Get("questions"));
  out.Set("applied_fixes", closed.Get("applied_fixes"));
  out.Set("facts", closed.Get("facts"));
  return out.Dump();
}

JsonValue RegisterBaseCommand(const std::string& name, uint64_t kb_seed) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("register-base"));
  params.Set("name", JsonValue::String(name));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(kb_seed)));
  return params;
}

// An empty `engine` leaves the param out (the default engine).
JsonValue SessionParams(uint64_t seed, const std::string& strategy,
                        const std::string& engine = "") {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("strategy", JsonValue::String(strategy));
  if (!engine.empty()) params.Set("engine", JsonValue::String(engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

// Drives one session to completion, recording every ask-response dump
// (the wire transcript) and the close fingerprint.
struct ServiceRun {
  std::vector<std::string> transcript;
  std::string close_output;
};

StatusOr<ServiceRun> DriveService(SessionManager& manager,
                                  JsonValue create_params, uint64_t seed) {
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created,
                            manager.Execute(MakeRequest(create_params)));
  const std::string session = created.Get("session").AsString();
  ServiceRun run;
  Rng rng(seed);
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked,
                              manager.Execute(SessionCommand("ask", session)));
    run.transcript.push_back(asked.Dump());
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) return Status::Internal("question with no fixes");
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue answered,
                              manager.Execute(MakeRequest(std::move(answer))));
    run.transcript.push_back(answered.Dump());
  }
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed,
                            manager.Execute(MakeRequest(close)));
  run.close_output = CloseFingerprint(closed);
  return run;
}

// Base-forked service sessions are byte-identical to private ones —
// whole wire transcripts, not just final repairs — across strategies,
// with the engine param named and left out.
TEST(ServiceForkEquivalence, TranscriptsByteIdenticalAcrossStrategies) {
  const uint64_t kb_seed = 20180326;
  for (const char* strategy :
       {"random", "opti-join", "opti-prop", "opti-mcd", "opti-learn"}) {
    for (const char* engine : {"", "incremental"}) {
      SCOPED_TRACE(std::string(strategy) + "/engine=" + engine);

      ServiceConfig private_config;
      private_config.num_workers = 2;
      SessionManager private_manager(private_config);
      JsonValue private_params = SessionParams(kb_seed, strategy, engine);
      private_params.Set("kb", JsonValue::String("synthetic"));
      private_params.Set("kb_seed",
                         JsonValue::Number(static_cast<int64_t>(kb_seed)));
      StatusOr<ServiceRun> private_run =
          DriveService(private_manager, std::move(private_params), kb_seed);
      ASSERT_TRUE(private_run.ok()) << private_run.status();

      ServiceConfig forked_config;
      forked_config.num_workers = 2;
      SessionManager forked_manager(forked_config);
      ASSERT_TRUE(forked_manager
                      .Execute(MakeRequest(RegisterBaseCommand("b", kb_seed)))
                      .ok());
      JsonValue forked_params = SessionParams(kb_seed, strategy, engine);
      forked_params.Set("base", JsonValue::String("b"));
      StatusOr<ServiceRun> forked_run =
          DriveService(forked_manager, std::move(forked_params), kb_seed);
      ASSERT_TRUE(forked_run.ok()) << forked_run.status();

      ASSERT_EQ(private_run->transcript.size(), forked_run->transcript.size());
      for (size_t i = 0; i < private_run->transcript.size(); ++i) {
        ASSERT_EQ(private_run->transcript[i], forked_run->transcript[i])
            << "transcript line " << i;
      }
      EXPECT_EQ(private_run->close_output, forked_run->close_output);
    }
  }
}

// Forking from an unknown base is a clean NotFound, not a crash.
TEST(ServiceForkEquivalence, UnknownBaseIsNotFound) {
  ServiceConfig config;
  SessionManager manager(config);
  JsonValue params = SessionParams(1, "random");
  params.Set("base", JsonValue::String("nope"));
  StatusOr<JsonValue> created = manager.Execute(MakeRequest(params));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
}

#ifdef KBREPAIRD_PATH
// --- Daemon-level: kill -9 mid-dialogue, re-fork from the recovered
// registry, finish byte-identical to an uninterrupted private run.

TEST(DaemonForkRecovery, KillNineReforksFromRecoveredRegistry) {
  const uint64_t seed = 424242;

  // Uninterrupted reference: a private-KB session, in-process.
  ServiceConfig ref_config;
  ref_config.num_workers = 2;
  SessionManager ref_manager(ref_config);
  JsonValue ref_params = SessionParams(seed, "random");
  ref_params.Set("kb", JsonValue::String("synthetic"));
  ref_params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  StatusOr<ServiceRun> ref = DriveService(ref_manager, ref_params, seed);
  ASSERT_TRUE(ref.ok()) << ref.status();
  // transcript = asks and answers interleaved; need > 2 answers to
  // leave something to recover.
  ASSERT_GT(ref->transcript.size(), 6u) << "dialogue too short to interrupt";

  TempDir wal_dir("kbrepair_cow_");
  client::Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--wal-dir",
                          wal_dir.path},
                         client::Stdio::kPipes)
                  .ok());
  client::Connection conn(daemon);
  ASSERT_TRUE(conn.Call(RegisterBaseCommand("crash-base", seed)).ok());

  JsonValue create = SessionParams(seed, "random");
  create.Set("base", JsonValue::String("crash-base"));
  StatusOr<JsonValue> created = conn.Call(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // Replay the reference dialogue prefix: 2 asks + their answers.
  Rng rng(seed);
  size_t transcript_at = 0;
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<JsonValue> asked =
        conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_EQ(asked->Dump(), ref->transcript[transcript_at++]);
    const int64_t num_fixes =
        asked->Get("question").Get("num_fixes").AsInt(0);
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    StatusOr<JsonValue> answered = conn.Call(MakeRequest(answer).params);
    ASSERT_TRUE(answered.ok()) << answered.status();
    ASSERT_EQ(answered->Dump(), ref->transcript[transcript_at++]);
  }

  daemon.Kill9();  // no drain, no flush — a genuine crash

  client::Daemon revived;
  ASSERT_TRUE(revived
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--recover-dir",
                          wal_dir.path},
                         client::Stdio::kPipes)
                  .ok());
  client::Connection revived_conn(revived);

  // The registry came back, and the session re-forked from it (not a
  // rebuilt private KB): its status names the base.
  StatusOr<JsonValue> bases = revived_conn.Call([] {
    JsonValue params = JsonValue::Object();
    params.Set("command", JsonValue::String("list-bases"));
    return params;
  }());
  ASSERT_TRUE(bases.ok()) << bases.status();
  ASSERT_EQ(bases->Get("bases").size(), 1u);
  EXPECT_EQ(bases->Get("bases").at(0).Get("name").AsString(), "crash-base");
  EXPECT_EQ(bases->Get("bases").at(0).Get("refcount").AsInt(-1), 1);

  StatusOr<JsonValue> status =
      revived_conn.Call(SessionCommand("status", session).params);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->Get("base").AsString(), "crash-base");

  // Finish the dialogue; every remaining wire line must match the
  // uninterrupted reference byte for byte.
  for (;;) {
    StatusOr<JsonValue> asked =
        revived_conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_LT(transcript_at, ref->transcript.size());
    ASSERT_EQ(asked->Dump(), ref->transcript[transcript_at++]);
    if (asked->Get("done").AsBool(false)) break;
    const int64_t num_fixes =
        asked->Get("question").Get("num_fixes").AsInt(0);
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    StatusOr<JsonValue> answered =
        revived_conn.Call(MakeRequest(answer).params);
    ASSERT_TRUE(answered.ok()) << answered.status();
    ASSERT_EQ(answered->Dump(), ref->transcript[transcript_at++]);
  }
  EXPECT_EQ(transcript_at, ref->transcript.size());

  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = revived_conn.Call(std::move(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(CloseFingerprint(*closed), ref->close_output)
      << "post-crash forked repair diverged from the uninterrupted run";
  revived_conn.Close();
  EXPECT_EQ(revived.CloseStdinAndWait(), 0);
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
