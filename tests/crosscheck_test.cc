// Randomized differential tests: the optimized engines are cross-checked
// against independent, deliberately naive reference implementations on
// randomly generated instances.
//
//  * homomorphism enumeration vs. brute-force tuple enumeration;
//  * the anchored work-list chase vs. a naive round-based fixpoint
//    (compared by certain-answer semantics — chase results are unique
//    only up to homomorphic equivalence, and certain answers are the
//    invariant both must share as universal models);
//  * apply/diff round-trips under random position rewrites.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "chase/incremental_chase.h"
#include "chase/query.h"
#include "kb/homomorphism.h"
#include "repair/fix.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// --- Random instance building blocks -----------------------------------

struct RandomInstance {
  KnowledgeBase kb;
  std::vector<PredicateId> predicates;
  std::vector<TermId> constants;
};

RandomInstance MakeRandomFacts(uint64_t seed, size_t num_predicates,
                               size_t num_constants, size_t num_facts) {
  RandomInstance instance;
  Rng rng(seed);
  SymbolTable& symbols = instance.kb.symbols();
  for (size_t p = 0; p < num_predicates; ++p) {
    const std::string index = std::to_string(p);
    instance.predicates.push_back(symbols.InternPredicate(
        "p" + index, static_cast<int>(rng.UniformInt(1, 3))));
  }
  for (size_t c = 0; c < num_constants; ++c) {
    const std::string index = std::to_string(c);
    instance.constants.push_back(symbols.InternConstant("c" + index));
  }
  for (size_t f = 0; f < num_facts; ++f) {
    const PredicateId pred = rng.Choose(instance.predicates);
    std::vector<TermId> args;
    for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
      args.push_back(rng.Choose(instance.constants));
    }
    instance.kb.facts().Add(Atom(pred, std::move(args)));
  }
  return instance;
}

// A random connected-ish conjunctive query over the instance.
std::vector<Atom> MakeRandomQuery(RandomInstance& instance, Rng& rng,
                                  size_t num_atoms, size_t num_variables) {
  SymbolTable& symbols = instance.kb.symbols();
  std::vector<TermId> variables;
  for (size_t v = 0; v < num_variables; ++v) {
    const std::string index = std::to_string(v);
    variables.push_back(symbols.InternVariable("V" + index));
  }
  std::vector<Atom> query;
  for (size_t j = 0; j < num_atoms; ++j) {
    const PredicateId pred = rng.Choose(instance.predicates);
    std::vector<TermId> args;
    for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
      // Mostly variables (drawn from a small pool, hence shared/join
      // variables), occasionally a constant.
      if (rng.Bernoulli(0.8)) {
        args.push_back(rng.Choose(variables));
      } else {
        args.push_back(rng.Choose(instance.constants));
      }
    }
    query.emplace_back(pred, std::move(args));
  }
  return query;
}

// Brute force: try every assignment of query atoms to facts.
size_t BruteForceCount(const std::vector<Atom>& query,
                       const FactBase& facts, const SymbolTable& symbols) {
  std::vector<AtomId> choice(query.size(), 0);
  size_t count = 0;
  while (true) {
    // Check this tuple of facts.
    std::unordered_map<TermId, TermId> bindings;
    bool ok = true;
    for (size_t j = 0; j < query.size() && ok; ++j) {
      const Atom& pattern = query[j];
      const Atom& fact = facts.atom(choice[j]);
      if (pattern.predicate != fact.predicate) {
        ok = false;
        break;
      }
      for (int a = 0; a < pattern.arity() && ok; ++a) {
        const TermId term = pattern.args[static_cast<size_t>(a)];
        const TermId value = fact.args[static_cast<size_t>(a)];
        if (symbols.IsVariable(term)) {
          auto [it, inserted] = bindings.emplace(term, value);
          ok = inserted || it->second == value;
        } else {
          ok = term == value;
        }
      }
    }
    if (ok) ++count;
    // Advance the odometer.
    size_t j = 0;
    while (j < choice.size()) {
      if (++choice[j] < facts.size()) break;
      choice[j] = 0;
      ++j;
    }
    if (j == choice.size()) break;
  }
  return count;
}

class HomomorphismCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HomomorphismCrossCheck, CountsAgreeWithBruteForce) {
  RandomInstance instance = MakeRandomFacts(GetParam(),
                                            /*num_predicates=*/3,
                                            /*num_constants=*/4,
                                            /*num_facts=*/8);
  Rng rng(GetParam() * 13 + 1);
  HomomorphismFinder finder(&instance.kb.symbols(), &instance.kb.facts());
  for (int round = 0; round < 25; ++round) {
    const std::vector<Atom> query = MakeRandomQuery(
        instance, rng, /*num_atoms=*/1 + rng.UniformIndex(3),
        /*num_variables=*/2 + rng.UniformIndex(3));
    const size_t fast = finder.Count(query);
    const size_t brute =
        BruteForceCount(query, instance.kb.facts(), instance.kb.symbols());
    ASSERT_EQ(fast, brute)
        << "seed " << GetParam() << " round " << round << ": "
        << AtomsToString(query, instance.kb.symbols());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomomorphismCrossCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Chase vs naive fixpoint --------------------------------------------

// Reference: round-based naive chase. Each round enumerates all triggers
// of all rules against the current base and fires the unsatisfied ones;
// stops when a full round adds nothing.
FactBase NaiveReferenceChase(const FactBase& facts,
                             const std::vector<Tgd>& tgds,
                             SymbolTable& symbols) {
  FactBase base = facts;
  bool changed = true;
  int rounds = 0;
  while (changed) {
    KBREPAIR_CHECK_LT(rounds++, 100);  // weakly acyclic: must converge
    changed = false;
    HomomorphismFinder finder(&symbols, &base);
    for (const Tgd& tgd : tgds) {
      std::vector<Homomorphism> triggers;
      finder.FindAll(tgd.body(), [&](const Homomorphism& hom) {
        triggers.push_back(hom);
        return true;
      });
      for (const Homomorphism& trigger : triggers) {
        const std::vector<Atom> head_query =
            SubstituteTerms(tgd.head(), trigger.bindings);
        HomomorphismFinder head_finder(&symbols, &base);
        if (head_finder.Exists(head_query)) continue;
        std::unordered_map<TermId, TermId> head_bindings = trigger.bindings;
        for (TermId var : tgd.existential_variables()) {
          head_bindings[var] = symbols.MakeFreshNull();
        }
        for (const Atom& head_atom : tgd.head()) {
          const Atom instance = SubstituteTerms(head_atom, head_bindings);
          if (!base.Contains(instance)) base.Add(instance);
        }
        changed = true;
      }
    }
  }
  return base;
}

// Certain answers of a query over a fact base (constants only).
std::set<std::vector<TermId>> CertainAnswersOver(
    const std::vector<Atom>& query, const std::vector<TermId>& answer_vars,
    const FactBase& base, const SymbolTable& symbols) {
  std::set<std::vector<TermId>> answers;
  HomomorphismFinder finder(&symbols, &base);
  finder.FindAll(query, [&](const Homomorphism& hom) {
    std::vector<TermId> tuple;
    for (TermId var : answer_vars) tuple.push_back(hom.Map(var));
    for (TermId t : tuple) {
      if (!symbols.IsConstant(t)) return true;  // not certain
    }
    answers.insert(std::move(tuple));
    return true;
  });
  return answers;
}

class ChaseCrossCheck : public ::testing::TestWithParam<uint64_t> {};

// Random layered TGDs (layering guarantees weak acyclicity): bodies over
// the instance's predicates, heads over fresh layer predicates d0..d2,
// sometimes with an existential. Returns the layer predicates.
std::vector<PredicateId> AddLayeredTgds(RandomInstance& instance, Rng& rng) {
  SymbolTable& symbols = instance.kb.symbols();
  std::vector<PredicateId> layer2;
  for (int k = 0; k < 3; ++k) {
    const std::string index = std::to_string(k);
    layer2.push_back(symbols.InternPredicate("d" + index, 2));
  }
  const TermId x = symbols.InternVariable("X");
  const TermId y = symbols.InternVariable("Y");
  const TermId z = symbols.InternVariable("Z");
  for (int k = 0; k < 3; ++k) {
    const PredicateId body_pred = rng.Choose(instance.predicates);
    std::vector<TermId> body_args;
    for (int a = 0; a < symbols.predicate_arity(body_pred); ++a) {
      body_args.push_back(a == 0 ? x : y);
    }
    const bool existential = rng.Bernoulli(0.5);
    StatusOr<Tgd> tgd = Tgd::Create(
        {Atom(body_pred, body_args)},
        {Atom(layer2[static_cast<size_t>(k)], {x, existential ? z : x})},
        symbols);
    EXPECT_TRUE(tgd.ok()) << tgd.status();
    if (tgd.ok()) instance.kb.tgds().push_back(std::move(tgd).value());
  }
  EXPECT_TRUE(
      CheckWeaklyAcyclic(instance.kb.tgds(), instance.kb.symbols()).ok());
  return layer2;
}

TEST_P(ChaseCrossCheck, CertainAnswersMatchNaiveFixpoint) {
  RandomInstance instance = MakeRandomFacts(GetParam() + 100,
                                            /*num_predicates=*/4,
                                            /*num_constants=*/4,
                                            /*num_facts=*/10);
  Rng rng(GetParam() * 7 + 5);
  SymbolTable& symbols = instance.kb.symbols();
  const std::vector<PredicateId> layer2 = AddLayeredTgds(instance, rng);
  const TermId x = symbols.InternVariable("X");
  const TermId y = symbols.InternVariable("Y");
  const TermId z = symbols.InternVariable("Z");

  // Both chases.
  IncrementalChase chased(&symbols, &instance.kb.tgds());
  ASSERT_TRUE(chased.Initialize(instance.kb.facts()).ok());
  const FactBase reference = NaiveReferenceChase(
      instance.kb.facts(), instance.kb.tgds(), symbols);

  // Compare certain answers of random queries over both results.
  for (int round = 0; round < 15; ++round) {
    std::vector<PredicateId> query_predicates = instance.predicates;
    query_predicates.insert(query_predicates.end(), layer2.begin(),
                            layer2.end());
    std::vector<Atom> query;
    std::vector<TermId> vars = {x, y, z};
    for (size_t j = 0; j < 2; ++j) {
      const PredicateId pred = rng.Choose(query_predicates);
      std::vector<TermId> args;
      for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
        args.push_back(rng.Choose(vars));
      }
      query.emplace_back(pred, std::move(args));
    }
    const std::vector<TermId> answer_vars = {x};
    const auto engine_answers = CertainAnswersOver(
        query, answer_vars, chased.facts(), symbols);
    const auto reference_answers =
        CertainAnswersOver(query, answer_vars, reference, symbols);
    ASSERT_EQ(engine_answers, reference_answers)
        << "seed " << GetParam() << " round " << round << ": "
        << AtomsToString(query, symbols);
  }
}

// CHECKCONSISTENCY-OPT against the naive reference: the ⊥-detecting
// chase (CDDs supplied, stop at the first violation) reports a violation
// exactly when some CDD body maps into the naive fixpoint. Both are
// universal models, so CQ satisfaction agrees despite null renaming.
TEST_P(ChaseCrossCheck, ViolationReportedIffCddMapsIntoNaiveFixpoint) {
  RandomInstance instance = MakeRandomFacts(GetParam() + 100,
                                            /*num_predicates=*/4,
                                            /*num_constants=*/4,
                                            /*num_facts=*/10);
  Rng rng(GetParam() * 13 + 3);
  SymbolTable& symbols = instance.kb.symbols();
  const std::vector<PredicateId> layer2 = AddLayeredTgds(instance, rng);
  const FactBase reference = NaiveReferenceChase(
      instance.kb.facts(), instance.kb.tgds(), symbols);

  std::vector<PredicateId> predicates = instance.predicates;
  predicates.insert(predicates.end(), layer2.begin(), layer2.end());
  const std::vector<TermId> vars = {symbols.InternVariable("X"),
                                    symbols.InternVariable("Y"),
                                    symbols.InternVariable("Z")};
  size_t violated_rounds = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<Cdd> cdds;
    const size_t num_cdds = 1 + rng.UniformIndex(3);
    for (size_t c = 0; c < num_cdds; ++c) {
      std::vector<Atom> body;
      const size_t num_atoms = 1 + rng.UniformIndex(2);
      for (size_t j = 0; j < num_atoms; ++j) {
        const PredicateId pred = rng.Choose(predicates);
        std::vector<TermId> args;
        for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
          args.push_back(rng.Bernoulli(0.85) ? rng.Choose(vars)
                                             : rng.Choose(instance.constants));
        }
        body.emplace_back(pred, std::move(args));
      }
      StatusOr<Cdd> cdd = Cdd::Create(std::move(body), symbols);
      ASSERT_TRUE(cdd.ok()) << cdd.status();
      cdds.push_back(std::move(cdd).value());
    }

    bool expected = false;
    HomomorphismFinder finder(&symbols, &reference);
    for (const Cdd& cdd : cdds) {
      expected = expected || finder.Exists(cdd.body());
    }

    IncrementalChase chased(&symbols, &instance.kb.tgds(), {}, &cdds);
    ASSERT_TRUE(chased.Initialize(instance.kb.facts()).ok());
    ASSERT_EQ(chased.violation().has_value(), expected)
        << "seed " << GetParam() << " round " << round;
    if (!expected) continue;
    ++violated_rounds;
    // The reported match instantiates the violated CDD's body.
    const ChaseViolation& violation = *chased.violation();
    ASSERT_LT(violation.cdd_index, cdds.size());
    const std::vector<Atom>& body = cdds[violation.cdd_index].body();
    ASSERT_EQ(violation.matched.size(), body.size());
    for (size_t j = 0; j < body.size(); ++j) {
      EXPECT_EQ(chased.facts().atom(violation.matched[j]).predicate,
                body[j].predicate);
    }
  }
  // The random CDDs exercise both verdicts.
  EXPECT_GT(violated_rounds, 0u);
  EXPECT_LT(violated_rounds, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseCrossCheck,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Apply/diff round-trips under random rewrites ------------------------

class ApplyDiffCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApplyDiffCrossCheck, DiffRecoversRandomRewrites) {
  RandomInstance instance = MakeRandomFacts(GetParam() + 500,
                                            /*num_predicates=*/3,
                                            /*num_constants=*/5,
                                            /*num_facts=*/12);
  Rng rng(GetParam() * 3 + 11);
  KnowledgeBase& kb = instance.kb;

  for (int round = 0; round < 20; ++round) {
    FactBase mutated = kb.facts();
    const size_t num_rewrites = 1 + rng.UniformIndex(5);
    for (size_t r = 0; r < num_rewrites; ++r) {
      const AtomId atom =
          static_cast<AtomId>(rng.UniformIndex(mutated.size()));
      const int arg = static_cast<int>(rng.UniformIndex(
          static_cast<size_t>(mutated.atom(atom).arity())));
      const TermId value = rng.Bernoulli(0.3)
                               ? kb.symbols().MakeFreshNull()
                               : rng.Choose(instance.constants);
      mutated.SetArg(atom, arg, value);
    }
    const std::vector<Fix> diff = DiffFactBases(kb.facts(), mutated);
    EXPECT_TRUE(IsValidFixSet(diff));
    EXPECT_LE(diff.size(), num_rewrites);  // later rewrites may cancel
    FactBase replayed = kb.facts();
    ASSERT_TRUE(ApplyFixes(replayed, diff).ok());
    EXPECT_TRUE(
        EqualUpToNullRenaming(replayed, mutated, kb.symbols()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyDiffCrossCheck,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace kbrepair
