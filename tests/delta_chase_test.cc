// Metamorphic properties of the chase and the incremental chase.
//
//  * Fix-then-chase == chase-then-retract-then-resaturate: after any
//    sequence of admissible position fixes, the maintained base of
//    IncrementalChase holds exactly the same atoms as a from-scratch
//    restricted chase of the updated facts (modulo labeled-null renaming
//    and derived-atom ids), and the same conflict census.
//  * Permutation invariance: inserting the facts in a different order,
//    or reordering the TGDs, yields the same Cl(F) modulo null renaming.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "gen/synthetic.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/fix.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// Rendering of an atom with every labeled null replaced by "_"; the
// multiset of these signatures identifies a chased base up to null
// renaming when nulls occur "linearly" (each fresh null appears in the
// atoms of one firing) — true for the synthetic generator's rules.
std::string AtomSignature(const Atom& atom, const SymbolTable& symbols) {
  std::string out = symbols.predicate_name(atom.predicate);
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ',';
    out += symbols.IsNull(atom.args[i]) ? "_"
                                        : symbols.term_name(atom.args[i]);
  }
  out += ')';
  return out;
}

std::multiset<std::string> AliveSignatures(const FactBase& facts,
                                           const SymbolTable& symbols) {
  std::multiset<std::string> signatures;
  for (AtomId id = 0; id < facts.size(); ++id) {
    if (!facts.alive(id)) continue;
    signatures.insert(AtomSignature(facts.atom(id), symbols));
  }
  return signatures;
}

SyntheticKbOptions ChainOptions(uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 80;
  options.inconsistency_ratio = 0.3;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.num_tgds = 8;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.6;
  return options;
}

// Draws an admissible random fix for `facts`.
Fix RandomFix(const FactBase& facts, SymbolTable& symbols, Rng& rng) {
  while (true) {
    const AtomId atom = static_cast<AtomId>(rng.UniformIndex(facts.size()));
    const Atom& a = facts.atom(atom);
    if (a.arity() == 0) continue;
    const int arg = static_cast<int>(rng.UniformIndex(
        static_cast<size_t>(a.arity())));
    std::vector<TermId> domain =
        facts.ActiveDomain(a.predicate, arg);
    domain.erase(std::remove(domain.begin(), domain.end(),
                             a.args[static_cast<size_t>(arg)]),
                 domain.end());
    TermId value;
    if (domain.empty() || rng.Bernoulli(0.25)) {
      value = symbols.MakeFreshNull();
    } else {
      value = rng.Choose(domain);
    }
    return Fix{atom, arg, value};
  }
}

class DeltaChaseMetamorphic : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaChaseMetamorphic, FixThenChaseEqualsRetractThenResaturate) {
  const uint64_t seed = GetParam();
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(ChainOptions(seed));
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;

  IncrementalChase incremental(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(incremental.Initialize(kb.facts()).ok());

  FactBase facts = kb.facts();  // the mirrored working base
  Rng rng(seed * 977 + 5);
  for (int step = 0; step < 12; ++step) {
    const Fix fix = RandomFix(facts, kb.symbols(), rng);
    ApplyFix(facts, fix);
    StatusOr<IncrementalChase::Delta> delta =
        incremental.ApplyFix(fix.atom, fix.arg, fix.value);
    ASSERT_TRUE(delta.ok()) << delta.status();

    // The retract/resaturate base must equal a fresh restricted chase of
    // the updated facts, atom for atom (modulo nulls and ids).
    IncrementalChase scratch(&kb.symbols(), &kb.tgds());
    ASSERT_TRUE(scratch.Initialize(facts).ok());
    EXPECT_EQ(AliveSignatures(scratch.facts(), kb.symbols()),
              AliveSignatures(incremental.facts(), kb.symbols()))
        << "step " << step << " (fix atom " << fix.atom << " arg "
        << fix.arg << ")";
    ASSERT_EQ(incremental.facts().num_alive(), scratch.facts().size())
        << "step " << step;

    // Delta bookkeeping: retracted ids dead, added ids alive and derived.
    for (AtomId id : delta->retracted) {
      EXPECT_FALSE(incremental.facts().alive(id));
    }
    for (AtomId id : delta->added) {
      EXPECT_TRUE(incremental.facts().alive(id));
      EXPECT_FALSE(incremental.IsOriginal(id));
    }
  }
}

TEST_P(DeltaChaseMetamorphic, AtomOrderPermutationInvariance) {
  const uint64_t seed = GetParam();
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(ChainOptions(seed));
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;

  IncrementalChase base(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(base.Initialize(kb.facts()).ok());

  // Re-insert the original facts in a shuffled order.
  std::vector<AtomId> order(kb.facts().size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<AtomId>(i);
  }
  Rng rng(seed * 31 + 1);
  rng.Shuffle(order);
  FactBase shuffled;
  for (AtomId id : order) shuffled.Add(kb.facts().atom(id));

  IncrementalChase permuted(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(permuted.Initialize(shuffled).ok());
  EXPECT_EQ(AliveSignatures(base.facts(), kb.symbols()),
            AliveSignatures(permuted.facts(), kb.symbols()));
}

TEST_P(DeltaChaseMetamorphic, TgdOrderPermutationInvariance) {
  const uint64_t seed = GetParam();
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(ChainOptions(seed));
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;

  IncrementalChase base(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(base.Initialize(kb.facts()).ok());

  std::vector<Tgd> reversed(kb.tgds().rbegin(), kb.tgds().rend());
  IncrementalChase permuted(&kb.symbols(), &reversed);
  ASSERT_TRUE(permuted.Initialize(kb.facts()).ok());
  EXPECT_EQ(AliveSignatures(base.facts(), kb.symbols()),
            AliveSignatures(permuted.facts(), kb.symbols()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaChaseMetamorphic,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace kbrepair
