// Golden chase fingerprints: the full chase (IncrementalChase::
// Initialize) must reproduce, byte for byte, the chased bases recorded
// in tests/data/chase_fingerprints.txt — atom ids and renderings
// (fresh-null names included), every derivation's TGD index and
// parents, and the first CDD violation.
//
// Inputs: the knowledge bases of chase_test, tombstoned working bases,
// four synthetic seeds with and without existential noise TGDs (plain,
// tombstoned, and with every violation routed through TGD chains), and
// Durum Wheat v1; each chased once without CDDs (full saturation) and
// once with them (stop at the first violation). Any change to the
// chase's traversal order — which triggers a wave enumerates, the slot
// order Phase B fires them in, when nulls are minted, where a
// CDD-checking run stops — shows up as a diff against the golden.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chase/incremental_chase.h"
#include "gen/durum_wheat.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "rules/knowledge_base.h"

#ifndef KBREPAIR_CHASE_FINGERPRINTS_FILE
#error "KBREPAIR_CHASE_FINGERPRINTS_FILE must be defined by the build"
#endif

namespace kbrepair {
namespace {

// The knowledge bases of chase_test, in file order.
const char* const kChaseTestKbs[] = {
    R"(hasPain(john, migraine).
       isPainKillerFor(nsaids, migraine).
       prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).)",
    "p(a, b). q(b, c).",
    R"(person(john, x).
       hasParent(X, Z) :- person(X, Y).)",
    R"(person(john, a).
       person(john, b).
       hasParent(X, Z) :- person(X, Y).)",
    R"(p(a, b).
       q(a, b).
       q(X, Y) :- p(X, Y).)",
    R"(p0(a, b).
       p1(X, Y) :- p0(X, Y).
       p2(X, Y) :- p1(X, Y).)",
    "p(a, b).",
    R"(p(a, b).
       q(b, a).
       r(X, Y) :- p(X, Y).
       ! :- p(X, Y), q(Y, X).)",
    R"(p(a, b).
       q(a, b).
       r(X, Y) :- p(X, Y).
       ! :- r(X, Y), q(X, Y).)",
    R"(p(a, b).
       q(c, d).
       ! :- p(X, Y), q(Y, X).)",
    R"(p0(a, b).
       p1(X, Y) :- p0(X, Y).
       p2(X, Y) :- p1(X, Y).
       p3(X, Y) :- p2(X, Y).)",
    R"(p(a, b).
       q(X, Z), r(Z, Y) :- p(X, Y).)",
    R"(c0(a, b).
       other(a, b).
       c1(X, Y) :- c0(X, Y).
       c2(X, Y) :- c1(X, Y).
       c3(X, Y) :- c2(X, Y).
       ! :- c3(X, Y), other(X, Y).)",
    R"(p(a, b).
       p(c, d).
       q(X, Y) :- p(X, Y).)",
    R"(emp(alice).
       assigned(X, hq) :- emp(X).)",
    R"(a(x, y).
       b(X, Y) :- a(X, Y).
       c(X, Y) :- a(X, Y).
       d(X, Y) :- b(X, Y), c(X, Y).)",
    R"(edge(a, b). edge(b, c). edge(c, d).
       path(X, Z) :- edge(X, Y), edge(Y, Z).)",
    R"(base(a, b). base(b, c).
       mid(X, Y) :- base(X, Y).
       top(X, Z) :- mid(X, Y), base(Y, Z).)",
    R"(emp(alice). emp(bob). emp(carol).
       dept(X, D) :- emp(X).
       located(D, S) :- dept(X, D).)",
};

// `routed`: every CDD is fed by a TGD chain and every violation routed
// through it, so a CDD-checking chase has to derive before it stops.
SyntheticKbOptions SyntheticOptions(uint64_t seed, size_t num_noise_tgds,
                                    bool routed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 120;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 6;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.num_tgds = routed ? 12 : 6;
  options.conflict_depth = 2;
  options.routed_violation_share = routed ? 1.0 : 0.5;
  options.num_noise_tgds = num_noise_tgds;
  return options;
}

// One chase of `facts`, rendered: every atom in id order (dead input
// atoms marked), each derived atom's trigger, and the first violation.
std::string Fingerprint(KnowledgeBase& kb, const FactBase& facts,
                        bool with_cdds) {
  ChaseOptions options;
  options.max_atoms = 5000;
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), options,
                          with_cdds ? &kb.cdds() : nullptr);
  const Status status = chased.Initialize(facts);
  if (!status.ok()) return "error: " + status.ToString() + "\n";
  std::ostringstream out;
  out << "original " << chased.num_original() << " derived "
      << chased.facts().size() - chased.num_original() << "\n";
  for (AtomId id = 0; id < chased.facts().size(); ++id) {
    out << id << (chased.facts().alive(id) ? " " : " dead ")
        << chased.facts().atom(id).ToString(kb.symbols());
    if (!chased.IsOriginal(id)) {
      const Derivation& d = *chased.derivation_or_null(id);
      out << " <- tgd " << d.tgd_index << " (";
      for (size_t j = 0; j < d.parents.size(); ++j) {
        out << (j == 0 ? "" : ",") << d.parents[j];
      }
      out << ")";
    }
    out << "\n";
  }
  if (chased.violation().has_value()) {
    out << "violation cdd " << chased.violation()->cdd_index << " (";
    const std::vector<AtomId>& matched = chased.violation()->matched;
    for (size_t j = 0; j < matched.size(); ++j) {
      out << (j == 0 ? "" : ",") << matched[j];
    }
    out << ")\n";
  } else {
    out << "no violation\n";
  }
  return out.str();
}

using Section = std::pair<std::string, std::string>;  // title, body

// Both runs (without and with CDDs) of one input, each on a fresh copy
// of the KB so the two see the same symbol table state.
void AddRuns(std::vector<Section>* sections, const std::string& name,
             const std::function<KnowledgeBase()>& make_kb,
             const std::function<FactBase(const FactBase&)>& working) {
  for (const bool with_cdds : {false, true}) {
    KnowledgeBase kb = make_kb();
    const FactBase facts = working(kb.facts());
    sections->emplace_back(name + (with_cdds ? " cdds" : " tgds-only"),
                           Fingerprint(kb, facts, with_cdds));
  }
}

FactBase AsIs(const FactBase& facts) { return facts; }

// Every fifth input atom tombstoned, as in a forked working base.
FactBase Tombstoned(const FactBase& facts) {
  FactBase out = facts;
  for (AtomId id = 0; id < out.size(); id += 5) out.Remove(id);
  return out;
}

KnowledgeBase ParseKb(const char* text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

KnowledgeBase SyntheticKbFor(uint64_t seed, size_t num_noise_tgds,
                             bool routed) {
  StatusOr<SyntheticKb> gen =
      GenerateSyntheticKb(SyntheticOptions(seed, num_noise_tgds, routed));
  EXPECT_TRUE(gen.ok()) << gen.status();
  return std::move(gen->kb);
}

KnowledgeBase DurumWheatV1() {
  StatusOr<DurumWheatKb> gen = GenerateDurumWheatKb(DurumWheatOptions{});
  EXPECT_TRUE(gen.ok()) << gen.status();
  return std::move(gen->kb);
}

std::vector<Section> AllFingerprints() {
  std::vector<Section> sections;
  const size_t num_kbs = sizeof(kChaseTestKbs) / sizeof(kChaseTestKbs[0]);
  for (size_t k = 0; k < num_kbs; ++k) {
    const char* text = kChaseTestKbs[k];
    AddRuns(&sections, "chase_test kb " + std::to_string(k),
            [text] { return ParseKb(text); }, AsIs);
  }
  AddRuns(&sections, "tombstoned chase_test kb 7",
          [] { return ParseKb(kChaseTestKbs[7]); }, Tombstoned);
  AddRuns(&sections, "tombstoned chase_test kb 13",
          [] { return ParseKb(kChaseTestKbs[13]); }, Tombstoned);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const size_t noise : {size_t{0}, size_t{4}}) {
      const std::string name = "synthetic seed " + std::to_string(seed) +
                               " noise " + std::to_string(noise);
      AddRuns(&sections, name,
              [seed, noise] { return SyntheticKbFor(seed, noise, false); },
              AsIs);
      AddRuns(&sections, "tombstoned " + name,
              [seed, noise] { return SyntheticKbFor(seed, noise, false); },
              Tombstoned);
      AddRuns(&sections, "routed " + name,
              [seed, noise] { return SyntheticKbFor(seed, noise, true); },
              AsIs);
    }
  }
  AddRuns(&sections, "durum wheat v1", DurumWheatV1, AsIs);
  return sections;
}

std::string Render(const std::vector<Section>& sections) {
  std::string out;
  for (const auto& [title, body] : sections) {
    out += "## " + title + "\n" + body;
  }
  return out;
}

// Splits a golden file back into its sections.
std::vector<Section> ParseGolden(const std::string& text) {
  std::vector<Section> sections;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      sections.emplace_back(line.substr(3), "");
    } else if (!sections.empty()) {
      sections.back().second += line + "\n";
    }
  }
  return sections;
}

std::string ReadGolden() {
  std::ifstream in(KBREPAIR_CHASE_FINGERPRINTS_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << KBREPAIR_CHASE_FINGERPRINTS_FILE;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ChaseFingerprintTest, GoldenAtOneThread) {
  const std::vector<Section> golden = ParseGolden(ReadGolden());
  const std::vector<Section> actual = AllFingerprints();
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i].first, actual[i].first);
    EXPECT_EQ(golden[i].second, actual[i].second) << golden[i].first;
  }
  EXPECT_EQ(ReadGolden(), Render(actual));
}

}  // namespace
}  // namespace kbrepair
