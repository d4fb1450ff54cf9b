// Golden id order of a parsed KB: tests/data/kb_id_order.txt records, for
// each input, the number of terms, predicates, facts and rules ParseDlgp
// produces, an FNV-1a digest over every term's (kind, name) and every
// predicate's (name, arity) in id order plus every fact, TGD and CDD as
// its argument ids, and a digest of PrintDlgp of the result. Term,
// predicate and atom ids are what sessions, transcripts and WAL replay
// see, so the parser must intern in exactly this order.
//
// Inputs: data/durum_excerpt.dlgp, data/hospital.dlgp, the printed Durum
// Wheat v1 and v2 KBs, and eight KBs shaped like the session-churn
// benchmark's (2000 atoms, 60 TGDs), four of them with existential noise
// TGDs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/durum_wheat.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"

#ifndef KBREPAIR_KB_ID_ORDER_FILE
#error "KBREPAIR_KB_ID_ORDER_FILE must be defined by the build"
#endif
#ifndef KBREPAIR_DATA_DIR
#error "KBREPAIR_DATA_DIR must be defined by the build"
#endif

namespace kbrepair {
namespace {

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
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

void RenderAtoms(const std::vector<Atom>& atoms, std::string* out) {
  for (const Atom& atom : atoms) {
    *out += ' ' + std::to_string(atom.predicate) + '(';
    for (const TermId term : atom.args) *out += std::to_string(term) + ',';
    *out += ')';
  }
}

// Every id the parse assigned, in id order.
std::string RenderIds(const KnowledgeBase& kb) {
  const SymbolTable& symbols = kb.symbols();
  std::string out;
  for (TermId id = 0; static_cast<size_t>(id) < symbols.num_terms(); ++id) {
    out += "T " + std::to_string(static_cast<int>(symbols.term_kind(id))) +
           ' ' + symbols.term_name(id) + '\n';
  }
  for (PredicateId id = 0;
       static_cast<size_t>(id) < symbols.num_predicates(); ++id) {
    out += "P " + symbols.predicate_name(id) + ' ' +
           std::to_string(symbols.predicate_arity(id)) + '\n';
  }
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    out += 'F';
    RenderAtoms({kb.facts().atom(id)}, &out);
    out += '\n';
  }
  for (const Tgd& tgd : kb.tgds()) {
    out += "R [" + tgd.label() + "]";
    RenderAtoms(tgd.body(), &out);
    out += " ->";
    RenderAtoms(tgd.head(), &out);
    out += '\n';
  }
  for (const Cdd& cdd : kb.cdds()) {
    out += "C [" + cdd.label() + "]";
    RenderAtoms(cdd.body(), &out);
    out += '\n';
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The benchmark's session-churn KB shape.
SyntheticKbOptions ChurnOptions(uint64_t seed, size_t num_noise_tgds) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 2000;
  options.inconsistency_ratio = 0.01;
  options.num_cdds = 20;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.num_tgds = 60;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.6;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  options.num_noise_tgds = num_noise_tgds;
  return options;
}

using Input = std::pair<std::string, std::string>;  // name, DLGP text

std::vector<Input> AllInputs() {
  std::vector<Input> inputs;
  for (const char* file : {"durum_excerpt.dlgp", "hospital.dlgp"}) {
    inputs.emplace_back(file,
                        ReadFile(std::string(KBREPAIR_DATA_DIR) + "/" + file));
  }
  for (const auto& [name, version] :
       {std::pair<const char*, DurumWheatVersion>{"durum wheat v1",
                                                  DurumWheatVersion::kV1},
        {"durum wheat v2", DurumWheatVersion::kV2}}) {
    DurumWheatOptions options;
    options.version = version;
    StatusOr<DurumWheatKb> generated = GenerateDurumWheatKb(options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    inputs.emplace_back(name, PrintDlgp(generated->kb));
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const size_t noise = seed <= 4 ? 0 : 8;
    StatusOr<SyntheticKb> generated =
        GenerateSyntheticKb(ChurnOptions(seed, noise));
    EXPECT_TRUE(generated.ok()) << generated.status();
    inputs.emplace_back("session-churn seed " + std::to_string(seed) +
                            " noise " + std::to_string(noise),
                        PrintDlgp(generated->kb));
  }
  return inputs;
}

std::string Render(const std::vector<Input>& inputs) {
  std::string out;
  for (const auto& [name, text] : inputs) {
    StatusOr<KnowledgeBase> kb = ParseDlgp(text);
    out += "## " + name + "\n";
    if (!kb.ok()) {
      out += "error " + kb.status().ToString() + "\n";
      continue;
    }
    out += "terms " + std::to_string(kb->symbols().num_terms()) +
           " predicates " + std::to_string(kb->symbols().num_predicates()) +
           " facts " + std::to_string(kb->facts().size()) + " tgds " +
           std::to_string(kb->tgds().size()) + " cdds " +
           std::to_string(kb->cdds().size()) + "\n";
    out += "ids " + Hex16(Fnv1a64(RenderIds(*kb))) + "\n";
    out += "printed " + Hex16(Fnv1a64(PrintDlgp(*kb))) + "\n";
  }
  return out;
}

TEST(KbIdOrderTest, ParsedIdsMatchGolden) {
  EXPECT_EQ(Render(AllInputs()), ReadFile(KBREPAIR_KB_ID_ORDER_FILE));
}

// The digest sees every term: a table grown by an extra intern differs.
TEST(KbIdOrderTest, DigestSeesEveryTerm) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b). q(X) :- p(X, Y).");
  ASSERT_TRUE(kb.ok()) << kb.status();
  const std::string before = RenderIds(*kb);
  kb->symbols().InternConstant("c");
  EXPECT_NE(Fnv1a64(before), Fnv1a64(RenderIds(*kb)));
}

}  // namespace
}  // namespace kbrepair
