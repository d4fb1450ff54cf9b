#include "repair/conflict.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace kbrepair {

std::vector<Position> RetrievePositions(const Conflict& conflict,
                                        const std::vector<Cdd>& cdds,
                                        const FactBase& facts,
                                        size_t num_original,
                                        PositionSelection selection) {
  std::vector<Position> positions;
  bool naive = true;
  for (AtomId id : conflict.matched) naive = naive && id < num_original;

  if (naive && selection == PositionSelection::kResolvingPositions) {
    // A position is resolving when the CDD term it matches is a join
    // variable or a constant: rewriting it can break the homomorphism,
    // whereas a lone variable simply rebinds (Section 5, opti-join).
    const Cdd& cdd = cdds[conflict.cdd_index];
    for (size_t j = 0; j < conflict.matched.size(); ++j) {
      for (int arg : cdd.resolving_positions(j)) {
        positions.push_back(Position{conflict.matched[j], arg});
      }
    }
  } else {
    for (AtomId id : conflict.support) {
      const int arity = facts.atom(id).arity();
      for (int arg = 0; arg < arity; ++arg) {
        positions.push_back(Position{id, arg});
      }
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

OverlapIndicators ComputeOverlapIndicators(
    const std::vector<Conflict>& conflicts) {
  OverlapIndicators indicators;

  std::unordered_set<AtomId> atoms;
  for (const Conflict& conflict : conflicts) {
    atoms.insert(conflict.support.begin(), conflict.support.end());
  }
  indicators.atoms_in_conflicts = atoms.size();

  if (conflicts.size() < 2) return indicators;

  size_t overlap_pairs = 0;
  size_t overlap_atoms_total = 0;
  std::vector<size_t> scope(conflicts.size(), 0);
  for (size_t i = 0; i < conflicts.size(); ++i) {
    for (size_t j = i + 1; j < conflicts.size(); ++j) {
      // Supports are sorted; count the intersection size.
      const std::vector<AtomId>& a = conflicts[i].support;
      const std::vector<AtomId>& b = conflicts[j].support;
      size_t ia = 0;
      size_t ib = 0;
      size_t common = 0;
      while (ia < a.size() && ib < b.size()) {
        if (a[ia] == b[ib]) {
          ++common;
          ++ia;
          ++ib;
        } else if (a[ia] < b[ib]) {
          ++ia;
        } else {
          ++ib;
        }
      }
      if (common > 0) {
        ++overlap_pairs;
        overlap_atoms_total += common;
        ++scope[i];
        ++scope[j];
      }
    }
  }
  if (overlap_pairs > 0) {
    indicators.avg_atoms_per_overlap =
        static_cast<double>(overlap_atoms_total) /
        static_cast<double>(overlap_pairs);
  }
  size_t scope_total = 0;
  for (size_t s : scope) scope_total += s;
  indicators.avg_scope =
      static_cast<double>(scope_total) / static_cast<double>(conflicts.size());
  return indicators;
}

std::string ExplainConflict(const Conflict& conflict,
                            const std::vector<Cdd>& cdds,
                            const FactBase& facts,
                            const SymbolTable& symbols,
                            const IncrementalChase* chased) {
  const Cdd& violated = cdds[conflict.cdd_index];
  std::string out = "violated constraint";
  if (!violated.label().empty()) out += " [" + violated.label() + "]";
  out += ": " + violated.ToString(symbols) + "\n";
  const std::vector<Atom>& body = cdds[conflict.cdd_index].body();
  for (size_t j = 0; j < conflict.matched.size(); ++j) {
    const AtomId id = conflict.matched[j];
    out += "  " + body[j].ToString(symbols) + "  matched  ";
    const Derivation* derivation =
        chased != nullptr ? chased->derivation_or_null(id) : nullptr;
    if (id < facts.size()) {
      out += facts.atom(id).ToString(symbols);
    } else if (derivation != nullptr) {
      out += chased->facts().atom(id).ToString(symbols) +
             "  (derived by TGD #" + std::to_string(derivation->tgd_index) +
             ")";
    } else {
      out += "<derived atom " + std::to_string(id) + ">";
    }
    out += "\n";
  }
  out += "  supported by original facts:";
  for (AtomId id : conflict.support) {
    out += " ";
    out += facts.atom(id).ToString(symbols);
  }
  out += "\n";
  return out;
}

namespace {

// DOT string literals need quotes escaped.
std::string DotEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string ConflictHypergraphToDot(const std::vector<Conflict>& conflicts,
                                    const FactBase& facts,
                                    const SymbolTable& symbols) {
  std::string out = "graph conflict_hypergraph {\n";
  out += "  node [fontsize=10];\n";
  std::unordered_set<AtomId> atoms;
  for (size_t c = 0; c < conflicts.size(); ++c) {
    out += "  conflict" + std::to_string(c) + " [shape=box, label=\"X" +
           std::to_string(c) + " (cdd " +
           std::to_string(conflicts[c].cdd_index) + ")\"];\n";
    atoms.insert(conflicts[c].support.begin(), conflicts[c].support.end());
  }
  for (AtomId id : atoms) {
    out += "  atom" + std::to_string(id) + " [shape=ellipse, label=\"" +
           DotEscape(facts.atom(id).ToString(symbols)) + "\"];\n";
  }
  for (size_t c = 0; c < conflicts.size(); ++c) {
    for (AtomId id : conflicts[c].support) {
      out += "  conflict" + std::to_string(c) + " -- atom" +
             std::to_string(id) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace kbrepair
