#include "chase/support.h"

#include <algorithm>

#include "kb/atom.h"
#include "util/logging.h"

namespace kbrepair {

CanonicalSupportResolver::CanonicalSupportResolver(
    const SymbolTable* symbols, const IncrementalChase* chase)
    : symbols_(symbols),
      chase_(chase),
      tgds_(chase->tgds()),
      facts_(&chase->facts()),
      finder_(symbols, facts_) {
  KBREPAIR_CHECK(symbols != nullptr);
}

std::vector<AtomId> CanonicalSupportResolver::Support(AtomId id) {
  if (chase_->IsOriginal(id)) return {id};
  const Result result = Resolve(id);
  // An alive derived atom always has at least one acyclic proof (it
  // would not be in the chased base otherwise).
  KBREPAIR_CHECK(result.found);
  return result.support;
}

std::vector<AtomId> CanonicalSupportResolver::Support(
    const std::vector<AtomId>& ids) {
  std::vector<AtomId> support;
  for (const AtomId id : ids) {
    const std::vector<AtomId> one = Support(id);
    support.insert(support.end(), one.begin(), one.end());
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  return support;
}

bool CanonicalSupportResolver::Unify(
    const Atom& pattern, const Atom& ground,
    std::unordered_map<TermId, TermId>& bindings) const {
  if (pattern.args.size() != ground.args.size()) return false;
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const TermId t = pattern.args[i];
    const TermId g = ground.args[i];
    if (symbols_->IsVariable(t)) {
      auto [it, inserted] = bindings.emplace(t, g);
      if (!inserted && it->second != g) return false;
    } else if (t != g) {
      return false;
    }
  }
  return true;
}

CanonicalSupportResolver::Result CanonicalSupportResolver::Resolve(
    AtomId id) {
  if (chase_->IsOriginal(id)) {
    Result result;
    result.support = {id};
    result.found = true;
    return result;
  }
  if (auto it = memo_.find(id); it != memo_.end()) {
    Result result;
    result.support = it->second;
    result.found = true;
    return result;
  }
  Result result;
  if (on_path_.count(id) > 0) {
    // Cycle: not a well-founded proof through this branch.
    result.tainted = true;
    return result;
  }
  on_path_.insert(id);

  const Atom& target = facts_->atom(id);
  for (size_t t = 0; t < tgds_->size(); ++t) {
    const Tgd& tgd = (*tgds_)[t];
    for (const Atom& head_atom : tgd.head()) {
      if (head_atom.predicate != target.predicate) continue;
      std::unordered_map<TermId, TermId> bindings;
      if (!Unify(head_atom, target, bindings)) continue;
      const std::vector<Atom> body_query =
          SubstituteTerms(tgd.body(), bindings);
      // Materialize the candidate parent sets before recursing (the
      // recursion re-enters the finder).
      std::vector<std::vector<AtomId>> candidates;
      finder_.FindAll(body_query, [&](const Homomorphism& hom) {
        candidates.push_back(hom.matched);
        return true;
      });
      for (const std::vector<AtomId>& parents : candidates) {
        std::vector<AtomId> support;
        bool viable = true;
        for (const AtomId parent : parents) {
          const Result sub = Resolve(parent);
          result.tainted = result.tainted || sub.tainted;
          if (!sub.found) {
            viable = false;
            break;
          }
          support.insert(support.end(), sub.support.begin(),
                         sub.support.end());
        }
        if (!viable) continue;
        std::sort(support.begin(), support.end());
        support.erase(std::unique(support.begin(), support.end()),
                      support.end());
        if (!result.found || support < result.support) {
          result.support = std::move(support);
          result.found = true;
        }
      }
    }
  }

  on_path_.erase(id);
  if (result.found && !result.tainted) {
    memo_.emplace(id, result.support);
  }
  return result;
}

}  // namespace kbrepair
