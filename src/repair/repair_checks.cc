#include "repair/repair_checks.h"

#include <optional>
#include <string>
#include <unordered_map>

#include "repair/delta_conflicts.h"
#include "util/logging.h"

namespace kbrepair {

StatusOr<bool> IsCFix(const FactBase& facts, const std::vector<Fix>& fixes,
                      const ConsistencyChecker& checker) {
  if (!IsValidFixSet(fixes)) {
    return Status::InvalidArgument("fix set is not valid");
  }
  FactBase updated = facts;
  KBREPAIR_RETURN_IF_ERROR(ApplyFixes(updated, fixes));
  return checker.IsConsistentOpt(updated);
}

StatusOr<bool> IsRFixSingleRemoval(const FactBase& facts,
                                   const std::vector<Fix>& fixes,
                                   const ConsistencyChecker& checker) {
  KBREPAIR_ASSIGN_OR_RETURN(const bool is_cfix,
                            IsCFix(facts, fixes, checker));
  if (!is_cfix) return false;
  for (size_t i = 0; i < fixes.size(); ++i) {
    std::vector<Fix> without = fixes;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    KBREPAIR_ASSIGN_OR_RETURN(const bool still_cfix,
                              IsCFix(facts, without, checker));
    if (still_cfix) return false;
  }
  return true;
}

StatusOr<bool> IsRFixExhaustive(const FactBase& facts,
                                const std::vector<Fix>& fixes,
                                const ConsistencyChecker& checker) {
  KBREPAIR_CHECK_LE(fixes.size(), 20u)
      << " exhaustive r-fix check is exponential";
  KBREPAIR_ASSIGN_OR_RETURN(const bool is_cfix,
                            IsCFix(facts, fixes, checker));
  if (!is_cfix) return false;
  const size_t n = fixes.size();
  // Every proper subset (by bitmask) must fail to be a c-fix.
  for (uint64_t mask = 0; mask + 1 < (uint64_t{1} << n); ++mask) {
    std::vector<Fix> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(fixes[i]);
    }
    KBREPAIR_ASSIGN_OR_RETURN(const bool subset_cfix,
                              IsCFix(facts, subset, checker));
    if (subset_cfix) return false;
  }
  return true;
}

StatusOr<std::vector<Fix>> GreedyRFix(KnowledgeBase& kb) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // One census for the whole loop: each fix is replayed on it
  // (UPDATECONFLICTS) instead of re-chasing the working facts.
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_RETURN_IF_ERROR(census.Initialize(kb.facts()));

  std::vector<Fix> fixes;
  PositionSet nulled;
  // Null a resolving position of the atom supporting the most conflicts
  // (the conflict-hypergraph hub) until consistent. Naive conflicts
  // first, then the chased ones, each tier in canonical order.
  while (!census.empty()) {
    const std::vector<Conflict> conflicts =
        census.naive_size() > 0 ? census.CanonicalNaiveConflicts()
                                : census.CanonicalConflicts();
    std::unordered_map<AtomId, size_t> degree;
    for (const Conflict& conflict : conflicts) {
      for (AtomId id : conflict.support) ++degree[id];
    }
    AtomId hub = conflicts.front().support.front();
    size_t best = 0;
    for (const auto& [id, d] : degree) {
      if (d > best || (d == best && id < hub)) {
        best = d;
        hub = id;
      }
    }

    // A resolving position of the hub not nulled yet: an argument a CDD
    // body binds to a join variable or constant in a conflict matching
    // the hub directly, else — the hub reaches the conflicts only through
    // chase provenance — any argument, the projection
    // GENERATEQUESTION-CHASE asks about. Positions are never nulled
    // twice (a second fresh null constrains no less than the first), so
    // the loop ends.
    std::optional<int> arg;
    const auto consider = [&](int a) {
      if (!arg.has_value() && nulled.count(Position{hub, a}) == 0) arg = a;
    };
    for (const Conflict& conflict : conflicts) {
      const Cdd& cdd = kb.cdds()[conflict.cdd_index];
      for (size_t j = 0; j < conflict.matched.size(); ++j) {
        if (conflict.matched[j] != hub) continue;
        for (int a : cdd.resolving_positions(j)) consider(a);
      }
    }
    for (int a = 0; a < kb.facts().atom(hub).arity(); ++a) consider(a);
    if (!arg.has_value()) {
      const std::string atom = std::to_string(hub);
      return Status::Internal("greedy r-fix: hub atom " + atom +
                              " has no resolving position left to null");
    }
    const Fix fix{hub, *arg, kb.symbols().MakeFreshNull()};
    nulled.insert(Position{hub, *arg});
    KBREPAIR_RETURN_IF_ERROR(
        census.OnFixApplied(fix.atom, fix.arg, fix.value));
    fixes.push_back(fix);
  }

  // Minimize: drop any fix whose removal keeps the update consistent.
  for (size_t i = 0; i < fixes.size();) {
    std::vector<Fix> without = fixes;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    KBREPAIR_ASSIGN_OR_RETURN(const bool still_cfix,
                              IsCFix(kb.facts(), without, checker));
    if (still_cfix) {
      fixes = std::move(without);
    } else {
      ++i;
    }
  }
  return fixes;
}

StatusOr<FactBase> MakeURepair(const KnowledgeBase& kb,
                               const std::vector<Fix>& fixes) {
  FactBase repaired = kb.facts();
  KBREPAIR_RETURN_IF_ERROR(ApplyFixes(repaired, fixes));
  return repaired;
}

}  // namespace kbrepair
