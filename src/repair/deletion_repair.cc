#include "repair/deletion_repair.h"

#include <cstdint>
#include <string>
#include <unordered_map>

#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "util/logging.h"

namespace kbrepair {

namespace {

// Builds the fact base containing the kept atoms only.
FactBase Subset(const FactBase& facts, const std::vector<bool>& kept) {
  FactBase subset;
  for (AtomId id = 0; id < facts.size(); ++id) {
    if (kept[id]) subset.Add(facts.atom(id));
  }
  return subset;
}

}  // namespace

size_t DeletionRepair::NumKept() const {
  size_t count = 0;
  for (bool k : kept) count += k ? 1 : 0;
  return count;
}

FactBase DeletionRepair::Materialize(const FactBase& facts) const {
  KBREPAIR_CHECK_EQ(kept.size(), facts.size());
  return Subset(facts, kept);
}

StatusOr<DeletionRepair> GreedyDeletionRepair(KnowledgeBase& kb) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());

  DeletionRepair repair;
  repair.kept.assign(kb.facts().size(), true);

  // Phase 1: knock out the most conflict-laden atom until consistent.
  // We recompute conflicts on the surviving subset; ids must be mapped
  // back, so track the survivors' original ids alongside.
  while (true) {
    FactBase subset;
    std::vector<AtomId> original_id;
    for (AtomId id = 0; id < kb.facts().size(); ++id) {
      if (repair.kept[id]) {
        subset.Add(kb.facts().atom(id));
        original_id.push_back(id);
      }
    }
    DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
    KBREPAIR_RETURN_IF_ERROR(census.Initialize(subset));
    if (census.empty()) break;

    std::unordered_map<AtomId, size_t> degree;
    for (const Conflict& conflict : census.CanonicalConflicts()) {
      for (AtomId id : conflict.support) ++degree[id];
    }
    AtomId victim = 0;
    size_t best = 0;
    for (AtomId id = 0; id < subset.size(); ++id) {
      auto it = degree.find(id);
      const size_t d = it == degree.end() ? 0 : it->second;
      if (d > best) {
        best = d;
        victim = id;
      }
    }
    KBREPAIR_CHECK_GT(best, 0u);
    repair.kept[original_id[victim]] = false;
  }

  // Phase 2: maximality — try to re-add deleted atoms one by one.
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    if (repair.kept[id]) continue;
    repair.kept[id] = true;
    KBREPAIR_ASSIGN_OR_RETURN(
        const bool consistent,
        checker.IsConsistentOpt(Subset(kb.facts(), repair.kept)));
    if (!consistent) repair.kept[id] = false;
  }
  return repair;
}

StatusOr<std::vector<DeletionRepair>> AllDeletionRepairs(
    KnowledgeBase& kb, size_t max_atoms) {
  const size_t n = kb.facts().size();
  if (n > max_atoms) {
    return Status::InvalidArgument(
        "AllDeletionRepairs is exponential; fact base exceeds max_atoms");
  }
  if (n >= 64) {
    return Status::InvalidArgument(
        "AllDeletionRepairs enumerates 64-bit subset masks; fact base has " +
        std::to_string(n) + " atoms");
  }
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());

  // Enumerate subsets by decreasing size; keep the consistent ones not
  // dominated by an already-kept (larger or incomparable) repair.
  std::vector<uint64_t> consistent_masks;
  for (uint64_t mask = (uint64_t{1} << n); mask-- > 0;) {
    std::vector<bool> kept(n, false);
    for (size_t i = 0; i < n; ++i) kept[i] = (mask >> i) & 1;
    KBREPAIR_ASSIGN_OR_RETURN(
        const bool consistent,
        checker.IsConsistentOpt(Subset(kb.facts(), kept)));
    if (!consistent) continue;
    bool dominated = false;
    for (uint64_t kept_mask : consistent_masks) {
      if ((mask & kept_mask) == mask && mask != kept_mask) {
        dominated = true;
        break;
      }
    }
    if (!dominated) consistent_masks.push_back(mask);
  }

  std::vector<DeletionRepair> repairs;
  for (uint64_t mask : consistent_masks) {
    DeletionRepair repair;
    repair.kept.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
      repair.kept[i] = (mask >> i) & 1;
    }
    repairs.push_back(std::move(repair));
  }
  return repairs;
}

RetentionMetrics MetricsForDeletion(const FactBase& facts,
                                    const DeletionRepair& repair) {
  RetentionMetrics metrics;
  metrics.atoms_original = facts.size();
  metrics.values_original = facts.NumPositions();
  for (AtomId id = 0; id < facts.size(); ++id) {
    if (repair.kept[id]) {
      ++metrics.atoms_kept;
      metrics.values_kept += static_cast<size_t>(facts.atom(id).arity());
    }
  }
  return metrics;
}

RetentionMetrics MetricsForUpdate(const FactBase& facts,
                                  const FactBase& updated) {
  KBREPAIR_CHECK_EQ(facts.size(), updated.size());
  RetentionMetrics metrics;
  metrics.atoms_original = facts.size();
  metrics.atoms_kept = facts.size();  // update repairs keep every atom
  metrics.values_original = facts.NumPositions();
  for (AtomId id = 0; id < facts.size(); ++id) {
    const Atom& before = facts.atom(id);
    const Atom& after = updated.atom(id);
    for (int arg = 0; arg < before.arity(); ++arg) {
      if (before.args[static_cast<size_t>(arg)] ==
          after.args[static_cast<size_t>(arg)]) {
        ++metrics.values_kept;
      }
    }
  }
  return metrics;
}

}  // namespace kbrepair
