#include "support/conflict_finder.h"

#include <algorithm>

#include "chase/support.h"
#include "kb/homomorphism.h"
#include "util/logging.h"

namespace kbrepair {

namespace {

// Distinct matched atoms, ascending — the support of a naive conflict.
std::vector<AtomId> DistinctSorted(std::vector<AtomId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

ConflictFinder::ConflictFinder(SymbolTable* symbols,
                               const std::vector<Tgd>* tgds,
                               const std::vector<Cdd>* cdds,
                               ChaseOptions chase_options)
    : symbols_(symbols),
      tgds_(tgds),
      cdds_(cdds),
      chase_options_(chase_options) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
  KBREPAIR_CHECK(cdds != nullptr);
}

StatusOr<std::vector<Conflict>> ConflictFinder::AllConflicts(
    const FactBase& facts) const {
  IncrementalChase chased(symbols_, tgds_, chase_options_);
  KBREPAIR_RETURN_IF_ERROR(chased.Initialize(facts));

  std::vector<Conflict> conflicts;
  HomomorphismFinder finder(symbols_, &chased.facts());
  // Supports go through the canonical resolver, not fire-time
  // provenance, so they are a function of the chased base alone and
  // comparable with the incremental engine's (see chase/support.h).
  CanonicalSupportResolver support(symbols_, &chased);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = support.Support(hom.matched);
      conflicts.push_back(std::move(conflict));
      return true;
    });
  }
  return conflicts;
}

std::vector<Conflict> ConflictFinder::NaiveConflicts(
    const FactBase& facts) const {
  std::vector<Conflict> conflicts;
  HomomorphismFinder finder(symbols_, &facts);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = DistinctSorted(hom.matched);
      conflicts.push_back(std::move(conflict));
      return true;
    });
  }
  return conflicts;
}

}  // namespace kbrepair
