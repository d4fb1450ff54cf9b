#include "repair/consistency.h"

#include "kb/homomorphism.h"
#include "util/logging.h"

namespace kbrepair {

ConsistencyChecker::ConsistencyChecker(SymbolTable* symbols,
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

StatusOr<bool> ConsistencyChecker::IsConsistentNaive(
    const FactBase& facts) const {
  IncrementalChase chase(symbols_, tgds_, chase_options_);
  KBREPAIR_RETURN_IF_ERROR(chase.Initialize(facts));
  HomomorphismFinder finder(symbols_, &chase.facts());
  for (const Cdd& cdd : *cdds_) {
    if (finder.Exists(cdd.body())) return false;
  }
  return true;
}

StatusOr<bool> ConsistencyChecker::IsConsistentOpt(
    const FactBase& facts) const {
  IncrementalChase chase(symbols_, tgds_, chase_options_, cdds_);
  KBREPAIR_RETURN_IF_ERROR(chase.Initialize(facts));
  return !chase.violation().has_value();
}

StatusOr<bool> IsConsistent(KnowledgeBase& kb) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  return checker.IsConsistentOpt(kb.facts());
}

}  // namespace kbrepair
