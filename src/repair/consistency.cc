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
  ChaseEngine engine(symbols_, tgds_, /*cdds=*/nullptr, chase_options_);
  KBREPAIR_ASSIGN_OR_RETURN(ChaseResult chased, engine.Run(facts));
  HomomorphismFinder finder(symbols_, &chased.facts());
  for (const Cdd& cdd : *cdds_) {
    if (finder.Exists(cdd.body())) return false;
  }
  return true;
}

StatusOr<bool> ConsistencyChecker::IsConsistentOpt(
    const FactBase& facts) const {
  ChaseEngine engine(symbols_, tgds_, cdds_, chase_options_);
  KBREPAIR_ASSIGN_OR_RETURN(ChaseResult chased, engine.Run(facts));
  return !chased.violation().has_value();
}

StatusOr<bool> IsConsistent(KnowledgeBase& kb) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  return checker.IsConsistentOpt(kb.facts());
}

}  // namespace kbrepair
