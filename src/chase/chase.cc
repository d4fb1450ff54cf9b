#include "chase/chase.h"

#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

const Derivation& ChaseResult::derivation(AtomId id) const {
  const Derivation* derivation = chase_.derivation_or_null(id);
  KBREPAIR_CHECK(derivation != nullptr);
  return *derivation;
}

ChaseEngine::ChaseEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                         const std::vector<Cdd>* cdds, ChaseOptions options)
    : symbols_(symbols), tgds_(tgds), cdds_(cdds), options_(options) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
}

StatusOr<ChaseResult> ChaseEngine::Run(const FactBase& facts) const {
  trace::ScopedSpan span("chase.saturate", trace::Phase::kChase);
  ChaseResult result(IncrementalChase(symbols_, tgds_, options_, cdds_));
  IncrementalChase& chase = result.chase_;
  KBREPAIR_RETURN_IF_ERROR(chase.Saturate(chase.Reset(facts), "chase"));
  chase.initialized_ = true;
  return result;
}

StatusOr<ChaseResult> RunChase(const FactBase& facts,
                               const std::vector<Tgd>& tgds,
                               SymbolTable& symbols, ChaseOptions options) {
  ChaseEngine engine(&symbols, &tgds, nullptr, options);
  return engine.Run(facts);
}

}  // namespace kbrepair
