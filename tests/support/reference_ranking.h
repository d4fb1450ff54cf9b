// The opti-mcd position ranking recounted from a census: the reference
// the engine's maintained rank tables (repair/delta_conflicts.h) are
// tested against.
//
// rank(p) is the number of census conflicts whose
// RetrievePositions(kResolvingPositions) set contains p, and the conflict
// opti-mcd questions p through is the first such conflict in census
// order. RankPositions walks the whole census to recount both, which is
// what question selection did before every question until the engine
// kept them up to date.

#ifndef KBREPAIR_TESTS_SUPPORT_REFERENCE_RANKING_H_
#define KBREPAIR_TESTS_SUPPORT_REFERENCE_RANKING_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "kb/fact_base.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "rules/cdd.h"

namespace kbrepair {

struct McdRanking {
  // Rank -> positions of that rank (ascending), highest rank first.
  std::map<size_t, std::vector<Position>, std::greater<size_t>> groups;
  // Position -> the first census conflict holding it.
  std::unordered_map<Position, const Conflict*, PositionHash> conflict_for;
};

// Ranks the positions outside `pi` over `census`, which must be in the
// order selection reads it. `facts` is the working fact base.
McdRanking RankPositions(const std::vector<Conflict>& census,
                         const FactBase& facts, const std::vector<Cdd>& cdds,
                         const PositionSet& pi);

}  // namespace kbrepair

#endif  // KBREPAIR_TESTS_SUPPORT_REFERENCE_RANKING_H_
