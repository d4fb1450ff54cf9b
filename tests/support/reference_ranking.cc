#include "support/reference_ranking.h"

#include <algorithm>

namespace kbrepair {

McdRanking RankPositions(const std::vector<Conflict>& census,
                         const FactBase& facts, const std::vector<Cdd>& cdds,
                         const PositionSet& pi) {
  std::unordered_map<Position, size_t, PositionHash> counts;
  McdRanking ranking;
  for (const Conflict& conflict : census) {
    for (const Position& p :
         RetrievePositions(conflict, cdds, facts, facts.size(),
                           PositionSelection::kResolvingPositions)) {
      if (pi.count(p) > 0) continue;
      ++counts[p];
      ranking.conflict_for.emplace(p, &conflict);
    }
  }
  for (const auto& [position, rank] : counts) {
    ranking.groups[rank].push_back(position);
  }
  for (auto& [rank, positions] : ranking.groups) {
    std::sort(positions.begin(), positions.end());
  }
  return ranking;
}

}  // namespace kbrepair
