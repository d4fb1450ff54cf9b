#include "chase/provenance.h"

namespace kbrepair {

namespace {

void WalkNode(AtomId id, size_t depth, const IncrementalChase& chase,
              size_t max_nodes, size_t* visited,
              const std::function<void(const ProvenanceNode&)>& visit) {
  if (max_nodes != 0 && *visited >= max_nodes) return;
  ++*visited;
  ProvenanceNode node;
  node.id = id;
  node.depth = depth;
  node.derivation = chase.derivation_or_null(id);
  visit(node);
  if (node.derivation == nullptr) return;
  for (const AtomId parent : node.derivation->parents) {
    WalkNode(parent, depth + 1, chase, max_nodes, visited, visit);
  }
}

}  // namespace

void WalkSupportCone(AtomId root, const IncrementalChase& chase,
                     size_t max_nodes,
                     const std::function<void(const ProvenanceNode&)>& visit) {
  size_t visited = 0;
  WalkNode(root, 0, chase, max_nodes, &visited, visit);
}

std::vector<AtomId> ForwardCone(AtomId original,
                                const IncrementalChase& chase) {
  const size_t num_atoms = chase.facts().size();
  // Parents precede children, so one ascending pass over the base
  // closes the cone transitively.
  std::vector<bool> in_cone(num_atoms, false);
  if (original < num_atoms) in_cone[original] = true;
  std::vector<AtomId> cone;
  for (AtomId id = 0; id < num_atoms; ++id) {
    const Derivation* derivation = chase.derivation_or_null(id);
    if (derivation == nullptr) continue;
    for (const AtomId parent : derivation->parents) {
      if (parent < num_atoms && in_cone[parent]) {
        in_cone[id] = true;
        cone.push_back(id);
        break;
      }
    }
  }
  return cone;
}

std::string RenderSupportCone(AtomId root, const IncrementalChase& chase,
                              const SymbolTable& symbols,
                              size_t max_nodes) {
  const FactBase& chased = chase.facts();
  std::string out;
  size_t visits = 0;
  WalkSupportCone(root, chase, max_nodes,
                  [&](const ProvenanceNode& node) {
                    ++visits;
                    out.append(node.depth * 2, ' ');
                    if (node.id < chased.size()) {
                      out += chased.atom(node.id).ToString(symbols);
                    } else {
                      out += "atom#" + std::to_string(node.id);
                    }
                    out += "  [";
                    out += "#";
                    out += std::to_string(node.id) + ", ";
                    if (node.derivation == nullptr) {
                      out += "original";
                    } else {
                      out += "tgd " + std::to_string(node.derivation->tgd_index);
                    }
                    out += "]\n";
                  });
  if (max_nodes != 0 && visits >= max_nodes) {
    out += "  ... (cone truncated at " + std::to_string(max_nodes) +
           " nodes)\n";
  }
  return out;
}

}  // namespace kbrepair
