#include "rules/weak_acyclicity.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace kbrepair {

namespace {

// Dense node ids for (predicate, position) pairs.
class PositionGraph {
 public:
  int NodeFor(PredicateId pred, int pos) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(pred)) << 32) |
        static_cast<uint32_t>(pos);
    auto [it, inserted] = node_ids_.emplace(key, num_nodes_);
    if (inserted) {
      ++num_nodes_;
      regular_edges_.emplace_back();
      special_edges_.emplace_back();
    }
    return it->second;
  }

  void AddRegularEdge(int from, int to) {
    regular_edges_[static_cast<size_t>(from)].insert(to);
  }
  void AddSpecialEdge(int from, int to) {
    special_edges_[static_cast<size_t>(from)].insert(to);
  }

  int num_nodes() const { return num_nodes_; }
  const std::unordered_set<int>& regular_edges(int node) const {
    return regular_edges_[static_cast<size_t>(node)];
  }
  const std::unordered_set<int>& special_edges(int node) const {
    return special_edges_[static_cast<size_t>(node)];
  }

 private:
  std::unordered_map<uint64_t, int> node_ids_;
  int num_nodes_ = 0;
  std::vector<std::unordered_set<int>> regular_edges_;
  std::vector<std::unordered_set<int>> special_edges_;
};

// Iterative Tarjan SCC over the union of regular and special edges.
std::vector<int> StronglyConnectedComponents(const PositionGraph& graph) {
  const int n = graph.num_nodes();
  std::vector<int> component(static_cast<size_t>(n), -1);
  std::vector<int> index(static_cast<size_t>(n), -1);
  std::vector<int> lowlink(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<int> stack;
  int next_index = 0;
  int next_component = 0;

  struct Frame {
    int node;
    std::vector<int> successors;
    size_t next_successor;
  };

  auto successors_of = [&graph](int node) {
    std::vector<int> successors;
    for (int to : graph.regular_edges(node)) successors.push_back(to);
    for (int to : graph.special_edges(node)) successors.push_back(to);
    return successors;
  };

  for (int start = 0; start < n; ++start) {
    if (index[static_cast<size_t>(start)] != -1) continue;
    std::vector<Frame> frames;
    frames.push_back(Frame{start, successors_of(start), 0});
    index[static_cast<size_t>(start)] = next_index;
    lowlink[static_cast<size_t>(start)] = next_index;
    ++next_index;
    stack.push_back(start);
    on_stack[static_cast<size_t>(start)] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const int v = frame.node;
      if (frame.next_successor < frame.successors.size()) {
        const int w = frame.successors[frame.next_successor++];
        if (index[static_cast<size_t>(w)] == -1) {
          index[static_cast<size_t>(w)] = next_index;
          lowlink[static_cast<size_t>(w)] = next_index;
          ++next_index;
          stack.push_back(w);
          on_stack[static_cast<size_t>(w)] = true;
          frames.push_back(Frame{w, successors_of(w), 0});
        } else if (on_stack[static_cast<size_t>(w)]) {
          lowlink[static_cast<size_t>(v)] =
              std::min(lowlink[static_cast<size_t>(v)],
                       index[static_cast<size_t>(w)]);
        }
      } else {
        if (lowlink[static_cast<size_t>(v)] ==
            index[static_cast<size_t>(v)]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<size_t>(w)] = false;
            component[static_cast<size_t>(w)] = next_component;
            if (w == v) break;
          }
          ++next_component;
        }
        frames.pop_back();
        if (!frames.empty()) {
          Frame& parent = frames.back();
          lowlink[static_cast<size_t>(parent.node)] =
              std::min(lowlink[static_cast<size_t>(parent.node)],
                       lowlink[static_cast<size_t>(v)]);
        }
      }
    }
  }
  return component;
}

PositionGraph BuildPositionGraph(const std::vector<Tgd>& tgds,
                                 const SymbolTable& symbols) {
  PositionGraph graph;
  for (const Tgd& tgd : tgds) {
    // Body positions of each variable.
    std::unordered_map<TermId, std::vector<int>> body_positions;
    for (const Atom& atom : tgd.body()) {
      for (int pos = 0; pos < atom.arity(); ++pos) {
        const TermId term = atom.args[static_cast<size_t>(pos)];
        if (symbols.IsVariable(term)) {
          body_positions[term].push_back(
              graph.NodeFor(atom.predicate, pos));
        }
      }
    }
    // Head positions of frontier variables and of existential variables.
    std::unordered_map<TermId, std::vector<int>> head_positions;
    std::vector<int> existential_positions;
    const std::unordered_set<TermId> existentials(
        tgd.existential_variables().begin(),
        tgd.existential_variables().end());
    for (const Atom& atom : tgd.head()) {
      for (int pos = 0; pos < atom.arity(); ++pos) {
        const TermId term = atom.args[static_cast<size_t>(pos)];
        if (!symbols.IsVariable(term)) continue;
        const int node = graph.NodeFor(atom.predicate, pos);
        if (existentials.count(term) > 0) {
          existential_positions.push_back(node);
        } else {
          head_positions[term].push_back(node);
        }
      }
    }
    // Edges from every body position of every frontier variable.
    for (const auto& [var, from_nodes] : body_positions) {
      auto head_it = head_positions.find(var);
      if (head_it == head_positions.end()) continue;  // not in head
      for (int from : from_nodes) {
        for (int to : head_it->second) graph.AddRegularEdge(from, to);
        for (int to : existential_positions) graph.AddSpecialEdge(from, to);
      }
    }
  }
  return graph;
}

}  // namespace

bool IsWeaklyAcyclic(const std::vector<Tgd>& tgds,
                     const SymbolTable& symbols) {
  const PositionGraph graph = BuildPositionGraph(tgds, symbols);
  const std::vector<int> component = StronglyConnectedComponents(graph);
  // A special edge inside one SCC lies on a cycle through itself.
  for (int node = 0; node < graph.num_nodes(); ++node) {
    for (int to : graph.special_edges(node)) {
      if (component[static_cast<size_t>(node)] ==
          component[static_cast<size_t>(to)]) {
        return false;
      }
    }
  }
  return true;
}

Status CheckWeaklyAcyclic(const std::vector<Tgd>& tgds,
                          const SymbolTable& symbols) {
  if (IsWeaklyAcyclic(tgds, symbols)) return Status::Ok();
  return Status::FailedPrecondition(
      "TGD set is not weakly acyclic; the chase may not terminate "
      "(the paper restricts to weakly-acyclic TGDs, Section 2)");
}

}  // namespace kbrepair
