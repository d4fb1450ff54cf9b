#include "gen/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/rng.h"

namespace kbrepair {

namespace {

// Blueprint of one CDD: its body atoms with, per argument position, the
// join-variable index it carries (-1 for a lone variable).
struct CddBlueprint {
  // predicate of each body atom
  std::vector<PredicateId> predicates;
  // per atom, per position: join-variable index or -1
  std::vector<std::vector<int>> join_slots;
  size_t num_join_variables = 0;
  // Chain feeding this CDD (slot = which body atom), or -1.
  int chain_index = -1;
  int chain_slot = -1;
};

// Blueprint of one TGD chain: origin predicate, intermediate predicates,
// final predicate equal to the fed CDD body atom's predicate.
struct ChainBlueprint {
  std::vector<PredicateId> predicates;  // depth + 1 entries; last = target
};

}  // namespace

StatusOr<SyntheticKb> GenerateSyntheticKb(
    const SyntheticKbOptions& options) {
  if (options.cdd_min_atoms < 2 || options.cdd_max_atoms < options.cdd_min_atoms) {
    return Status::InvalidArgument("CDD body size range must be >= 2");
  }
  if (options.min_arity < 2 || options.max_arity < options.min_arity) {
    return Status::InvalidArgument("arity range must start at >= 2");
  }
  if (options.num_cdds == 0) {
    return Status::InvalidArgument("at least one CDD is required");
  }
  if (options.min_multiplicity < 1 ||
      options.max_multiplicity < options.min_multiplicity) {
    return Status::InvalidArgument("multiplicity range must start at >= 1");
  }
  if (options.num_tgds > 0 && options.conflict_depth < 1) {
    return Status::InvalidArgument("conflict depth must be >= 1 with TGDs");
  }

  Rng rng(options.seed);
  SyntheticKb result;
  KnowledgeBase& kb = result.kb;
  SymbolTable& symbols = kb.symbols();
  const std::string& prefix = options.name_prefix;

  uint64_t constant_counter = 0;
  auto fresh_constant = [&symbols, &constant_counter, &prefix]() {
    return symbols.InternConstant(prefix + "_c" +
                                  std::to_string(++constant_counter));
  };

  // ---------------------------------------------------------------------
  // 1. CDD blueprints and the CDDs themselves.
  //
  // Each CDD gets its own fresh predicates: this keeps the conflict
  // structure exactly equal to the planned clusters (no accidental
  // cross-constraint homomorphisms), mirroring the controlled generation
  // the paper describes.
  std::vector<CddBlueprint> blueprints;
  blueprints.reserve(options.num_cdds);
  for (size_t c = 0; c < options.num_cdds; ++c) {
    CddBlueprint bp;
    const int s = static_cast<int>(
        rng.UniformInt(options.cdd_min_atoms, options.cdd_max_atoms));
    int total_positions = 0;
    for (int j = 0; j < s; ++j) {
      const int arity = static_cast<int>(
          rng.UniformInt(options.min_arity, options.max_arity));
      bp.predicates.push_back(symbols.InternPredicate(
          prefix + std::to_string(c) + "_" + std::to_string(j), arity));
      bp.join_slots.emplace_back(arity, -1);
      total_positions += arity;
    }
    // Connect consecutive atoms with join variables J_0..J_{s-2}: J_j
    // appears in atoms j and j+1 at random positions.
    for (int j = 0; j + 1 < s; ++j) {
      const int join_var = j;
      std::vector<int>& left = bp.join_slots[static_cast<size_t>(j)];
      std::vector<int>& right = bp.join_slots[static_cast<size_t>(j + 1)];
      // Pick a free position in each atom (positions outnumber the two
      // chain variables because arity >= 2).
      auto place = [&rng](std::vector<int>& slots, int var) {
        std::vector<size_t> free_slots;
        for (size_t k = 0; k < slots.size(); ++k) {
          if (slots[k] == -1) free_slots.push_back(k);
        }
        KBREPAIR_CHECK(!free_slots.empty());
        slots[rng.Choose(free_slots)] = var;
      };
      place(left, join_var);
      place(right, join_var);
    }
    bp.num_join_variables = static_cast<size_t>(s - 1);

    // Add extra occurrences of existing join variables until the target
    // join-position share is reached (or no free slot remains).
    const int baseline_join_positions = 2 * (s - 1);
    int join_positions = baseline_join_positions;
    const int wanted = static_cast<int>(std::lround(
        options.join_position_share * static_cast<double>(total_positions)));
    while (join_positions < wanted) {
      std::vector<std::pair<size_t, size_t>> free_slots;
      for (size_t j = 0; j < bp.join_slots.size(); ++j) {
        for (size_t k = 0; k < bp.join_slots[j].size(); ++k) {
          if (bp.join_slots[j][k] == -1) free_slots.emplace_back(j, k);
        }
      }
      if (free_slots.empty()) break;
      const auto [aj, ak] = rng.Choose(free_slots);
      bp.join_slots[aj][ak] =
          static_cast<int>(rng.UniformIndex(bp.num_join_variables));
      ++join_positions;
    }
    blueprints.push_back(std::move(bp));
  }

  // ---------------------------------------------------------------------
  // 2. TGD chains (conflict depth).
  std::vector<ChainBlueprint> chains;
  if (options.num_tgds > 0) {
    const size_t num_chains =
        std::max<size_t>(1, options.num_tgds /
                                static_cast<size_t>(options.conflict_depth));
    for (size_t k = 0; k < num_chains; ++k) {
      CddBlueprint& bp = blueprints[k % blueprints.size()];
      if (bp.chain_index != -1) continue;  // one chain per CDD
      const int slot =
          static_cast<int>(rng.UniformIndex(bp.predicates.size()));
      const PredicateId target = bp.predicates[static_cast<size_t>(slot)];
      const int arity = symbols.predicate_arity(target);

      ChainBlueprint chain;
      for (int step = 0; step < options.conflict_depth; ++step) {
        chain.predicates.push_back(symbols.InternPredicate(
            prefix + "_chain" + std::to_string(k) + "_" +
                std::to_string(step),
            arity));
      }
      chain.predicates.push_back(target);

      // Identity-propagating rules chain_i(X1..Xa) -> chain_{i+1}(X1..Xa):
      // no existentials, so the chain carries the cluster's join
      // constants all the way to the constraint.
      std::vector<TermId> vars;
      for (int v = 0; v < arity; ++v) {
        const std::string index = std::to_string(v + 1);
        vars.push_back(symbols.InternVariable("X" + index));
      }
      for (size_t step = 0; step + 1 < chain.predicates.size(); ++step) {
        std::vector<Atom> body = {Atom(chain.predicates[step], vars)};
        std::vector<Atom> head = {Atom(chain.predicates[step + 1], vars)};
        KBREPAIR_ASSIGN_OR_RETURN(
            Tgd tgd, Tgd::Create(std::move(body), std::move(head), symbols));
        kb.tgds().push_back(std::move(tgd));
      }
      bp.chain_index = static_cast<int>(chains.size());
      bp.chain_slot = slot;
      chains.push_back(std::move(chain));
    }
  }

  // ---------------------------------------------------------------------
  // 3. Materialize the CDDs.
  for (const CddBlueprint& bp : blueprints) {
    std::vector<TermId> join_vars;
    for (size_t v = 0; v < bp.num_join_variables; ++v) {
      const std::string index = std::to_string(v);
      join_vars.push_back(symbols.InternVariable("J" + index));
    }
    std::vector<Atom> body;
    int lone_counter = 0;
    for (size_t j = 0; j < bp.predicates.size(); ++j) {
      std::vector<TermId> args;
      for (int slot : bp.join_slots[j]) {
        if (slot >= 0) {
          args.push_back(join_vars[static_cast<size_t>(slot)]);
        } else {
          const std::string index = std::to_string(lone_counter++);
          args.push_back(symbols.InternVariable("L" + index));
        }
      }
      body.emplace_back(bp.predicates[j], std::move(args));
    }
    KBREPAIR_ASSIGN_OR_RETURN(Cdd cdd, Cdd::Create(std::move(body), symbols));
    kb.cdds().push_back(std::move(cdd));
  }

  // ---------------------------------------------------------------------
  // 4. Violation clusters until the inconsistency target is met.
  const size_t target_conflict_atoms = static_cast<size_t>(std::lround(
      options.inconsistency_ratio * static_cast<double>(options.num_facts)));
  size_t conflict_atoms = 0;
  size_t join_positions_in_conflict_atoms = 0;
  size_t positions_in_conflict_atoms = 0;
  size_t cluster_round_robin = 0;

  while (conflict_atoms < target_conflict_atoms) {
    const size_t c = cluster_round_robin++ % blueprints.size();
    const CddBlueprint& bp = blueprints[c];
    const bool routed = bp.chain_index >= 0 &&
                        rng.Bernoulli(options.routed_violation_share);

    // Shared join constants for the cluster.
    std::vector<TermId> join_constants;
    for (size_t v = 0; v < bp.num_join_variables; ++v) {
      join_constants.push_back(fresh_constant());
    }

    size_t cluster_conflicts = 1;
    int multiplied_atoms = 0;
    for (size_t j = 0; j < bp.predicates.size(); ++j) {
      const bool via_chain =
          routed && static_cast<int>(j) == bp.chain_slot;
      bool has_lone_slot = false;
      for (int slot : bp.join_slots[j]) {
        has_lone_slot = has_lone_slot || slot == -1;
      }
      // A routed atom with no lone positions would emit value-identical
      // chain origins, which the restricted chase collapses into one
      // derived atom — cap its multiplicity so planned conflict counts
      // stay exact. The max_multiplied_atoms budget likewise forces
      // multiplicity 1 once spent.
      const bool budget_spent =
          options.max_multiplied_atoms >= 0 &&
          multiplied_atoms >= options.max_multiplied_atoms;
      const int multiplicity =
          (via_chain && !has_lone_slot) || budget_spent
              ? 1
              : static_cast<int>(rng.UniformInt(
                    options.min_multiplicity, options.max_multiplicity));
      if (multiplicity > 1) ++multiplied_atoms;
      cluster_conflicts *= static_cast<size_t>(multiplicity);
      const PredicateId pred =
          via_chain ? chains[static_cast<size_t>(bp.chain_index)]
                          .predicates.front()
                    : bp.predicates[j];
      for (int m = 0; m < multiplicity; ++m) {
        std::vector<TermId> args;
        for (int slot : bp.join_slots[j]) {
          if (slot >= 0) {
            args.push_back(join_constants[static_cast<size_t>(slot)]);
            ++join_positions_in_conflict_atoms;
          } else {
            args.push_back(fresh_constant());
          }
          ++positions_in_conflict_atoms;
        }
        kb.facts().Add(Atom(pred, std::move(args)));
        ++conflict_atoms;
      }
    }
    result.info.planned_conflicts += cluster_conflicts;
    if (routed) {
      result.info.planned_chase_conflicts += cluster_conflicts;
    } else {
      result.info.planned_naive_conflicts += cluster_conflicts;
    }
  }
  result.info.atoms_in_conflicts = conflict_atoms;
  result.info.join_position_share =
      positions_in_conflict_atoms == 0
          ? 0.0
          : static_cast<double>(join_positions_in_conflict_atoms) /
                static_cast<double>(positions_in_conflict_atoms);

  // ---------------------------------------------------------------------
  // 5. Noise TGDs (chase growth, never any violation).
  for (size_t t = 0; t < options.num_noise_tgds; ++t) {
    const PredicateId body_pred = symbols.InternPredicate(
        prefix + "_noise" + std::to_string(t), 2);
    const PredicateId head_pred = symbols.InternPredicate(
        prefix + "_derived" + std::to_string(t), 2);
    const TermId x = symbols.InternVariable("X");
    const TermId y = symbols.InternVariable("Y");
    const TermId z = symbols.InternVariable("Z");
    std::vector<Atom> body = {Atom(body_pred, {x, y})};
    std::vector<Atom> head = {Atom(head_pred, {x, z})};
    KBREPAIR_ASSIGN_OR_RETURN(
        Tgd tgd, Tgd::Create(std::move(body), std::move(head), symbols));
    kb.tgds().push_back(std::move(tgd));
    if (rng.Bernoulli(options.noise_tgd_fire_share) &&
        kb.facts().size() < options.num_facts) {
      kb.facts().Add(Atom(body_pred, {fresh_constant(), fresh_constant()}));
    }
  }

  // ---------------------------------------------------------------------
  // 6. Padding to n_F with conflict-free atoms.
  size_t pad_counter = 0;
  while (kb.facts().size() < options.num_facts) {
    if (rng.Bernoulli(options.padding_on_constraint_predicates)) {
      // A constraint predicate with entirely fresh constants: its join
      // positions hold values used nowhere else, so no homomorphism can
      // pass through it.
      const CddBlueprint& bp = blueprints[rng.UniformIndex(blueprints.size())];
      const size_t j = rng.UniformIndex(bp.predicates.size());
      std::vector<TermId> args;
      for (size_t k = 0; k < bp.join_slots[j].size(); ++k) {
        args.push_back(fresh_constant());
      }
      kb.facts().Add(Atom(bp.predicates[j], std::move(args)));
    } else {
      const PredicateId pred = symbols.InternPredicate(
          prefix + "_pad" + std::to_string(pad_counter++ % 17), 2);
      kb.facts().Add(Atom(pred, {fresh_constant(), fresh_constant()}));
    }
  }

  result.info.num_facts = kb.facts().size();
  result.info.inconsistency_ratio =
      static_cast<double>(conflict_atoms) /
      static_cast<double>(result.info.num_facts);

  KBREPAIR_RETURN_IF_ERROR(kb.Validate());
  return result;
}

}  // namespace kbrepair
