#include "gen/durum_wheat.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"


namespace kbrepair {

namespace {

// Agronomy-flavoured predicate stems (from the paper's excerpt and the
// MTSR 2016 companion paper's domain).
constexpr std::array<const char*, 20> kPredicateStems = {
    "hasPrecedent",     "isCultivatedOn",  "isAtGrowingStage",
    "isPerformedOn",    "requiresSoil",    "treatedWith",
    "hasDisease",       "appliedOn",       "harvestedAt",
    "sownIn",           "rotatesWith",     "fertilizedWith",
    "irrigatedBy",      "hasGrowthStage",  "precededBy",
    "hasVariety",       "hasYield",        "infestedBy",
    "protectedBy",      "suitableFor",
};

constexpr std::array<const char*, 12> kConstantStems = {
    "soil",      "parcel",   "durum",   "soybean",  "sorghum", "vacoparis",
    "tillering", "nitrogen", "fungus",  "rotation", "stage",   "season",
};

}  // namespace

StatusOr<DurumWheatKb> GenerateDurumWheatKb(
    const DurumWheatOptions& options) {
  DurumWheatKb result;
  KnowledgeBase& kb = result.kb;
  SymbolTable& symbols = kb.symbols();

  uint64_t constant_counter = 0;
  auto fresh_constant = [&]() {
    const char* stem =
        kConstantStems[constant_counter % kConstantStems.size()];
    return symbols.InternConstant(std::string(stem) + "_" +
                                  std::to_string(++constant_counter));
  };
  size_t predicate_counter = 0;
  auto fresh_predicate = [&](int arity) {
    const char* stem =
        kPredicateStems[predicate_counter % kPredicateStems.size()];
    return symbols.InternPredicate(
        std::string(stem) + std::to_string(predicate_counter++), arity);
  };

  const TermId j0 = symbols.InternVariable("J0");
  const TermId j1 = symbols.InternVariable("J1");
  const TermId l0 = symbols.InternVariable("L0");
  const TermId l1 = symbols.InternVariable("L1");
  const TermId l2 = symbols.InternVariable("L2");

  // ---------------------------------------------------------------------
  // Eight 2-atom CDDs: q0(J0, L0), q1(J0, L1) -> ⊥.
  //
  // Seven are violated by an (8,2) grid cluster — 8 q0-variants and 2
  // q1-variants sharing one join constant: 16 conflicts over 10 atoms,
  // each conflict overlapping 8 others (the published avg scope) and
  // each q1 "hub" sitting in 8 conflicts, which is what lets opti-mcd
  // resolve many conflicts per question, as in Figure 2(c). The eighth
  // is a (13,1) star — 13 conflicts through a single hub, mirroring the
  // paper's best case where one question settles ~13 conflicts.
  //
  // Cluster 6 is *routed*: its q0 facts are asserted as chain origins
  // and only reach q0 through a TGD, so its 16 conflicts surface during
  // the chase.
  struct PairCluster {
    PredicateId q0, q1;
    int m0 = 8;
    int m1 = 2;
    PredicateId origin = kInvalidPredicate;  // routed clusters only
  };
  std::vector<PairCluster> pair_clusters;
  for (int c = 0; c < 8; ++c) {
    PairCluster cluster;
    cluster.q0 = fresh_predicate(2);
    cluster.q1 = fresh_predicate(2);
    if (c == 7) {
      cluster.m0 = 13;
      cluster.m1 = 1;
    }
    KBREPAIR_ASSIGN_OR_RETURN(
        Cdd cdd, Cdd::Create({Atom(cluster.q0, {j0, l0}),
                              Atom(cluster.q1, {j0, l1})},
                             symbols));
    kb.cdds().push_back(std::move(cdd));
    if (c == 6) {
      cluster.origin = symbols.InternPredicate("plannedTreatment", 2);
      KBREPAIR_ASSIGN_OR_RETURN(
          Tgd chain,
          Tgd::Create({Atom(cluster.origin, {j0, l0})},
                      {Atom(cluster.q0, {j0, l0})}, symbols));
      kb.tgds().push_back(std::move(chain));
    }
    pair_clusters.push_back(cluster);
  }

  // ---------------------------------------------------------------------
  // Five 3-atom CDDs: q0(J0, L0), q1(J0, J1), q2(J1, L1) -> ⊥,
  // each violated by one (2,2,3) cluster: 12 conflicts over 7 atoms.
  struct TripleCluster {
    PredicateId q0, q1, q2;
  };
  std::vector<TripleCluster> triple_clusters;
  for (int c = 0; c < 5; ++c) {
    TripleCluster cluster;
    cluster.q0 = fresh_predicate(2);
    cluster.q1 = fresh_predicate(2);
    cluster.q2 = fresh_predicate(2);
    KBREPAIR_ASSIGN_OR_RETURN(
        Cdd cdd, Cdd::Create({Atom(cluster.q0, {j0, l0}),
                              Atom(cluster.q1, {j0, j1}),
                              Atom(cluster.q2, {j1, l1})},
                             symbols));
    kb.cdds().push_back(std::move(cdd));
    triple_clusters.push_back(cluster);
  }

  // ---------------------------------------------------------------------
  // Remaining v1 constraints (satisfied by the data): 27 - 13 = 14.
  auto add_satisfied_cdds = [&](size_t count) -> Status {
    for (size_t c = 0; c < count; ++c) {
      const PredicateId a = fresh_predicate(2);
      const PredicateId b = fresh_predicate(2);
      KBREPAIR_ASSIGN_OR_RETURN(
          Cdd cdd,
          Cdd::Create({Atom(a, {j0, l0}), Atom(b, {j0, l1})}, symbols));
      kb.cdds().push_back(std::move(cdd));
    }
    return Status::Ok();
  };
  KBREPAIR_RETURN_IF_ERROR(add_satisfied_cdds(14));

  // ---------------------------------------------------------------------
  // v2: five projection constraints over the triple clusters — they are
  // violated by atoms already in conflict, adding conflicts but no new
  // dirty atoms — plus 68 satisfied constraints (total 100 CDDs).
  if (options.version == DurumWheatVersion::kV2) {
    for (int c = 0; c < 5; ++c) {
      const TripleCluster& cluster = triple_clusters[static_cast<size_t>(c)];
      if (c < 3) {
        // q0(J0, L0), q1(J0, L1): 2 x 2 = 4 extra conflicts.
        KBREPAIR_ASSIGN_OR_RETURN(
            Cdd cdd, Cdd::Create({Atom(cluster.q0, {j0, l0}),
                                  Atom(cluster.q1, {j0, l1})},
                                 symbols));
        kb.cdds().push_back(std::move(cdd));
        result.info.planned_conflicts += 4;
        result.info.planned_naive_conflicts += 4;
      } else {
        // q1(L0, J1), q2(J1, L2): 2 x 3 = 6 extra conflicts.
        KBREPAIR_ASSIGN_OR_RETURN(
            Cdd cdd, Cdd::Create({Atom(cluster.q1, {l0, j1}),
                                  Atom(cluster.q2, {j1, l2})},
                                 symbols));
        kb.cdds().push_back(std::move(cdd));
        result.info.planned_conflicts += 6;
        result.info.planned_naive_conflicts += 6;
      }
    }
    KBREPAIR_RETURN_IF_ERROR(add_satisfied_cdds(68));
  }

  // ---------------------------------------------------------------------
  // Facts for the pair clusters: m0 q0-variants and m1 q1-variants
  // sharing one join constant and differing in the lone position.
  for (const PairCluster& cluster : pair_clusters) {
    const TermId join_a = fresh_constant();
    const bool routed = cluster.origin != kInvalidPredicate;
    for (int m = 0; m < cluster.m0; ++m) {
      kb.facts().Add(Atom(routed ? cluster.origin : cluster.q0,
                          {join_a, fresh_constant()}));
    }
    for (int m = 0; m < cluster.m1; ++m) {
      kb.facts().Add(Atom(cluster.q1, {join_a, fresh_constant()}));
    }
    const size_t conflicts =
        static_cast<size_t>(cluster.m0) * static_cast<size_t>(cluster.m1);
    result.info.planned_conflicts += conflicts;
    if (routed) {
      result.info.planned_chase_conflicts += conflicts;
    } else {
      result.info.planned_naive_conflicts += conflicts;
    }
    result.info.atoms_in_conflicts +=
        static_cast<size_t>(cluster.m0 + cluster.m1);
  }

  // Facts for the triple clusters: multiplicities (2, 2, 3); lone
  // positions take fresh constants per variant.
  for (const TripleCluster& cluster : triple_clusters) {
    const TermId join_a = fresh_constant();
    const TermId join_b = fresh_constant();
    for (int m = 0; m < 2; ++m) {
      kb.facts().Add(Atom(cluster.q0, {join_a, fresh_constant()}));
    }
    for (int m = 0; m < 2; ++m) {
      kb.facts().Add(Atom(cluster.q1, {join_a, join_b}));
    }
    for (int m = 0; m < 3; ++m) {
      kb.facts().Add(Atom(cluster.q2, {join_b, fresh_constant()}));
    }
    result.info.planned_conflicts += 12;
    result.info.planned_naive_conflicts += 12;
    result.info.atoms_in_conflicts += 7;
  }

  // ---------------------------------------------------------------------
  // Noise TGDs: 260 rules over 20 shared crop/soil predicates, two facts
  // each -> 13 rules fire per predicate per fact = 520 derived atoms.
  std::vector<PredicateId> noise_predicates;
  for (int n = 0; n < 20; ++n) {
    noise_predicates.push_back(fresh_predicate(2));
  }
  const TermId x = symbols.InternVariable("X");
  const TermId y = symbols.InternVariable("Y");
  const TermId z = symbols.InternVariable("Z");
  const size_t existing_tgds = kb.tgds().size();
  for (size_t t = 0; existing_tgds + t < 269; ++t) {
    const PredicateId body_pred = noise_predicates[t % 20];
    const PredicateId head_pred = fresh_predicate(2);
    KBREPAIR_ASSIGN_OR_RETURN(
        Tgd tgd, Tgd::Create({Atom(body_pred, {x, y})},
                             {Atom(head_pred, {x, z})}, symbols));
    kb.tgds().push_back(std::move(tgd));
  }
  for (const PredicateId pred : noise_predicates) {
    kb.facts().Add(Atom(pred, {fresh_constant(), fresh_constant()}));
    kb.facts().Add(Atom(pred, {fresh_constant(), fresh_constant()}));
  }

  // ---------------------------------------------------------------------
  // Padding to 567 atoms with conflict-free agronomy facts.
  size_t pad_counter = 0;
  std::vector<PredicateId> pad_predicates;
  for (int p = 0; p < 15; ++p) pad_predicates.push_back(fresh_predicate(2));
  while (kb.facts().size() < 567) {
    const PredicateId pred = pad_predicates[pad_counter++ % 15];
    kb.facts().Add(Atom(pred, {fresh_constant(), fresh_constant()}));
  }

  result.info.num_facts = kb.facts().size();
  result.info.num_tgds = kb.tgds().size();
  result.info.num_cdds = kb.cdds().size();

  KBREPAIR_RETURN_IF_ERROR(kb.Validate());
  return result;
}

}  // namespace kbrepair
