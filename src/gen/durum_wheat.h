// Reconstruction of the Durum Wheat knowledge base (Section 6).
//
// The paper's real-world KB [Arioua, Buche, Croitoru, MTSR 2016] is a
// manually curated agronomy KB that is not publicly distributed. What the
// repair algorithms observe about it, however, is fully described by the
// published characteristics table:
//
//             | atoms | chase | TGDs | CDDs | conflicts | ratio | scope
//   Durum v1  |  567  | 1075  | 269  |  27  |   185     |  14%  |  8.1
//   Durum v2  |  567  | 1075  | 269  | 100  |   212     |  14%  |  7.8
//
// plus: avg 1.4 atoms per overlap, 2–3 atoms per conflict, and ~90% join
// positions inside conflicts. This module rebuilds a KB hitting those
// targets with an agronomy-flavoured vocabulary drawn from the paper's
// own excerpt (hasPrecedent, isCultivatedOn, durum_wheat, soil,
// fertilization, isAtGrowingStage, ...):
//
//  * thirteen violation clusters: seven (8,2) grids over 2-atom CDDs
//    (16 conflicts over 10 atoms each, every conflict overlapping 8
//    others — the published avg scope — and each q1 "hub" in 8
//    conflicts), one (13,1) star (13 conflicts through a single hub, the
//    paper's ~13-conflicts-per-question best case for opti-mcd), and
//    five 3-atom CDD clusters with multiplicities (2,2,3): 185 planned
//    conflicts in total, as published. The conflict-atom count lands at
//    ≈119 (21%) instead of the published 79 (14%) — the price of
//    matching the conflict count, overlap scope and hub structure
//    simultaneously; see EXPERIMENTS.md;
//  * v2 adds 73 CDDs: five "projection" constraints over the 3-atom
//    clusters' predicates that add ~24 conflicts re-using the *same*
//    atoms (the paper notes v2's new conflicts involve the same atoms),
//    and 68 satisfied constraints;
//  * one grid cluster is routed through a depth-1 TGD chain so that part
//    of the inconsistency only surfaces during the chase, as in the
//    paper's two-phase discussion;
//  * 260 noise TGDs over 20 shared crop/soil predicates with two facts
//    each contribute ≈520 derived atoms, matching the published chase
//    size.

#ifndef KBREPAIR_GEN_DURUM_WHEAT_H_
#define KBREPAIR_GEN_DURUM_WHEAT_H_

#include <cstddef>

#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

enum class DurumWheatVersion {
  kV1,  // 27 CDDs
  kV2,  // 100 CDDs (extra constraints, same facts)
};

// The reconstruction is deterministic by design: the cluster layout is
// solved to hit the published characteristics exactly, so there is no
// seed.
struct DurumWheatOptions {
  DurumWheatVersion version = DurumWheatVersion::kV1;
};

struct DurumWheatInfo {
  size_t num_facts = 0;
  size_t num_tgds = 0;
  size_t num_cdds = 0;
  size_t planned_conflicts = 0;
  size_t planned_naive_conflicts = 0;
  size_t planned_chase_conflicts = 0;
  size_t atoms_in_conflicts = 0;
};

struct DurumWheatKb {
  KnowledgeBase kb;
  DurumWheatInfo info;
};

StatusOr<DurumWheatKb> GenerateDurumWheatKb(const DurumWheatOptions& options);

}  // namespace kbrepair

#endif  // KBREPAIR_GEN_DURUM_WHEAT_H_
