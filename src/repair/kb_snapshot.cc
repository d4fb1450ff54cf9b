#include "repair/kb_snapshot.h"

#include <utility>

#include "repair/repairability.h"
#include "util/logging.h"

namespace kbrepair {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void MixBytes(uint64_t& h, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void MixU64(uint64_t& h, uint64_t v) { MixBytes(h, &v, sizeof(v)); }

void MixString(uint64_t& h, const std::string& s) {
  MixU64(h, s.size());
  MixBytes(h, s.data(), s.size());
}

void MixAtom(uint64_t& h, const Atom& atom) {
  MixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(atom.predicate)));
  MixU64(h, atom.args.size());
  for (TermId arg : atom.args) {
    MixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(arg)));
  }
}

size_t ApproxKbBytes(const KnowledgeBase& kb) {
  size_t bytes = 0;
  const SymbolTable& symbols = kb.symbols();
  for (TermId id = 0; id < static_cast<TermId>(symbols.num_terms()); ++id) {
    bytes += 48 + symbols.term_name(id).size();
  }
  const FactBase& facts = kb.facts();
  // Atom storage plus the two posting-list index families (~one entry
  // per argument position each).
  bytes += facts.size() * 48 + facts.NumPositions() * 2 * 24;
  return bytes;
}

}  // namespace

uint64_t HashKnowledgeBase(const KnowledgeBase& kb) {
  uint64_t h = kFnvOffset;
  const SymbolTable& symbols = kb.symbols();
  MixU64(h, symbols.num_terms());
  for (TermId id = 0; id < static_cast<TermId>(symbols.num_terms()); ++id) {
    MixU64(h, static_cast<uint64_t>(symbols.term_kind(id)));
    MixString(h, symbols.term_name(id));
  }
  MixU64(h, symbols.num_predicates());
  for (PredicateId id = 0;
       id < static_cast<PredicateId>(symbols.num_predicates()); ++id) {
    MixString(h, symbols.predicate_name(id));
    MixU64(h, static_cast<uint64_t>(symbols.predicate_arity(id)));
  }
  const FactBase& facts = kb.facts();
  MixU64(h, facts.size());
  for (AtomId id = 0; id < facts.size(); ++id) MixAtom(h, facts.atom(id));
  MixU64(h, kb.tgds().size());
  for (const Tgd& tgd : kb.tgds()) {
    MixU64(h, tgd.body().size());
    for (const Atom& atom : tgd.body()) MixAtom(h, atom);
    MixU64(h, tgd.head().size());
    for (const Atom& atom : tgd.head()) MixAtom(h, atom);
  }
  MixU64(h, kb.cdds().size());
  for (const Cdd& cdd : kb.cdds()) {
    MixU64(h, cdd.body().size());
    for (const Atom& atom : cdd.body()) MixAtom(h, atom);
  }
  return h;
}

StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSharedKbSnapshot(
    KnowledgeBase kb, std::string label, const ChaseOptions& chase_options) {
  auto snapshot = std::make_shared<SharedKbSnapshot>();
  snapshot->label = std::move(label);
  snapshot->chase_options = chase_options;

  // Replicate InquiryEngine::Begin(Π=∅) on the base *before* freezing,
  // in its order — skeleton, then conflict engine — so the frozen
  // symbol table holds exactly the terms (scratch nulls, chase-minted
  // nulls) a cold session's Begin would have interned. The two engines
  // Begin builds become the fork's prototypes.
  std::unique_ptr<DeltaConflictEngine> skeleton;
  std::unique_ptr<DeltaConflictEngine> delta;
  {
    RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(), &kb.cdds(),
                                       chase_options);
    KBREPAIR_RETURN_IF_ERROR(
        repairability.EnsureSkeleton(kb.facts(), PositionSet{}));
    skeleton = repairability.ReleaseSkeleton();
    snapshot->repairable = skeleton->empty();
  }
  if (snapshot->repairable) {
    delta = std::make_unique<DeltaConflictEngine>(&kb.symbols(), &kb.tgds(),
                                                  &kb.cdds(), chase_options);
    KBREPAIR_RETURN_IF_ERROR(delta->Initialize(kb.facts()));
    snapshot->initial_conflicts = delta->size();
    snapshot->initial_naive_conflicts = delta->naive_size();
  }

  kb.FreezeShared();
  snapshot->content_hash = HashKnowledgeBase(kb);
  snapshot->approx_bytes = ApproxKbBytes(kb);
  snapshot->kb = std::move(kb);

  if (snapshot->repairable) {
    skeleton->FreezeShared();
    snapshot->skeleton_proto = std::move(skeleton);
    delta->FreezeShared();
    snapshot->delta_proto = std::move(delta);
  }
  return std::shared_ptr<const SharedKbSnapshot>(snapshot);
}

}  // namespace kbrepair
