#include "kb/fact_base.h"

#include <algorithm>

namespace kbrepair {

AtomId FactBase::Add(Atom atom) {
  const AtomId id = static_cast<AtomId>(atoms_.size());
  const PredicateId pred = atom.predicate;
  by_predicate_.Append(pred, id);
  for (int pos = 0; pos < atom.arity(); ++pos) {
    IndexArg(id, pred, pos, atom.args[static_cast<size_t>(pos)]);
  }
  num_positions_ += static_cast<size_t>(atom.arity());
  atoms_.PushBack(std::move(atom));
  return id;
}

void FactBase::Reserve(size_t atoms, size_t positions) {
  if (!atoms_.empty() || atoms_.has_base()) return;
  atoms_.Reserve(atoms);
  by_probe_.Reserve(positions);
  term_use_count_.Reserve(positions);
}

void FactBase::SetArg(AtomId id, int pos, TermId term) {
  KBREPAIR_DCHECK(id < atoms_.size());
  KBREPAIR_DCHECK(alive(id));
  KBREPAIR_DCHECK(pos >= 0 && pos < atoms_[id].arity());
  const TermId old_term = atoms_[id].args[static_cast<size_t>(pos)];
  if (old_term == term) return;
  const PredicateId pred = atoms_[id].predicate;
  UnindexArg(id, pred, pos, old_term);
  atoms_.Mutable(id).args[static_cast<size_t>(pos)] = term;
  IndexArg(id, pred, pos, term);
}

void FactBase::Remove(AtomId id) {
  KBREPAIR_DCHECK(id < atoms_.size());
  KBREPAIR_DCHECK(alive(id));
  const Atom& atom = atoms_[id];
  for (int pos = 0; pos < atom.arity(); ++pos) {
    UnindexArg(id, atom.predicate, pos, atom.args[static_cast<size_t>(pos)]);
  }
  by_predicate_.SwapErase(atom.predicate, id);
  num_positions_ -= static_cast<size_t>(atom.arity());
  if (dead_.size() < atoms_.size()) dead_.resize(atoms_.size(), false);
  dead_[id] = true;
  ++num_dead_;
}

AtomSpan FactBase::AtomsWithPredicate(PredicateId pred) const {
  return by_predicate_.Find(pred);
}

AtomSpan FactBase::AtomsWithTermAt(PredicateId pred, int pos,
                                   TermId term) const {
  return by_probe_.Find(ProbeKey{pred, pos, term});
}

bool FactBase::Contains(const Atom& atom, AtomId* found) const {
  // Probe the most selective first-argument posting list, then compare.
  AtomSpan candidates =
      atom.args.empty() ? AtomsWithPredicate(atom.predicate)
                        : AtomsWithTermAt(atom.predicate, 0, atom.args[0]);
  for (AtomId id : candidates) {
    if (atoms_[id] == atom) {
      if (found != nullptr) *found = id;
      return true;
    }
  }
  return false;
}

std::vector<TermId> FactBase::ActiveDomain(PredicateId pred,
                                           int pos) const {
  std::vector<TermId> domain;
  for (AtomId id : AtomsWithPredicate(pred)) {
    const Atom& atom = atoms_[id];
    if (pos < atom.arity()) {
      domain.push_back(atom.args[static_cast<size_t>(pos)]);
    }
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

size_t FactBase::TermUseCount(TermId term) const {
  const size_t index = static_cast<size_t>(term);
  return index < term_use_count_.size() ? term_use_count_[index] : 0;
}

uint64_t FactBase::ContentHash(const SymbolTable& symbols) const {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0xFFu;  // terminator so "ab"+"c" != "a"+"bc"
    hash *= 1099511628211ull;
  };
  for (AtomId id = 0; id < atoms_.size(); ++id) {
    if (!alive(id)) continue;
    const Atom& atom = atoms_[id];
    mix(symbols.predicate_name(atom.predicate));
    for (const TermId term : atom.args) {
      hash ^= static_cast<uint64_t>(symbols.term_kind(term)) + 1;
      hash *= 1099511628211ull;
      mix(symbols.term_name(term));
    }
  }
  return hash;
}

std::string FactBase::ToString(const SymbolTable& symbols) const {
  std::string out;
  for (AtomId id = 0; id < atoms_.size(); ++id) {
    if (!alive(id)) continue;
    out += atoms_[id].ToString(symbols);
    out += '\n';
  }
  return out;
}

void FactBase::FreezeSharedBase() {
  KBREPAIR_CHECK_EQ(num_dead_, 0u)
      << " cannot freeze a FactBase with tombstones";
  atoms_.Freeze();
  by_predicate_.Freeze();
  by_probe_.Freeze();
  term_use_count_.Freeze();
  dead_.clear();
}

void FactBase::IndexArg(AtomId id, PredicateId pred, int pos, TermId term) {
  by_probe_.Append(ProbeKey{pred, pos, term}, id);
  const size_t index = static_cast<size_t>(term);
  while (term_use_count_.size() <= index) term_use_count_.PushBack(0);
  ++term_use_count_.Mutable(index);
}

void FactBase::UnindexArg(AtomId id, PredicateId pred, int pos,
                          TermId term) {
  by_probe_.SwapErase(ProbeKey{pred, pos, term}, id);
  uint32_t& count = term_use_count_.Mutable(static_cast<size_t>(term));
  KBREPAIR_DCHECK(count > 0);
  --count;
}

}  // namespace kbrepair
