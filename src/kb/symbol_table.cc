#include "kb/symbol_table.h"

namespace kbrepair {

TermId SymbolTable::InternTerm(TermKind kind, const std::string& name) {
  const std::string key = TermKey(kind, name);
  const TermId* found = term_index_.Find(key);
  if (found != nullptr) return *found;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.PushBack(TermEntry{kind, name});
  term_index_.Mutable(key) = id;
  return id;
}

TermId SymbolTable::FindTerm(TermKind kind, const std::string& name) const {
  const TermId* found = term_index_.Find(TermKey(kind, name));
  return found == nullptr ? kInvalidTerm : *found;
}

TermId SymbolTable::MakeFreshNull() {
  return MintNull("_N", &fresh_null_counter_);
}

TermId SymbolTable::MakeScratchNull() {
  return MintNull("_S", &scratch_null_counter_);
}

TermId SymbolTable::MintNull(const char* prefix, uint64_t* counter) {
  // Loop in case a user-supplied null already claimed the name.
  while (true) {
    std::string name = prefix + std::to_string(++*counter);
    if (FindTerm(TermKind::kNull, name) == kInvalidTerm) {
      return InternNull(name);
    }
  }
}

TermId SymbolTable::MakeFreshVariable() {
  while (true) {
    std::string name = "_V" + std::to_string(++fresh_variable_counter_);
    if (FindTerm(TermKind::kVariable, name) == kInvalidTerm) {
      return InternVariable(name);
    }
  }
}

PredicateId SymbolTable::InternPredicate(const std::string& name,
                                         int arity) {
  KBREPAIR_CHECK(arity >= 1) << " predicate " << name;
  const PredicateId* found = predicate_index_.Find(name);
  if (found != nullptr) {
    KBREPAIR_CHECK_EQ(predicates_[static_cast<size_t>(*found)].arity, arity)
        << " predicate " << name << " re-interned with different arity";
    return *found;
  }
  const PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.PushBack(PredicateEntry{name, arity});
  predicate_index_.Mutable(name) = id;
  return id;
}

PredicateId SymbolTable::FindPredicate(const std::string& name) const {
  const PredicateId* found = predicate_index_.Find(name);
  return found == nullptr ? kInvalidPredicate : *found;
}

void SymbolTable::FreezeSharedBase() {
  terms_.Freeze();
  term_index_.Freeze();
  predicates_.Freeze();
  predicate_index_.Freeze();
}

void SymbolTable::ForkFrom(const SymbolTable& frozen) {
  KBREPAIR_CHECK(num_terms() == 0 && num_predicates() == 0)
      << " ForkFrom requires an empty symbol table";
  KBREPAIR_DCHECK(frozen.has_shared_base() || frozen.num_terms() == 0);
  terms_ = frozen.terms_;
  term_index_ = frozen.term_index_;
  predicates_ = frozen.predicates_;
  predicate_index_ = frozen.predicate_index_;
  fresh_null_counter_ = frozen.fresh_null_counter_;
  scratch_null_counter_ = frozen.scratch_null_counter_;
  fresh_variable_counter_ = frozen.fresh_variable_counter_;
}

}  // namespace kbrepair
