#include "kb/symbol_table.h"

#include <functional>

namespace kbrepair {

namespace {

// Folds a 64-bit string hash to the 32 bits a slot keeps.
uint32_t Fold(uint64_t hash) {
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

// Slot arrays stay at most half full.
size_t CapacityFor(size_t count) {
  size_t capacity = 16;
  while (capacity < 2 * count) capacity *= 2;
  return capacity;
}

}  // namespace

void SymbolTable::Index::Place(std::vector<Slot>& slots, Slot slot) {
  const size_t mask = slots.size() - 1;
  size_t i = slot.hash & mask;
  while (slots[i].id >= 0) i = (i + 1) & mask;
  slots[i] = slot;
}

void SymbolTable::Index::Reserve(size_t count) {
  const size_t capacity = CapacityFor(local_count_ + count);
  if (capacity <= local_.size()) return;
  std::vector<Slot> grown(capacity, Slot{0, -1});
  for (const Slot& slot : local_) {
    if (slot.id >= 0) Place(grown, slot);
  }
  local_.swap(grown);
}

void SymbolTable::Index::Insert(uint32_t hash, int32_t id) {
  if (2 * (local_count_ + 1) > local_.size()) Reserve(1);
  Place(local_, Slot{hash, id});
  ++local_count_;
}

void SymbolTable::Index::Freeze() {
  if (local_count_ == 0) return;
  if (base_ != nullptr) {
    std::vector<Slot> merged(CapacityFor(base_count_ + local_count_),
                             Slot{0, -1});
    const std::vector<Slot>* const parts[] = {base_.get(), &local_};
    for (const std::vector<Slot>* slots : parts) {
      for (const Slot& slot : *slots) {
        if (slot.id >= 0) Place(merged, slot);
      }
    }
    local_.swap(merged);
  }
  base_count_ += local_count_;
  base_ = std::make_shared<const std::vector<Slot>>(std::move(local_));
  // A fresh vector, not clear(): copies of a frozen index must not
  // inherit a slot array sized to the base.
  std::vector<Slot>().swap(local_);
  local_count_ = 0;
}

uint32_t SymbolTable::TermHash(TermKind kind, std::string_view name) {
  // The kind spreads over every bit, so "X" the constant and "X" the
  // variable rarely share a stored hash.
  return Fold(std::hash<std::string_view>()(name) ^
              (static_cast<uint64_t>(kind) + 1) * 0x9e3779b97f4a7c15ull);
}

uint32_t SymbolTable::PredicateHash(std::string_view name) {
  return Fold(std::hash<std::string_view>()(name));
}

TermId SymbolTable::Intern(TermKind kind, std::string_view name,
                           bool* inserted) {
  const uint32_t hash = TermHash(kind, name);
  const TermId found = FindTerm(kind, name, hash);
  *inserted = found == kInvalidTerm;
  if (!*inserted) return found;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.PushBack(TermEntry{kind, std::string(name)});
  term_index_.Insert(hash, id);
  return id;
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
    bool inserted = false;
    const TermId id = Intern(
        TermKind::kNull, prefix + std::to_string(++*counter), &inserted);
    if (inserted) return id;
  }
}

TermId SymbolTable::MakeFreshVariable() {
  while (true) {
    bool inserted = false;
    const TermId id =
        Intern(TermKind::kVariable,
               "_V" + std::to_string(++fresh_variable_counter_), &inserted);
    if (inserted) return id;
  }
}

PredicateId SymbolTable::InternPredicate(std::string_view name, int arity) {
  KBREPAIR_CHECK(arity >= 1) << " predicate " << name;
  const uint32_t hash = PredicateHash(name);
  const PredicateId found = FindPredicate(name, hash);
  if (found != kInvalidPredicate) {
    KBREPAIR_CHECK_EQ(predicates_[static_cast<size_t>(found)].arity, arity)
        << " predicate " << name << " re-interned with different arity";
    return found;
  }
  const PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.PushBack(PredicateEntry{std::string(name), arity});
  predicate_index_.Insert(hash, id);
  return id;
}

void SymbolTable::ReserveTerms(size_t count) {
  terms_.Reserve(count);
  term_index_.Reserve(count);
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
