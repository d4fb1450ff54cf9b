// Copy-on-write containers backing the shared-base / delta-overlay split.
//
// A fleet of repair sessions forked from one registered base KB shares
// the base's interned symbols, facts, indexes and chased provenance; each
// session only materializes what it actually changes. Two shapes cover
// every structure involved:
//
//  * CowVector<T> — an immutable shared prefix (the base segment) plus a
//    per-index modified overlay and an append tail. Indexed reads fall
//    through to the base; Mutable(i) copies one element out on first
//    write. Ids stay stable, matching FactBase/IncrementalChase identity
//    semantics.
//  * CowMap<K, V> — a local overlay map over an immutable shared base
//    map. A key present in the overlay is authoritative; Mutable() copies
//    the base value on first touch (per-key CoW of posting lists), and
//    Erase() shadows a base entry with an empty value, which every
//    consumer in this codebase treats identically to an absent key.
//
// Freeze() makes the current contents an immutable shared segment and
// adopts it, so `frozen; copy = frozen;` forks in O(1) and each copy then
// accumulates only its own delta. A container with no shared segment yet
// hands its storage over by move (O(1), no element copied); one that is
// already frozen with an empty overlay is left as it is; only a frozen
// container with a delta is flattened into a fresh segment. Plain
// (never-frozen) instances behave like the underlying std containers with
// one extra branch per access.

#ifndef KBREPAIR_UTIL_COW_H_
#define KBREPAIR_UTIL_COW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace kbrepair {

template <typename T>
class CowVector {
 public:
  size_t size() const { return base_size_ + tail_.size(); }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const {
    KBREPAIR_DCHECK(i < size());
    if (i < base_size_) {
      if (IsModified(i)) return modified_.find(i)->second;
      return (*base_)[i];
    }
    return tail_[i - base_size_];
  }

  // Mutable view of element `i`; copies the base element into the
  // overlay on first write. References into the tail are invalidated by
  // PushBack (vector semantics); overlay references are stable.
  T& Mutable(size_t i) {
    KBREPAIR_DCHECK(i < size());
    if (i < base_size_) {
      if (IsModified(i)) return modified_.find(i)->second;
      const size_t word = i / 64;
      if (word >= modified_bits_.size()) modified_bits_.resize(word + 1);
      modified_bits_[word] |= uint64_t{1} << (i % 64);
      return modified_.emplace(i, (*base_)[i]).first->second;
    }
    return tail_[i - base_size_];
  }

  void PushBack(T value) { tail_.push_back(std::move(value)); }

  // Room for `n` more appended elements without reallocation.
  void Reserve(size_t n) { tail_.reserve(tail_.size() + n); }

  void Clear() {
    base_.reset();
    base_size_ = 0;
    modified_.clear();
    modified_bits_.clear();
    tail_.clear();
  }

  // Makes the current contents an immutable shared segment, adopts it
  // (dropping the overlay and tail) and returns it. Copies made
  // afterwards share the segment and carry only their own deltas.
  std::shared_ptr<const std::vector<T>> Freeze() {
    if (modified_.empty() && tail_.empty() && base_ != nullptr) return base_;
    std::shared_ptr<std::vector<T>> flat;
    if (base_ == nullptr) {
      // Nothing shared yet: the tail is the whole contents; adopt it.
      flat = std::make_shared<std::vector<T>>(std::move(tail_));
    } else {
      flat = std::make_shared<std::vector<T>>();
      flat->reserve(size());
      for (size_t i = 0; i < size(); ++i) flat->push_back((*this)[i]);
    }
    // Swap-with-empty, not clear(): clear() keeps the grown bucket /
    // heap arrays, and libstdc++'s copy constructor reproduces the
    // source's bucket count — every post-freeze copy would re-allocate
    // the full-size (empty) overlay and forking would silently scale
    // with base size instead of delta size.
    std::unordered_map<size_t, T>().swap(modified_);
    std::vector<uint64_t>().swap(modified_bits_);
    std::vector<T>().swap(tail_);
    base_ = flat;
    base_size_ = flat->size();
    return flat;
  }

  bool has_base() const { return base_ != nullptr; }
  size_t base_size() const { return base_size_; }
  // Elements this instance materializes itself (its delta).
  size_t overlay_size() const { return modified_.size() + tail_.size(); }

 private:
  bool IsModified(size_t i) const {
    const size_t word = i / 64;
    return word < modified_bits_.size() &&
           (modified_bits_[word] >> (i % 64) & 1) != 0;
  }

  std::shared_ptr<const std::vector<T>> base_;
  size_t base_size_ = 0;
  std::unordered_map<size_t, T> modified_;
  // One bit per base index, set when modified_ holds it: a read of an
  // unmodified base element tests a bit instead of hashing. Sized up to
  // the highest modified index on first write (like FactBase's
  // tombstones), so an unwritten copy stays O(1).
  std::vector<uint64_t> modified_bits_;
  std::vector<T> tail_;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class CowMap {
 public:
  using Map = std::unordered_map<K, V, Hash>;

  const V* Find(const K& key) const {
    if (!local_.empty()) {
      auto it = local_.find(key);
      if (it != local_.end()) return &it->second;
    }
    if (base_ != nullptr) {
      auto it = base_->find(key);
      if (it != base_->end()) return &it->second;
    }
    return nullptr;
  }

  // Mutable pointer to the value of `key`, or nullptr when absent.
  // Copies the base value into the overlay on first touch.
  V* FindMutable(const K& key) {
    auto it = local_.find(key);
    if (it != local_.end()) return &it->second;
    if (base_ != nullptr) {
      auto base_it = base_->find(key);
      if (base_it != base_->end()) {
        return &local_.emplace(key, base_it->second).first->second;
      }
    }
    return nullptr;
  }

  // Mutable value of `key`, default-constructed when absent.
  V& Mutable(const K& key) {
    V* present = FindMutable(key);
    if (present != nullptr) return *present;
    return local_[key];
  }

  // Removes `key`. A base entry cannot be physically removed, so it is
  // shadowed with an empty value — observably equivalent for every
  // consumer here (empty posting list / zero count ≡ absent).
  void Erase(const K& key) {
    if (base_ != nullptr && base_->find(key) != base_->end()) {
      local_.insert_or_assign(key, V{});
    } else {
      local_.erase(key);
    }
  }

  // Moves the value of `key` out (default-constructed when absent) and
  // removes the key, shadowing a base entry like Erase().
  V Take(const K& key) {
    V out{};
    auto it = local_.find(key);
    if (it != local_.end()) {
      out = std::move(it->second);
      local_.erase(it);
    } else if (base_ != nullptr) {
      auto base_it = base_->find(key);
      if (base_it != base_->end()) out = base_it->second;
    }
    if (base_ != nullptr && base_->find(key) != base_->end()) {
      local_.emplace(key, V{});
    }
    return out;
  }

  void Clear() {
    base_.reset();
    local_.clear();
  }

  // Flattens base + overlay into a new immutable shared base map and
  // adopts it. Empty shadow values are kept — equivalent to absent keys.
  std::shared_ptr<const Map> Freeze() {
    if (local_.empty() && base_ != nullptr) return base_;
    std::shared_ptr<Map> flat;
    if (base_ == nullptr) {
      // Nothing shared yet: the overlay is the whole map; adopt it.
      flat = std::make_shared<Map>(std::move(local_));
    } else {
      flat = std::make_shared<Map>(*base_);
      for (auto& [key, value] : local_) {
        flat->insert_or_assign(key, std::move(value));
      }
    }
    // Swap-with-empty, not clear(): see CowVector::Freeze() — a copied
    // empty map inherits the source's bucket count, so a cleared-but-
    // bucketed overlay would make every fork allocate (and page in) a
    // bucket array sized to the whole base.
    Map().swap(local_);
    base_ = flat;
    return flat;
  }

 private:
  std::shared_ptr<const Map> base_;
  Map local_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_COW_H_
