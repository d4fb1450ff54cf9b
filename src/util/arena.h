// Arena: chunked bump allocation for chase-generation-scoped data.
//
// The saturation hot path used to allocate a fresh heap node per derived
// atom: every materialized trigger carried an unordered_map of bindings
// and a parents vector, and every Derivation copied that vector again.
// The arena replaces that churn with pointer-bump allocation into large
// chunks that are freed (or reset) all at once when the owning chase
// generation ends:
//
//  * a scratch arena holds the trigger frontier of one saturation wave
//    and is Reset() between waves;
//  * a per-result arena owns every Derivation's parent list for the
//    lifetime of the IncrementalChase that minted it.
//
// Only trivially-copyable, trivially-destructible element types are
// supported (AtomId, TermId, small PODs) — nothing in the arena is ever
// destroyed individually, so destructors would silently not run.
//
// Not thread-safe: one arena per owner. ArenaSpan is a plain {pointer,
// length} view — valid for as long as the arena that produced it is
// neither Reset() nor destroyed.

#ifndef KBREPAIR_UTIL_ARENA_H_
#define KBREPAIR_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace kbrepair {

// Non-owning view of `len` consecutive T's placed in an Arena. Trivially
// copyable, so structs holding spans (Derivation, pending triggers) can
// live in plain vectors / CoW containers while the bytes stay put.
template <typename T>
struct ArenaSpan {
  const T* ptr = nullptr;
  uint32_t len = 0;

  const T* begin() const { return ptr; }
  const T* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const T& operator[](size_t i) const {
    KBREPAIR_DCHECK(i < len);
    return ptr[i];
  }
};

class Arena {
 public:
  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Copies `[src, src + len)` into the arena and returns a stable span.
  // A zero-length copy returns an empty span without touching memory.
  template <typename T>
  ArenaSpan<T> Copy(const T* src, size_t len) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena elements are never individually destroyed");
    if (len == 0) return {};
    T* dst = static_cast<T*>(Allocate(len * sizeof(T), alignof(T)));
    std::memcpy(dst, src, len * sizeof(T));
    return {dst, static_cast<uint32_t>(len)};
  }

  template <typename T>
  ArenaSpan<T> Copy(const std::vector<T>& src) {
    return Copy(src.data(), src.size());
  }

  // Raw bump allocation (uninitialized). Alignment must be a power of 2.
  void* Allocate(size_t bytes, size_t align) {
    size_t offset = (cursor_ + align - 1) & ~(align - 1);
    if (current_ == nullptr || offset + bytes > current_size_) {
      NewChunk(bytes + align);
      offset = (cursor_ + align - 1) & ~(align - 1);
    }
    cursor_ = offset + bytes;
    return current_ + offset;
  }

  // Recycles every chunk: allocation restarts at the front of the first
  // chunk, previous contents become garbage (spans into them dangle).
  // Chunks themselves are kept, so a steady-state wave loop allocates
  // from the OS only until the high-water mark is reached.
  void Reset() {
    if (chunks_.empty()) return;
    next_chunk_ = 0;
    AdoptChunk(0);
  }

  // Total bytes currently reserved from the OS (instrumentation).
  size_t reserved_bytes() const {
    size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> bytes;
    size_t size = 0;
  };

  void AdoptChunk(size_t index) {
    current_ = chunks_[index].bytes.get();
    current_size_ = chunks_[index].size;
    cursor_ = 0;
    next_chunk_ = index + 1;
  }

  void NewChunk(size_t min_bytes) {
    // After a Reset() the retained chunks are reused before growing.
    while (next_chunk_ < chunks_.size()) {
      if (chunks_[next_chunk_].size >= min_bytes) {
        AdoptChunk(next_chunk_);
        return;
      }
      ++next_chunk_;
    }
    Chunk chunk;
    chunk.size = min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
    // Left uninitialized: every byte is written before it is read, and
    // zero-filling would fault in every page of a chunk that a small
    // saturation wave barely uses.
    chunk.bytes = std::make_unique_for_overwrite<char[]>(chunk.size);
    chunks_.push_back(std::move(chunk));
    AdoptChunk(chunks_.size() - 1);
  }

  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  char* current_ = nullptr;
  size_t current_size_ = 0;
  size_t cursor_ = 0;
  size_t next_chunk_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_ARENA_H_
