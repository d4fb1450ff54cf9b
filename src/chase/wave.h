// Wave-based saturation scaffolding of the chase kernel
// (IncrementalChase::Saturate, the one saturation loop).
//
// The kernel saturates by alternating two phases over a *wave* — the
// snapshot of the current work queue:
//
//   Phase A (read-only, parallelizable): for every wave slot, enumerate
//   the TGD triggers (and, when the chase has CDDs, the CDD violations)
//   anchored at that slot's atom against the wave-start fact base. Each
//   slot's findings are copied into a per-worker arena and recorded in
//   slot-owned storage, so workers never contend.
//
//   Phase B (sequential, deterministic): walk the slots in wave order and
//   fire/suppress each pending trigger against the live base. Phase B is
//   where atoms are added and fresh nulls are minted, so its slot order
//   fully determines atom ids, null names, provenance and transcripts —
//   the output is byte-identical for any thread count, including 1.
//
// Completeness: a trigger (or violation) whose body involves an atom
// added during the current wave's Phase B is invisible to that wave's
// snapshot, but the new atom itself joins the next wave, where the
// pinned enumeration anchored at it finds the homomorphism. This is the
// usual semi-naive argument — every homomorphism has a last-arriving
// atom, and it is found when that atom's wave runs.

#ifndef KBREPAIR_CHASE_WAVE_H_
#define KBREPAIR_CHASE_WAVE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "kb/atom.h"
#include "kb/fact_base.h"
#include "util/arena.h"
#include "util/function_ref.h"
#include "util/thread_pool.h"

namespace kbrepair {

// A trigger discovered in Phase A, pending its Phase B head-satisfaction
// check. Spans point into the per-worker arena that enumerated it and
// stay valid until the executor's arenas are Reset() after Phase B.
struct PendingTrigger {
  size_t tgd_index = 0;
  ArenaSpan<AtomId> matched;    // body-matched atoms, body order
  ArenaSpan<Binding> bindings;  // frontier bindings, flat
};

// Runs Phase A across slots: a thread pool (lazily spawned once waves are
// big enough to amortize the handoff) plus one scratch arena per worker.
class WaveExecutor {
 public:
  // `num_threads` counts the caller; 1 disables the pool entirely.
  explicit WaveExecutor(size_t num_threads)
      : num_threads_(num_threads < 1 ? 1 : num_threads) {
    arenas_.reserve(num_threads_);
    for (size_t i = 0; i < num_threads_; ++i) {
      arenas_.push_back(std::make_unique<Arena>());
    }
  }

  size_t num_threads() const { return num_threads_; }

  // Runs fn(slot, arena) for every slot in [0, n); arena is private to
  // the executing worker for the duration of the call. fn must write
  // only slot-owned state (plus its arena). Blocks until all slots ran.
  void ForEachSlot(size_t n, const FunctionRef<void(size_t, Arena&)>& fn) {
    if (n == 0) return;
    if (num_threads_ > 1 && pool_ == nullptr && n >= kMinSlotsForPool) {
      pool_ = std::make_unique<ThreadPool>(num_threads_);
    }
    if (pool_ == nullptr || n == 1) {
      for (size_t i = 0; i < n; ++i) fn(i, *arenas_[0]);
      return;
    }
    pool_->ParallelFor(n, [&fn, this](size_t slot, size_t worker) {
      fn(slot, *arenas_[worker]);
    });
  }

  // Invalidates every span handed out during the last ForEachSlot and
  // recycles the arena chunks. Call between waves, after Phase B has
  // consumed the pending triggers.
  void ResetArenas() {
    for (auto& arena : arenas_) arena->Reset();
  }

 private:
  // Below this wave size the pool handoff costs more than the scan; the
  // threshold only affects wall-clock, never results (the wave algorithm
  // is thread-count-invariant by construction).
  static constexpr size_t kMinSlotsForPool = 8;

  size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Arena>> arenas_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_WAVE_H_
