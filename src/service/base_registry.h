// BaseRegistry: named, refcounted, shared SharedKbSnapshots for the
// repair service.
//
// A client registers a base KB once (`register-base`); every later
// `create --base <name>` forks a session from the frozen snapshot in
// O(delta) instead of re-building and re-chasing a private copy. The
// registry is shared across shards (one instance behind the sharded
// front-end), so a base registered through any connection serves every
// shard's sessions.
//
// Lifecycle:
//  * Register is idempotent for an identical KB (the deterministic
//    content hash matches) and fails with FailedPrecondition when the
//    name is taken by a different KB.
//  * Acquire hands out a refcounted Handle; the session holds it for its
//    lifetime, so a base always outlives the sessions forked from it.
//  * SweepExpired (driven by the manager's reaper) evicts bases that are
//    orphaned — refcount zero — and have been idle past the TTL. A
//    referenced base is never evicted.
//
// Durability: with a log directory configured, every register/evict is
// appended (fsync'd) to <dir>/bases.jsonl as one JSON line:
//   {"op":"register","name":...,"hash":"<hex>","params":{...}}
//   {"op":"evict","name":...}
// RecoverFromLog() replays the log at startup — BEFORE session WAL
// recovery, so recovered sessions whose create params carry
// "base":<name> can re-fork — rebuilding each snapshot from its params
// and verifying the recorded content hash. The replayed log is then
// compacted to the live set.

#ifndef KBREPAIR_SERVICE_BASE_REGISTRY_H_
#define KBREPAIR_SERVICE_BASE_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "repair/kb_snapshot.h"
#include "service/metrics.h"
#include "service/resource_governor.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

class BaseRegistry : public std::enable_shared_from_this<BaseRegistry> {
 public:
  // RAII refcount on one registered base. Movable; releases on
  // destruction. Holds the registry alive, so a handle can safely
  // outlive the manager that acquired it.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept;
    Handle& operator=(Handle&& other) noexcept;
    ~Handle();
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    explicit operator bool() const { return snapshot_ != nullptr; }
    const std::string& name() const { return name_; }
    const std::shared_ptr<const SharedKbSnapshot>& snapshot() const {
      return snapshot_;
    }
    void Release();

   private:
    friend class BaseRegistry;
    Handle(std::shared_ptr<BaseRegistry> registry, std::string name,
           std::shared_ptr<const SharedKbSnapshot> snapshot)
        : registry_(std::move(registry)),
          name_(std::move(name)),
          snapshot_(std::move(snapshot)) {}

    std::shared_ptr<BaseRegistry> registry_;
    std::string name_;
    std::shared_ptr<const SharedKbSnapshot> snapshot_;
  };

  // `log_dir`: directory for bases.jsonl (empty = in-memory only).
  explicit BaseRegistry(std::string log_dir = "");

  // Builds the KB named by `params` (same source fields as `create`:
  // kb/kb_dlgp/kb_seed/...) under params["name"], snapshots it and
  // registers the snapshot. Returns the base's info JSON.
  StatusOr<JsonValue> Register(const JsonValue& params);

  // Refcounted acquisition; NotFound for unknown names.
  StatusOr<Handle> Acquire(const std::string& name);

  // {"bases":[{name, kb, hash, facts, bytes, refcount, forks, ...}]}.
  JsonValue ListJson();

  // Evicts orphaned (refcount-0) bases idle longer than `ttl_seconds`.
  // Returns how many were evicted. No-op for ttl <= 0.
  size_t SweepExpired(double ttl_seconds);

  // Replays <log_dir>/bases.jsonl, rebuilding every still-live base.
  // Bases whose rebuilt hash mismatches the recorded one are dropped
  // with an error log (their sessions will fail recovery and be
  // quarantined). The log is compacted to the survivors.
  Status RecoverFromLog();

  // Points the registry's gauges (bases_registered, base_rss_bytes) at
  // `metrics` and seeds them with the current state. Attach exactly one
  // metrics sink (shard 0 in a sharded daemon) or aggregation would
  // double-count.
  void AttachMetrics(ServiceMetrics* metrics);

  // Reports the registry's resident-byte total to the memory governor
  // whenever it changes, so shared bases count against --mem-budget.
  void AttachGovernor(std::shared_ptr<ResourceGovernor> governor);

  // Introspection for tests.
  size_t NumBases();
  uint64_t RefCount(const std::string& name);
  bool Has(const std::string& name);
  StatusOr<uint64_t> ContentHash(const std::string& name);

 private:
  struct Entry {
    std::shared_ptr<const SharedKbSnapshot> snapshot;
    JsonValue params;
    uint64_t refcount = 0;
    uint64_t forks = 0;
    // Eviction clock: last time the base became (or stayed) orphaned.
    std::chrono::steady_clock::time_point last_release;
  };

  void ReleaseLocked(const std::string& name);
  void UpdateGaugesLocked();
  std::string LogPath() const;
  // Appends one fsync'd line to bases.jsonl (under mu_). Ok when no
  // log_dir. A write that fails part-way is cut back off the log, or
  // the log is rewritten as the live set when the cut fails.
  Status AppendLogRecord(const JsonValue& record);
  // Rewrites the log as the live set (atomic replace).
  Status CompactLogLocked();

  friend class Handle;
  void Release(const std::string& name);

  const std::string log_dir_;
  std::mutex mu_;
  // Ordered so ListJson and the compacted log are deterministic.
  std::map<std::string, Entry> bases_;
  ServiceMetrics* metrics_ = nullptr;
  std::shared_ptr<ResourceGovernor> governor_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_BASE_REGISTRY_H_
