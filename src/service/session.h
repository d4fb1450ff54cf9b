// One managed repair session: a knowledge base plus a suspended inquiry
// dialogue, driven one protocol command at a time.
//
// A RepairSession owns its KnowledgeBase (and thus its symbol table), so
// sessions share no mutable state and can run on different workers
// concurrently. Within one session, the SessionManager serializes
// command execution — handlers here assume single-threaded access.
// Durability and accounting are the owning SessionShard's: it logs each
// accepted command through the LogBeforeExecute hook and meters Totals.

#ifndef KBREPAIR_SERVICE_SESSION_H_
#define KBREPAIR_SERVICE_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "rules/knowledge_base.h"
#include "service/base_registry.h"
#include "service/protocol.h"
#include "util/cancel.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

struct WalRecovery;  // service/wal.h

// Parses a `create` request's KB source:
//   "kb": "durum_wheat_v1" | "durum_wheat_v2" | "synthetic"
//         (synthetic honours kb_seed, num_facts, num_cdds,
//          inconsistency_ratio, and the full generator surface:
//          num_tgds, conflict_depth, routed_violation_share,
//          cdd_min_atoms, cdd_max_atoms, min_arity, max_arity,
//          min_multiplicity, max_multiplicity — so a WAL create record
//          alone reconstructs any harness KB bit-for-bit), or
//   "kb_dlgp": inline DLGP text.
// The KB is validated (weak acyclicity etc.) before use. `label` gets a
// short description for status/metrics output.
StatusOr<KnowledgeBase> BuildKbFromParams(const JsonValue& params,
                                          std::string* label);

// Parses strategy/seed/two_phase/max_questions/engine/chase_threads/
// record_convergence ("off" | "total" | "discovered") from `create`
// params. "engine" may be absent or "incremental"; anything else
// (including the retired "scratch") is InvalidArgument. "chase_threads"
// must be in [1, 64] and is otherwise ignored.
StatusOr<InquiryOptions> InquiryOptionsFromParams(const JsonValue& params);

// The harnesses' oracle: the repair an in-process engine reaches on a
// `create`'s params (BuildKbFromParams + InquiryOptionsFromParams) when
// RandomUser(answer_seed) answers every question, rendered one fact
// per string. A service dialogue answered with the same seeded draws
// closes on exactly these facts (Prop. 4.8: the inquiry is a function
// of the KB, the options and the chosen fixes).
StatusOr<std::vector<std::string>> OracleFacts(const JsonValue& params,
                                               uint64_t answer_seed);

// ReplayRecordedEntry on entry `n` of a WAL recording, with a
// divergence turned into an Internal error naming the entry's WAL record
// index and byte offset (WalEntryWhere). The replay step of crash
// recovery and of kbrepair-debug's timeline.
StatusOr<EntryReplay> ReplayWalStep(InquiryEngine& engine,
                                    const WalRecovery& recording, size_t n);

class RepairSession {
 public:
  // Makes an accepted command durable before it executes: the owning
  // shard's WAL append of `record`. A non-OK status rejects the command
  // with the dialogue untouched, so the client may retry it. Empty when
  // the session has no log.
  using LogBeforeExecute = std::function<Status(const JsonValue& record)>;

  // Dialogue totals over the session's life, which the owning shard
  // meters by difference after every command. Replayed answers are not
  // counted: they were metered by the process that served them.
  struct Totals {
    size_t questions_served = 0;  // distinct questions handed out by `ask`
    size_t answers_applied = 0;
    size_t engine_rebuilds = 0;   // conflict engines dropped and rebuilt
  };

  // Opens a session and starts its dialogue (Π-repairability check +
  // initial conflict census). Without `base` the KB is built privately
  // from `params` (BuildKbFromParams); with it, the KB is forked from
  // the registered snapshot in O(delta) — shared symbol/fact segments,
  // adopted repairability verdict and conflict censuses — and the
  // handle's refcount keeps the base alive for the session's lifetime.
  // Fails without side effects on bad params or an unrepairable KB. A
  // positive `deadline_ms` bounds the initial census (DeadlineExceeded
  // past it).
  static StatusOr<std::unique_ptr<RepairSession>> Open(
      std::string id, const JsonValue& params, BaseRegistry::Handle base = {},
      int64_t deadline_ms = 0);

  // Crash recovery, on a session just opened from the recording's create
  // params: replays every recorded answer through the engine with
  // ReplayWalStep (fsync ghosts skipped). The engine is
  // deterministic given (params, answers), so the recovered session is
  // byte-identical to the lost one; an entry that does not replay
  // returns an error naming its WAL record index and byte offset, and
  // the WAL is left for inspection. Runs without a per-command
  // deadline: it is N commands' worth of work by construction.
  Status Replay(const WalRecovery& recording);

  // Per-command deadline plumbing (shard-driven). Arming with a
  // non-positive budget is a no-op.
  void ArmDeadline(int64_t budget_ms);
  void DisarmDeadline();

  const std::string& id() const { return id_; }
  Strategy strategy() const { return options_.strategy; }

  // `ask`: the pending question (generating it if necessary), or
  // {"done":true} once consistent. Idempotent between answers.
  StatusOr<JsonValue> Ask();

  // `answer`: applies params["choice"], records the transcript entry.
  // `log` receives the answer's WAL record once the choice is validated
  // and before the engine moves.
  StatusOr<JsonValue> Answer(const JsonValue& params,
                             const LogBeforeExecute& log);

  // `status`: cheap introspection; never advances the dialogue.
  JsonValue StatusInfo() const;

  // `snapshot`: transcript JSON + current working facts.
  StatusOr<JsonValue> Snapshot() const;

  // `close`: finalizes the inquiry and reports totals; with
  // params["include_facts"] the repaired fact base rides along. `log`
  // receives the close record before the inquiry is finalized.
  StatusOr<JsonValue> Close(const JsonValue& params,
                            const LogBeforeExecute& log);

  // Transcript + identity, written to disk by the owning shard when the
  // session retires (when a transcript directory is configured).
  JsonValue TranscriptJson() const;

  Totals totals() const;

  // Engine delay of the latest answered question (Prop. 4.10). Valid
  // right after a successful Answer.
  double last_turn_delay_seconds() const;

  // Rough resident-byte estimate for the memory governor: working
  // overlay atoms + provenance and transcript entries, plus a fixed
  // per-session overhead. Deliberately cheap (a few size() reads) — it
  // runs after every session command.
  int64_t EstimateMemoryBytes() const;

 private:
  RepairSession(std::string id, std::string kb_label,
                BaseRegistry::Handle base, KnowledgeBase kb,
                InquiryOptions options);

  std::string id_;
  std::string kb_label_;
  // Refcount on the shared base this session forked from (empty for
  // private-KB sessions). Declared before kb_ so it outlives the fork —
  // kb_ shares segments the snapshot owns.
  BaseRegistry::Handle base_;
  KnowledgeBase kb_;
  InquiryOptions options_;
  // Shared with options_.chase_options so every chase the engine runs
  // honours the armed deadline.
  std::shared_ptr<CancelToken> cancel_;
  // Constructed after kb_ reaches its final address (the engine keeps a
  // KnowledgeBase*).
  std::unique_ptr<InquiryEngine> engine_;
  SessionTranscript transcript_;
  // engine_rebuilds is the engine's own count until Close, then the
  // finished inquiry's.
  Totals totals_;
  bool question_outstanding_ = false;  // served but not yet answered
  bool closed_ = false;
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_SESSION_H_
