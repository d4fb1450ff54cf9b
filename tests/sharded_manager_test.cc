// SessionManager: routing stability, per-shard WAL layout,
// recovery across shard-count changes, and aggregate metrics.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "service/session_manager.h"
#include "support/temp_dir.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

JsonValue CreateParams(uint64_t seed, const std::string& strategy = "random",
                       const std::string& engine = "") {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(static_cast<int64_t>(30)));
  params.Set("strategy", JsonValue::String(strategy));
  if (!engine.empty()) params.Set("engine", JsonValue::String(engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

ServiceRequest MakeRequest(JsonValue params) {
  ServiceRequest request;
  request.command = params.Get("command").AsString();
  request.session_id = params.Get("session").AsString();
  request.params = std::move(params);
  return request;
}

ServiceRequest SessionCommand(const std::string& command,
                              const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return MakeRequest(std::move(params));
}

// ------------------------------------------------------------------
// Routing.

TEST(ShardRoutingTest, MatchesReferenceFnv1a64) {
  // An independent spelling of FNV-1a 64: shard ownership is a durable
  // on-disk contract (WAL placement), so the hash must never drift.
  const auto reference = [](const std::string& id, size_t shards) {
    uint64_t h = 14695981039346656037ull;
    for (char c : id) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return static_cast<size_t>(h % shards);
  };
  for (uint64_t n = 1; n <= 2000; ++n) {
    const std::string id = "s-" + std::to_string(n);
    for (size_t shards : {2u, 3u, 4u, 8u}) {
      EXPECT_EQ(SessionManager::ShardForSession(id, shards),
                reference(id, shards))
          << id << " over " << shards << " shards";
    }
  }
}

TEST(ShardRoutingTest, SingleShardAlwaysRoutesToZero) {
  EXPECT_EQ(SessionManager::ShardForSession("s-1", 1), 0u);
  EXPECT_EQ(SessionManager::ShardForSession("anything", 0), 0u);
}

TEST(ShardRoutingTest, SpreadsSessionsAcrossAllShards) {
  // Not a statistical claim, just an anti-degeneracy check: 1000
  // consecutive ids must not starve any of 4 shards.
  std::vector<size_t> counts(4, 0);
  for (uint64_t n = 1; n <= 1000; ++n) {
    ++counts[SessionManager::ShardForSession(
        "s-" + std::to_string(n), counts.size())];
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], 100u) << "shard " << i << " starved";
  }
}

TEST(ShardRoutingTest, WalDirLayout) {
  EXPECT_EQ(SessionManager::ShardWalDir("/w", 0, 1), "/w");
  EXPECT_EQ(SessionManager::ShardWalDir("/w", 2, 4), "/w/shard-2");
}

// ------------------------------------------------------------------
// Behavior through the front-end.

TEST(ShardedManagerTest, CreatesGloballyUniqueIdsAcrossShards) {
  ServiceConfig config;
  config.num_shards = 4;
  config.num_workers = 1;
  SessionManager manager(config);
  std::set<std::string> ids;
  std::set<size_t> shards_hit;
  for (uint64_t i = 0; i < 16; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(CreateParams(100 + i)));
    ASSERT_TRUE(created.ok()) << created.status();
    const std::string id = created->Get("session").AsString();
    EXPECT_TRUE(ids.insert(id).second) << "duplicate session id " << id;
    shards_hit.insert(SessionManager::ShardForSession(id, 4));
    // The owning shard answers this session's commands.
    StatusOr<JsonValue> status =
        manager.Execute(SessionCommand("status", id));
    EXPECT_TRUE(status.ok()) << status.status();
  }
  EXPECT_EQ(ids.size(), 16u);
  EXPECT_GT(shards_hit.size(), 1u)
      << "16 sessions all hashed to one shard — routing is degenerate";
  // The id counter is front-end-global: ids are s-1..s-16 regardless of
  // which shard owns each (byte-compatible with the unsharded daemon).
  for (uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(ids.count("s-" + std::to_string(n)), 1u);
  }
  manager.Shutdown();
}

TEST(ShardedManagerTest, UnknownSessionIsNotFoundOnItsOwningShard) {
  ServiceConfig config;
  config.num_shards = 3;
  config.num_workers = 1;
  SessionManager manager(config);
  StatusOr<JsonValue> missing =
      manager.Execute(SessionCommand("status", "s-404"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status();
  manager.Shutdown();
}

// `reply` without its wall-clock fields (the close summary's timings).
JsonValue WithoutTimings(const JsonValue& reply) {
  if (!reply.is_object()) return reply;
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : reply.members()) {
    if (key != "total_seconds" && key != "mean_delay_ms") out.Set(key, value);
  }
  return out;
}

// Every reply of one whole dialogue (create, the ask/answer turns,
// status, snapshot, close with facts), in order, timings dropped.
std::vector<std::string> DialogueReplies(size_t num_shards) {
  ServiceConfig config;
  config.num_shards = num_shards;
  config.num_workers = 1;
  SessionManager manager(config);
  std::vector<std::string> replies;
  auto run = [&](ServiceRequest request) {
    StatusOr<JsonValue> reply = manager.Execute(std::move(request));
    EXPECT_TRUE(reply.ok()) << reply.status();
    replies.push_back(reply.ok() ? WithoutTimings(*reply).Dump()
                                 : reply.status().ToString());
    return reply.ok() ? *reply : JsonValue::Object();
  };
  const std::string id =
      run(MakeRequest(CreateParams(7, "opti-mcd", "incremental")))
          .Get("session")
          .AsString();
  Rng rng(7);
  for (int turn = 0; turn < 10000; ++turn) {
    const JsonValue asked = run(SessionCommand("ask", id));
    if (asked.Get("done").AsBool(true)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(1);
    ServiceRequest answer = SessionCommand("answer", id);
    answer.params.Set("choice", JsonValue::Number(static_cast<int64_t>(
                                    rng.UniformIndex(
                                        static_cast<size_t>(num_fixes)))));
    run(std::move(answer));
  }
  run(SessionCommand("status", id));
  run(SessionCommand("snapshot", id));
  ServiceRequest close = SessionCommand("close", id);
  close.params.Set("include_facts", JsonValue::Bool(true));
  run(std::move(close));
  manager.Shutdown();
  return replies;
}

TEST(ShardedManagerTest, DialogueRepliesAreByteIdenticalAtOneAndThreeShards) {
  const std::vector<std::string> one = DialogueReplies(1);
  const std::vector<std::string> three = DialogueReplies(3);
  ASSERT_GT(one.size(), 4u) << "the dialogue asked no question";
  ASSERT_EQ(one.size(), three.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], three[i]) << "reply " << i;
  }
}

// Every key path in `value`; array elements share one "[]" path, so
// the length of an array (one row per shard) does not matter.
void CollectKeys(const JsonValue& value, const std::string& path,
                 std::set<std::string>* keys) {
  if (value.is_object()) {
    for (const auto& [key, child] : value.members()) {
      keys->insert(path + "." + key);
      CollectKeys(child, path + "." + key, keys);
    }
  } else if (value.is_array()) {
    for (size_t i = 0; i < value.size(); ++i) {
      CollectKeys(value.at(i), path + "[]", keys);
    }
  }
}

struct ReplyShape {
  std::set<std::string> metrics;
  std::set<std::string> statusz;
};

ReplyShape ShapeAt(size_t num_shards) {
  ServiceConfig config;
  config.num_shards = num_shards;
  config.num_workers = 1;
  SessionManager manager(config);
  JsonValue metrics_request = JsonValue::Object();
  metrics_request.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_request)));
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  ReplyShape shape;
  if (metrics.ok()) CollectKeys(*metrics, "", &shape.metrics);
  CollectKeys(manager.StatuszJson(), "", &shape.statusz);
  manager.Shutdown();
  return shape;
}

TEST(ShardedManagerTest, MetricsAndStatuszHaveOneShapeAtEveryShardCount) {
  const ReplyShape one = ShapeAt(1);
  const ReplyShape two = ShapeAt(2);
  EXPECT_EQ(one.metrics, two.metrics);
  EXPECT_EQ(one.statusz, two.statusz);
  for (const ReplyShape* shape : {&one, &two}) {
    // The fields perfbench reads from the `metrics` reply.
    for (const char* key :
         {".queue_wait.count", ".queue_wait.mean_ms",
          ".traffic.rejected_commands", ".durability.wal_appends",
          ".service.shards", ".per_shard[].requests_total"}) {
      EXPECT_EQ(shape->metrics.count(key), 1u) << key;
    }
    for (const char* key : {".sessions_active", ".readiness_causes",
                            ".shard[].sessions", ".shard[].queue_depth"}) {
      EXPECT_EQ(shape->statusz.count(key), 1u) << key;
    }
  }
}

TEST(ShardedManagerTest, AggregateMetricsKeepSingleShardShape) {
  ServiceConfig config;
  config.num_shards = 4;
  config.num_workers = 1;
  SessionManager manager(config);
  const size_t kSessions = 12;
  for (uint64_t i = 0; i < kSessions; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(CreateParams(200 + i)));
    ASSERT_TRUE(created.ok()) << created.status();
    JsonValue close = JsonValue::Object();
    close.Set("command", JsonValue::String("close"));
    close.Set("session", created->Get("session"));
    ASSERT_TRUE(manager.Execute(MakeRequest(std::move(close))).ok());
  }
  JsonValue metrics_request = JsonValue::Object();
  metrics_request.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_request)));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // Aggregate section: identical shape to the unsharded daemon, with
  // sums over the shards.
  const JsonValue& sessions = metrics->Get("sessions");
  EXPECT_EQ(sessions.Get("opened").AsInt(-1),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("completed").AsInt(-1),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("active").AsInt(-1), 0);
  EXPECT_EQ(metrics->Get("service").Get("shards").AsInt(0), 4);
  // Per-shard rows: present, one per shard, opened sums to the total.
  const JsonValue& per_shard = metrics->Get("per_shard");
  ASSERT_TRUE(per_shard.is_array());
  ASSERT_EQ(per_shard.size(), 4u);
  int64_t opened_sum = 0;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_EQ(per_shard.at(i).Get("shard").AsInt(-1),
              static_cast<int64_t>(i));
    opened_sum += per_shard.at(i).Get("sessions_opened").AsInt(0);
  }
  EXPECT_EQ(opened_sum, static_cast<int64_t>(kSessions));

  // The exposition gains the shard="i" series only when sharded.
  std::string text;
  manager.AppendMetricsText(&text);
  EXPECT_NE(text.find("kbrepair_shard_sessions_opened_total{shard=\"0\"}"),
            std::string::npos);
  manager.Shutdown();
}

// ------------------------------------------------------------------
// WAL layout and recovery across shard-count changes.

// Creates `count` WAL-backed sessions mid-dialogue (created, one
// question asked, never closed) and returns their ids.
std::vector<std::string> StartInterruptedSessions(const std::string& wal_root,
                                                  size_t num_shards,
                                                  size_t count) {
  ServiceConfig config;
  config.num_shards = num_shards;
  config.num_workers = 1;
  config.wal_dir = wal_root;
  SessionManager manager(config);
  std::vector<std::string> ids;
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(CreateParams(300 + i)));
    EXPECT_TRUE(created.ok()) << created.status();
    const std::string id = created->Get("session").AsString();
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", id));
    EXPECT_TRUE(asked.ok()) << asked.status();
    ids.push_back(id);
  }
  manager.Shutdown();  // "crash": WALs stay behind
  return ids;
}

void ExpectAllRecovered(const std::string& wal_root, size_t num_shards,
                        const std::vector<std::string>& ids) {
  ServiceConfig config;
  config.num_shards = num_shards;
  config.num_workers = 1;
  config.wal_dir = wal_root;
  config.recover = true;
  SessionManager manager(config);
  for (const std::string& id : ids) {
    SCOPED_TRACE("session " + id + " with " + std::to_string(num_shards) +
                 " shards");
    StatusOr<JsonValue> status = manager.Execute(SessionCommand("status", id));
    EXPECT_TRUE(status.ok()) << status.status();
    // The WAL landed in the directory the id now hashes to.
    const std::string wal =
        SessionManager::ShardWalDir(
            wal_root,
            SessionManager::ShardForSession(id, num_shards),
            num_shards) +
        "/" + id + ".wal";
    struct stat st{};
    EXPECT_EQ(::stat(wal.c_str(), &st), 0) << wal << " missing";
  }
  // New ids continue past the recovered ones instead of colliding.
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(999)));
  ASSERT_TRUE(created.ok()) << created.status();
  for (const std::string& id : ids) {
    EXPECT_NE(created->Get("session").AsString(), id);
  }
  manager.Shutdown();
}

TEST(ShardedRecoveryTest, SameShardCount) {
  TempDir wal("kbrepair_shard_");
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 2, 6);
  ASSERT_EQ(ids.size(), 6u);
  ExpectAllRecovered(wal.path, 2, ids);
}

TEST(ShardedRecoveryTest, ScaleUpRebalancesWals) {
  TempDir wal("kbrepair_shard_");
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 2, 6);
  ExpectAllRecovered(wal.path, 4, ids);
}

TEST(ShardedRecoveryTest, ScaleDownToSingleShardUsesRootLayout) {
  TempDir wal("kbrepair_shard_");
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 3, 6);
  ExpectAllRecovered(wal.path, 1, ids);
}

TEST(ShardedRecoveryTest, UnshardedWalsMoveIntoShardDirs) {
  TempDir wal("kbrepair_shard_");
  // The pre-sharding layout: WALs directly in the root.
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 1, 6);
  ExpectAllRecovered(wal.path, 4, ids);
}

}  // namespace
}  // namespace kbrepair
