// End-to-end tracing smoke test (the CTest half of the ISSUE 4
// acceptance criterion): an in-process SessionManager with a trace sink
// drives three sessions through create/ask/answer/close; the `trace`
// command must return a well-formed span tree covering scheduler →
// session → inquiry → chase → WAL, the sink file must hold the same
// spans as parseable JSON lines, and `metrics` must report the
// random strategy label with coherent phase histograms.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "service/session_manager.h"
#include "support/temp_dir.h"
#include "util/json.h"
#include "util/trace.h"

namespace kbrepair {
namespace {

JsonValue CreateParams(uint64_t seed, const std::string& strategy,
                       int64_t num_facts = 40) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(num_facts));
  params.Set("strategy", JsonValue::String(strategy));
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

ServiceRequest AnswerCommand(const std::string& session, int64_t choice) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("answer"));
  params.Set("session", JsonValue::String(session));
  params.Set("choice", JsonValue::Number(choice));
  return MakeRequest(std::move(params));
}

// Drives one session for up to `turns` questions and closes it.
void DriveSession(SessionManager& manager, uint64_t seed, int turns) {
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(seed, "random")));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  for (int turn = 0; turn < turns; ++turn) {
    StatusOr<JsonValue> asked =
        manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_GE(asked->Get("question").Get("num_fixes").AsInt(0), 1);
    ASSERT_TRUE(manager.Execute(AnswerCommand(session, 0)).ok());
  }
  ASSERT_TRUE(manager.Execute(SessionCommand("close", session)).ok());
}

// Structural checks shared by the wire response and the sink file.
void CheckSpanTree(const std::vector<JsonValue>& spans, bool expect_wal) {
  ASSERT_FALSE(spans.empty());
  std::set<int64_t> ids;
  std::set<std::string> names;
  for (const JsonValue& span : spans) {
    const int64_t id = span.Get("id").AsInt(0);
    const int64_t parent = span.Get("parent").AsInt(-1);
    EXPECT_GT(id, 0);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate span id " << id;
    // Ids are creation-ordered, so parents always precede children.
    EXPECT_LT(parent, id);
    EXPECT_GE(parent, 0);
    EXPECT_FALSE(span.Get("name").AsString().empty());
    EXPECT_GE(span.Get("dur_us").AsInt(-1), 0);
    names.insert(span.Get("name").AsString());
  }
  // The request path must be covered end to end: scheduler-level rpc
  // spans, session execution, inquiry, and the chase underneath it.
  for (const char* required :
       {"rpc.create", "rpc.ask", "rpc.answer", "rpc.close", "session.ask",
        "session.answer", "session.close", "inquiry.next_question"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  EXPECT_TRUE(names.count("chase.saturate") ||
              names.count("chase.delta_saturate"))
      << "no chase span recorded";
  if (expect_wal) {
    EXPECT_TRUE(names.count("wal.append")) << "missing span: wal.append";
  }
}

void ExpectQuantilesCoherent(const JsonValue& histogram) {
  ASSERT_TRUE(histogram.is_object());
  EXPECT_GE(histogram.Get("count").AsInt(0), 1);
  const double p50 = histogram.Get("p50_ms").AsDouble(-1.0);
  const double p95 = histogram.Get("p95_ms").AsDouble(-1.0);
  const double max = histogram.Get("max_ms").AsDouble(-1.0);
  const double min = histogram.Get("min_ms").AsDouble(-1.0);
  EXPECT_GE(min, 0.0);
  EXPECT_LE(min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, max);
}

TEST(TraceServiceTest, ThreeSessionRunYieldsSpanTreeAndLabeledMetrics) {
  TempDir trace_dir("kbrepair_trace_svc_");
  TempDir wal_dir("kbrepair_trace_svc_");
  ServiceConfig config;
  config.num_workers = 2;
  config.trace_dir = trace_dir.path;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  ASSERT_TRUE(trace::Recorder::enabled());

  for (uint64_t seed : {101u, 202u, 303u}) {
    DriveSession(manager, seed, /*turns=*/4);
  }

  // --- the `trace` wire command drains to the sink and echoes spans.
  JsonValue trace_params = JsonValue::Object();
  trace_params.Set("command", JsonValue::String("trace"));
  trace_params.Set("limit", JsonValue::Number(static_cast<int64_t>(1 << 20)));
  StatusOr<JsonValue> traced = manager.Execute(MakeRequest(trace_params));
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_TRUE(traced->Get("enabled").AsBool(false));
  EXPECT_EQ(traced->Get("dropped").AsInt(-1), 0);
  const std::string file = traced->Get("file").AsString();
  ASSERT_FALSE(file.empty()) << "trace response carries no sink file";

  const JsonValue& span_array = traced->Get("spans");
  ASSERT_TRUE(span_array.is_array());
  std::vector<JsonValue> spans;
  for (size_t i = 0; i < span_array.size(); ++i) {
    spans.push_back(span_array.at(i));
  }
  EXPECT_EQ(static_cast<int64_t>(spans.size()),
            traced->Get("total_spans").AsInt(-1));
  CheckSpanTree(spans, /*expect_wal=*/true);

  // --- the sink file holds the same spans, one JSON object per line.
  std::ifstream sink(file);
  ASSERT_TRUE(sink.good()) << "cannot open " << file;
  std::vector<JsonValue> file_spans;
  std::string line;
  while (std::getline(sink, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    file_spans.push_back(std::move(*parsed));
  }
  EXPECT_EQ(file_spans.size(), spans.size());
  CheckSpanTree(file_spans, /*expect_wal=*/true);

  // --- metrics: the random strategy saw all three sessions, and
  // its phase histograms report coherent quantiles.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(metrics_params));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->Get("queue_wait").Get("count").AsInt(0), 1);

  const JsonValue& labeled =
      metrics->Get("by_strategy").Get("random");
  ASSERT_TRUE(labeled.is_object())
      << "metrics: " << metrics->Dump();
  EXPECT_EQ(labeled.Get("sessions").AsInt(-1), 3);
  EXPECT_GE(labeled.Get("questions").AsInt(0), 3);
  EXPECT_GE(labeled.Get("answers").AsInt(0), 3);
  ExpectQuantilesCoherent(labeled.Get("turn_delay"));
  // The random sessions must have spent attributable time in
  // the chase and conflict scan at least. Sessions chase only through
  // their maintained engines, so the chase time may be booked entirely
  // as delta chase.
  const JsonValue& chase_phase = labeled.Get("phase_chase").is_object()
                                     ? labeled.Get("phase_chase")
                                     : labeled.Get("phase_delta_chase");
  ExpectQuantilesCoherent(chase_phase);
  ExpectQuantilesCoherent(labeled.Get("phase_conflict_scan"));
  ExpectQuantilesCoherent(labeled.Get("phase_wal_append"));

  manager.Shutdown();
  trace::Recorder::Instance().Disable();
}

TEST(TraceServiceTest, TraceCommandReportsDisabledWithoutSink) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  ASSERT_FALSE(trace::Recorder::enabled());
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("trace"));
  StatusOr<JsonValue> traced = manager.Execute(MakeRequest(params));
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_FALSE(traced->Get("enabled").AsBool(true));
  EXPECT_TRUE(traced->Get("spans").is_array());
  EXPECT_EQ(traced->Get("spans").size(), 0u);
}

}  // namespace
}  // namespace kbrepair
