// Thread-count invariance of the wave-based chase: the saturation's
// Phase A (trigger enumeration) fans out across a worker pool, but
// Phase B merges in deterministic slot order — so atom ids, fresh-null
// names, provenance, violations and whole dialogues must be
// byte-identical for every --chase-threads value, including 1.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "chase/wave.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/inquiry.h"
#include "repair/question.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

SyntheticKbOptions KbOptions(uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 80;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.num_tgds = 6;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.5;
  return options;
}

// Renders the chased base + provenance + violation of one run. Each
// run generates its own KB (independent symbol table), so string
// rendering is the cross-run-comparable form; a deterministic chase
// mints nulls in the same order, making even null names line up.
std::string RenderRun(uint64_t seed, size_t num_threads, bool with_cdds) {
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(KbOptions(seed));
  EXPECT_TRUE(gen.ok()) << gen.status();
  KnowledgeBase& kb = gen->kb;
  ChaseOptions options;
  options.num_threads = num_threads;
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), options,
                          with_cdds ? &kb.cdds() : nullptr);
  const Status status = chased.Initialize(kb.facts());
  EXPECT_TRUE(status.ok()) << status;
  std::string out;
  for (AtomId id = 0; id < chased.facts().size(); ++id) {
    out += std::to_string(id) + ":" +
           chased.facts().atom(id).ToString(kb.symbols());
    if (!chased.IsOriginal(id)) {
      const Derivation& d = *chased.derivation_or_null(id);
      out += "<-tgd" + std::to_string(d.tgd_index) + "(";
      for (AtomId parent : d.parents) {
        out += std::to_string(parent) + ",";
      }
      out += ")";
    }
    out += "\n";
  }
  if (chased.violation().has_value()) {
    out += "violation:cdd" + std::to_string(chased.violation()->cdd_index);
    for (AtomId m : chased.violation()->matched) {
      out += ",";
      out += std::to_string(m);
    }
    out += "\n";
  }
  return out;
}

// The CDD-free full chase, then a separate CDD-checking run that stops
// at the first violation.
std::string ChaseFingerprint(uint64_t seed, size_t num_threads) {
  return RenderRun(seed, num_threads, /*with_cdds=*/false) + "--\n" +
         RenderRun(seed, num_threads, /*with_cdds=*/true);
}

TEST(ParallelChaseTest, SaturationIsThreadCountInvariant) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string baseline = ChaseFingerprint(seed, 1);
    EXPECT_FALSE(baseline.empty());
    for (size_t threads : {2u, 4u}) {
      EXPECT_EQ(baseline, ChaseFingerprint(seed, threads))
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelChaseTest, ExistentialNullsAreThreadCountInvariant) {
  // Existential rules mint fresh nulls; the mint order (hence every
  // null's name) is fixed by Phase B slot order regardless of threads.
  auto fingerprint = [](size_t num_threads) {
    KnowledgeBase kb = Parse(R"(
      emp(alice). emp(bob). emp(carol).
      dept(X, D) :- emp(X).
      located(D, S) :- dept(X, D).
    )");
    ChaseOptions options;
    options.num_threads = num_threads;
    IncrementalChase chased(&kb.symbols(), &kb.tgds(), options);
    const Status status = chased.Initialize(kb.facts());
    EXPECT_TRUE(status.ok()) << status;
    std::string out;
    for (AtomId id = 0; id < chased.facts().size(); ++id) {
      out += chased.facts().atom(id).ToString(kb.symbols()) + "\n";
    }
    return out;
  };
  const std::string baseline = fingerprint(1);
  EXPECT_EQ(baseline, fingerprint(2));
  EXPECT_EQ(baseline, fingerprint(4));
}

// One full dialogue's observable transcript, rendered to strings.
std::string DialogueTranscript(uint64_t seed, size_t num_threads,
                               bool two_phase) {
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(KbOptions(seed));
  EXPECT_TRUE(gen.ok()) << gen.status();
  KnowledgeBase& kb = gen->kb;

  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.seed = seed * 17 + 3;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;
  options.two_phase = two_phase;
  options.chase_options.num_threads = num_threads;

  InquiryEngine engine(&kb, options);
  EXPECT_TRUE(engine.Begin().ok());
  std::string out;
  Rng chooser(seed * 101 + 13);
  while (true) {
    StatusOr<const Question*> question = engine.NextQuestion();
    EXPECT_TRUE(question.ok()) << question.status();
    if (!question.ok() || *question == nullptr) break;
    out += "q:cdd" + std::to_string((*question)->source_cdd);
    for (const Fix& fix : (*question)->fixes) {
      const std::string atom = std::to_string(fix.atom);
      out += " " + atom + "/" + std::to_string(fix.arg) + "=" +
             kb.symbols().term_name(fix.value);
    }
    out += "\n";
    const size_t choice = chooser.UniformIndex((*question)->fixes.size());
    EXPECT_TRUE(engine.Answer(choice).ok());
    out += "census:" +
           std::to_string(engine.progress().records.back().conflicts_remaining) +
           "\n";
  }
  StatusOr<InquiryResult> result = engine.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok()) {
    for (AtomId id = 0; id < result->facts.size(); ++id) {
      out += result->facts.atom(id).ToString(kb.symbols()) + "\n";
    }
  }
  return out;
}

TEST(ParallelChaseTest, DialoguesAreThreadCountInvariant) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool two_phase : {true, false}) {
      const std::string baseline = DialogueTranscript(seed, 1, two_phase);
      EXPECT_FALSE(baseline.empty());
      EXPECT_EQ(baseline, DialogueTranscript(seed, 4, two_phase))
          << "seed " << seed;
    }
  }
}

TEST(ParallelChaseTest, ThreadPoolCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](size_t i, size_t worker) {
      EXPECT_LT(worker, 4u);
      hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ParallelChaseTest, WaveExecutorSlotArenaIsolation) {
  // Every slot writes a value through its worker's arena; all spans must
  // survive until ResetArenas and hold the slot's own data.
  WaveExecutor exec(4);
  const size_t n = 200;
  std::vector<ArenaSpan<uint32_t>> spans(n);
  exec.ForEachSlot(n, [&](size_t slot, Arena& arena) {
    uint32_t payload[3] = {static_cast<uint32_t>(slot),
                           static_cast<uint32_t>(slot * 2),
                           static_cast<uint32_t>(slot * 3)};
    spans[slot] = arena.Copy(payload, 3);
  });
  for (size_t slot = 0; slot < n; ++slot) {
    ASSERT_EQ(spans[slot].size(), 3u);
    EXPECT_EQ(spans[slot][0], slot);
    EXPECT_EQ(spans[slot][1], slot * 2);
    EXPECT_EQ(spans[slot][2], slot * 3);
  }
  exec.ResetArenas();
}

}  // namespace
}  // namespace kbrepair
