// The numeric flags of kbrepaird, kbrepair-client and kbrepair-debug
// are strict: the whole token must be a decimal number inside the
// flag's range, or the tool exits 2 with usage during argument parsing
// — before a single thread starts or a process is spawned. The
// regressions covered: non-numeric values silently becoming 0 (one
// worker, an ephemeral port, idle eviction switched off by a malformed
// `--ttl-seconds`, a client run of one session that reported OK, a
// debugger with its checkpoint ladder off), `--mem-budget`
// multiplications that overflowed into "unlimited" or wrapped to a
// small budget, and an unbounded `--shards`.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <chrono>
#include <string>
#include <vector>

#include "service/daemon_client.h"
#include "support/temp_dir.h"

namespace kbrepair {
namespace {

#ifdef KBREPAIRD_PATH

// Runs the binary at `path` with `args` (stdin, stdout and stderr on
// /dev/null) and returns its exit status, or -1 if it did not exit on
// its own within 10 s.
int RunTool(const char* path, const std::vector<std::string>& args) {
  std::vector<std::string> argv = {path};
  argv.insert(argv.end(), args.begin(), args.end());
  client::Daemon daemon;
  if (!daemon.Start(argv, client::Stdio::kSilent).ok()) return -1;
  return daemon.WaitFor(std::chrono::seconds(10));
}

int RunDaemon(const std::vector<std::string>& args) {
  return RunTool(KBREPAIRD_PATH, args);
}

TEST(KbrepairdFlagsTest, MalformedOrOutOfRangeIntegersExitWithUsage) {
  const std::vector<std::vector<std::string>> bad = {
      {"--workers", "abc"},
      {"--workers", "0"},
      {"--workers", "257"},
      {"--workers", "4x"},
      {"--workers", "-1"},
      {"--workers", " 4"},
      {"--workers", ""},
      {"--max-queue", "abc"},
      {"--max-queue", "0"},
      {"--shards", "abc"},
      {"--shards", "0"},
      {"--shards", "65"},
      {"--shards", "99999999999999999999"},
      {"--chase-threads", "65"},
      {"--chase-threads", "2x"},
      {"--deadline-ms", "soon"},
      {"--listen-tcp", "abc"},
      {"--listen-tcp", "65536"},
      {"--http-port", "abc"},
      {"--http-port", "-1"},
      {"--http-port", "70000"},
      {"--mem-budget", "99999999999G"},
      {"--mem-budget", "17179869185G"},
      {"--mem-budget", "9223372036854775808"},
      {"--mem-budget", "12Q"},
      {"--mem-budget", "G"},
      {"--mem-budget", "-1"},
      {"--ttl-seconds", "abc"},
      {"--ttl-seconds", "-1"},
      {"--ttl-seconds", "nan"},
      {"--ttl-seconds", "inf"},
      {"--ttl-seconds", "1e999"},
      {"--ttl-seconds", "5x"},
      {"--workers"},
  };
  for (const std::vector<std::string>& args : bad) {
    std::string shown;
    for (const std::string& arg : args) shown += " '" + arg + "'";
    EXPECT_EQ(RunDaemon(args), 2) << "kbrepaird" << shown;
  }
}

TEST(KbrepairdFlagsTest, RangeBoundsAreAccepted) {
  // --help exits 0 right after parsing, so the largest accepted values
  // are checked without starting a thread.
  EXPECT_EQ(RunDaemon({"--shards", "64", "--workers", "256", "--max-queue",
                       "16777216", "--http-port", "65535", "--listen-tcp",
                       "0", "--mem-budget", "8589934591G", "--deadline-ms",
                       "0", "--help"}),
            0);
  EXPECT_EQ(RunDaemon({"--ttl-seconds", "0", "--help"}), 0);
  EXPECT_EQ(RunDaemon({"--ttl-seconds", "2.5", "--help"}), 0);
}

TEST(KbrepairdFlagsTest, RemovedFlagsAreUnknown) {
  // WALs are append-only, so there is no compaction knob: its old
  // default value is refused like any unknown flag.
  EXPECT_EQ(RunDaemon({"--wal-compact-every", "64", "--help"}), 2);
}

// The client rejects these before it spawns anything; `--server` names
// no binary, so a value that slipped through fails the spawn (exit 1)
// instead of starting a daemon.
int RunClient(std::vector<std::string> args) {
  args.insert(args.begin(), {"--server", "/nonexistent/kbrepaird"});
  return RunTool(KBREPAIR_CLIENT_PATH, args);
}

TEST(KbrepairClientFlagsTest, MalformedOrOutOfRangeIntegersExitWithUsage) {
  const std::vector<std::vector<std::string>> bad = {
      {"--sessions", "abc"},        {"--sessions", "0"},
      {"--sessions", "1025"},       {"--sessions", "4x"},
      {"--sessions", "-1"},         {"--workers", "x1"},
      {"--workers", "0"},           {"--workers", "257"},
      {"--connections", "abc"},     {"--connections", "65"},
      {"--shards", "0"},            {"--shards", "65"},
      {"--seed", "-1"},             {"--seed", "1x"},
      {"--seed", "99999999999999999999"},
      {"--retry-seed", "abc"},      {"--http-port", "abc"},
      {"--http-port", "70000"},     {"--scrape", "127.0.0.1:8x"},
      {"--scrape", "127.0.0.1:65536"},
  };
  for (const std::vector<std::string>& args : bad) {
    std::string shown;
    for (const std::string& arg : args) shown += " '" + arg + "'";
    EXPECT_EQ(RunClient(args), 2) << "kbrepair-client" << shown;
  }
  // A malformed retry seed in the environment is refused the same way.
  ::setenv("KBREPAIR_RETRY_SEED", "12abc", 1);
  EXPECT_EQ(RunClient({"--sessions", "1"}), 2) << "KBREPAIR_RETRY_SEED";
  ::unsetenv("KBREPAIR_RETRY_SEED");
}

TEST(KbrepairClientFlagsTest, RangeBoundsAreAccepted) {
  // --help exits 0 right after parsing.
  EXPECT_EQ(RunClient({"--sessions", "1024", "--connections", "64",
                       "--workers", "256", "--shards", "64", "--http-port",
                       "65535", "--seed", "9223372036854775807",
                       "--retry-seed", "0", "--help"}),
            0);
}

TEST(KbrepairDebugFlagsTest, MalformedCheckpointStrideExitsWithUsage) {
  // The directory holds no WAL, so an accepted stride ends in a clean
  // "no .wal files" exit 0.
  TempDir empty("kbrepair_flags_");
  for (const char* bad : {"abc", "8x", "-1", ""}) {
    EXPECT_EQ(RunTool(KBREPAIR_DEBUG_PATH,
                      {"--checkpoint-every", bad, empty.path}),
              2)
        << "--checkpoint-every '" << bad << "'";
  }
  EXPECT_EQ(RunTool(KBREPAIR_DEBUG_PATH,
                    {"--checkpoint-every", "0", empty.path}),
            0);
}

#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
