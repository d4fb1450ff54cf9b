// kbrepaird's numeric flags are strict: the whole token must be a
// decimal number inside the flag's range, or the daemon exits 2 with
// usage during argument parsing — before a single thread starts. The
// regressions covered: non-numeric values silently becoming 0 (one
// worker, an ephemeral port, idle eviction switched off by a malformed
// `--ttl-seconds`), `--mem-budget` multiplications that overflowed into
// "unlimited" or wrapped to a small budget, and an unbounded `--shards`.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "service/daemon_client.h"

namespace kbrepair {
namespace {

#ifdef KBREPAIRD_PATH

// Runs the daemon with `args` (stdin, stdout and stderr on /dev/null)
// and returns its exit status, or -1 if it did not exit on its own
// within 10 s.
int RunDaemon(const std::vector<std::string>& args) {
  std::vector<std::string> argv = {KBREPAIRD_PATH};
  argv.insert(argv.end(), args.begin(), args.end());
  client::Daemon daemon;
  if (!daemon.Start(argv, client::Stdio::kSilent).ok()) return -1;
  return daemon.WaitFor(std::chrono::seconds(10));
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
      {"--wal-compact-every", "0"},
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

#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
