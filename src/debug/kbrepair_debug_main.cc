// kbrepair-debug: time-travel inspection of recorded repair sessions.
//
//   kbrepair-debug SESSION.wal                 interactive debugger
//   kbrepair-debug --exec "goto 5; census" SESSION.wal
//   kbrepair-debug --replay-verify WALDIR...   verify byte-identical replay
//   kbrepair-debug --diff-engines SESSION.wal  first census/replay split
//
// Exit codes: 0 all recordings verified / no divergence / repl clean,
// 1 a verification failure, divergence, or failed command, 2 usage.

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "debug/repl.h"
#include "debug/timeline.h"
#include "util/failpoint.h"
#include "util/flags.h"

namespace kbrepair {
namespace debug {
namespace {

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] SESSION.wal|WALDIR...\n"

         "  --checkpoint-every N          parked-cursor ladder stride (default 8;\n"
         "                                0 = none)\n"
         "  --replay-verify               check each recording replays to a\n"
         "                                byte-identical transcript, then exit\n"
         "  --diff-engines                replay checking the maintained census\n"
         "                                against the reference census; report\n"
         "                                the first diverging step\n"
         "  --exec \"CMD; CMD; ...\"        run debugger commands, then exit\n"
         "  --failpoints SPEC             arm failpoints (name[=skip:]count,...)\n"
         "  --quiet                       per-recording results only\n";
  return 2;
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n &&
         name.compare(name.size() - n, n, suffix) == 0;
}

// Expands directories to the `*.wal` files inside them (sorted);
// quarantined `.corrupt` files never match.
// Collects <dir>/**/*.wal (the daemon shards its WAL dir, and
// chaos_soak keeps one subtree per round, so sweeps must recurse).
void CollectWalsUnder(const std::string& dir, std::vector<std::string>* out) {
  std::vector<std::string> subdirs;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      if (IsDirectory(path)) {
        subdirs.push_back(path);
      } else if (EndsWith(name, ".wal")) {
        out->push_back(path);
      }
    }
    ::closedir(handle);
  }
  std::sort(subdirs.begin(), subdirs.end());
  for (const std::string& subdir : subdirs) CollectWalsUnder(subdir, out);
}

std::vector<std::string> ExpandWalPaths(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (!IsDirectory(arg)) {
      paths.push_back(arg);
      continue;
    }
    std::vector<std::string> found;
    CollectWalsUnder(arg, &found);
    std::sort(found.begin(), found.end());
    paths.insert(paths.end(), found.begin(), found.end());
  }
  return paths;
}

// Reads `<dir>/<id>.wal`, naming the session `<id>`.
StatusOr<WalRecovery> LoadWal(const std::string& path) {
  std::string id = path.substr(path.find_last_of('/') + 1);
  if (EndsWith(id, ".wal")) id.resize(id.size() - std::strlen(".wal"));
  return ReadWalFile(path, id);
}

struct Options {
  TimelineOptions timeline;
  bool replay_verify = false;
  bool diff_engines = false;
  bool quiet = false;
  std::string exec;
  std::vector<std::string> paths;
};

int RunReplayVerify(const Options& options) {
  size_t verified = 0;
  size_t skipped = 0;
  size_t failed = 0;
  for (const std::string& path : options.paths) {
    StatusOr<WalRecovery> recorded = LoadWal(path);
    if (!recorded.ok()) {
      std::cerr << path << ": FAIL (load): " << recorded.status() << "\n";
      ++failed;
      continue;
    }
    if (recorded->create_params.Get("base").is_string()) {
      // The WAL alone cannot rebuild a base-forked KB.
      if (!options.quiet) {
        std::cout << path << ": SKIP (base-forked session)\n";
      }
      ++skipped;
      continue;
    }
    TimelineOptions timeline_options = options.timeline;
    timeline_options.checkpoint_every = 0;  // no ladder needed for a verify
    StatusOr<SessionTimeline> timeline =
        SessionTimeline::Create(std::move(*recorded), timeline_options);
    const Status status =
        timeline.ok() ? timeline->ReplayVerify() : timeline.status();
    if (!status.ok()) {
      std::cerr << path << ": FAIL: " << status << "\n";
      ++failed;
      continue;
    }
    ++verified;
    if (!options.quiet) {
      std::cout << path << ": OK (" << timeline->num_questions()
                << " questions, " << timeline->num_entries() << " entries)\n";
    }
  }
  std::cout << "replay-verify: " << verified << " verified, " << skipped
            << " skipped, " << failed << " failed\n";
  return failed == 0 ? 0 : 1;
}

int RunDiffEngines(const Options& options) {
  size_t diverged = 0;
  for (const std::string& path : options.paths) {
    StatusOr<WalRecovery> recorded = LoadWal(path);
    if (!recorded.ok()) {
      std::cerr << path << ": load: " << recorded.status() << "\n";
      return 1;
    }
    const StatusOr<EngineDivergence> result = DiffEngines(*recorded);
    if (!result.ok()) {
      std::cerr << path << ": diff-engines: " << result.status() << "\n";
      return 1;
    }
    if (!result->diverged) {
      std::cout << path << ": census and replay agree on all "
                << recorded->entries.size() << " entries\n";
      continue;
    }
    ++diverged;
    std::cout << path << ": " << FormatDivergence(*result);
  }
  return diverged == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options options;
  std::vector<std::string> inputs;
  const auto next_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint-every") {
      const char* v = next_value(i, "--checkpoint-every");
      int64_t every = 0;
      if (v == nullptr ||
          !ParseInteger(v, 0, INT64_MAX, &every, "--checkpoint-every")) {
        return Usage(argv[0]);
      }
      options.timeline.checkpoint_every = static_cast<size_t>(every);
    } else if (arg == "--replay-verify") {
      options.replay_verify = true;
    } else if (arg == "--diff-engines") {
      options.diff_engines = true;
    } else if (arg == "--exec") {
      const char* v = next_value(i, "--exec");
      if (v == nullptr) return Usage(argv[0]);
      options.exec = v;
    } else if (arg == "--failpoints") {
      const char* v = next_value(i, "--failpoints");
      if (v == nullptr) return Usage(argv[0]);
      const Status armed = failpoint::Configure(v);
      if (!armed.ok()) {
        std::cerr << "--failpoints: " << armed << "\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  failpoint::InitFromEnvOnce();
  if (inputs.empty()) return Usage(argv[0]);
  options.paths = ExpandWalPaths(inputs);
  if (options.paths.empty()) {
    // An empty WAL directory is a clean result (closed sessions remove
    // their WALs), not a usage error — CI sweeps recovered dirs blindly.
    std::cout << "no .wal files under the given path(s)\n";
    return 0;
  }

  if (options.replay_verify) return RunReplayVerify(options);
  if (options.diff_engines) return RunDiffEngines(options);

  if (options.paths.size() != 1) {
    std::cerr << "interactive mode takes exactly one WAL (got "
              << options.paths.size() << ")\n";
    return 2;
  }
  StatusOr<WalRecovery> recorded = LoadWal(options.paths[0]);
  if (!recorded.ok()) {
    std::cerr << options.paths[0] << ": " << recorded.status() << "\n";
    return 1;
  }
  StatusOr<SessionTimeline> timeline =
      SessionTimeline::Create(std::move(*recorded), options.timeline);
  if (!timeline.ok()) {
    std::cerr << options.paths[0] << ": " << timeline.status() << "\n";
    return 1;
  }
  DebugRepl repl(&*timeline, &std::cout);
  if (!options.exec.empty()) {
    std::string script = options.exec;
    std::replace(script.begin(), script.end(), ';', '\n');
    std::istringstream in(script);
    return repl.RunLoop(in, /*prompt=*/false) == 0 ? 0 : 1;
  }
  std::cout << "loaded " << options.paths[0] << ": "
            << timeline->num_entries() << " entries, "
            << timeline->num_questions() << " questions ('help' for help)\n";
  repl.RunLoop(std::cin, /*prompt=*/true);
  return 0;
}

}  // namespace
}  // namespace debug
}  // namespace kbrepair

int main(int argc, char** argv) {
  return kbrepair::debug::Main(argc, argv);
}
