// The kbrepair-debug read-eval loop.
//
// A thin command layer over SessionTimeline + ProvenanceInspector:
// step/back/goto move the cursor, question/census/pi/cone/facts/hash
// inspect the current step, break+run scan forward for a condition
// (a conflict involving a predicate, an engine rebuild, a fix touching
// a fact), fork answers the pending question differently and lets a
// seeded simulated user finish the branch, diff replays the recording
// checking the maintained census against the reference at every step. Commands are plain lines
// ("goto 12", "break conflict emp"), so the same loop serves the
// interactive prompt, `--exec "cmds;..."`, and the tests.

#ifndef KBREPAIR_DEBUG_REPL_H_
#define KBREPAIR_DEBUG_REPL_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "debug/timeline.h"
#include "util/status.h"

namespace kbrepair {
namespace debug {

class DebugRepl {
 public:
  // Both pointers must outlive the repl.
  DebugRepl(SessionTimeline* timeline, std::ostream* out);

  // Executes one command line (leading/trailing whitespace ignored,
  // blank lines and #-comments are no-ops). Sets *quit on "quit".
  // Returns the command's status; the timeline survives any error.
  Status ExecLine(const std::string& line, bool* quit);

  // Reads command lines from `in` until EOF or "quit". Errors are
  // printed and the loop continues. With `prompt`, prints "(kbdbg) "
  // before each read and echoes nothing; without, echoes each command.
  // Returns the number of commands that failed.
  size_t RunLoop(std::istream& in, bool prompt);

 private:
  struct Breakpoint {
    enum Kind { kConflictPred, kRebuild, kFix };
    Kind kind = kConflictPred;
    std::string predicate;  // kConflictPred
    AtomId atom = 0;        // kFix
    std::string ToString() const;
  };

  // After a forward step: the first breakpoint the new position
  // satisfies, rendered; empty when none trip.
  StatusOr<std::string> CheckBreakpoints();

  // Steps forward up to `max_steps` (SIZE_MAX = to the end), stopping
  // early on a tripped breakpoint or the end of the recording.
  Status RunForward(size_t max_steps);

  SessionTimeline* timeline_;
  std::ostream* out_;
  std::vector<Breakpoint> breakpoints_;
};

}  // namespace debug
}  // namespace kbrepair

#endif  // KBREPAIR_DEBUG_REPL_H_
