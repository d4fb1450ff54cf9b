#include "debug/repl.h"

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "debug/inspect.h"
#include "repair/question.h"

namespace kbrepair {
namespace debug {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::optional<uint64_t> ParseNumber(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(value);
}

constexpr char kHelp[] =
    "commands:\n"
    "  info                     recording summary\n"
    "  list                     one line per recorded step\n"
    "  step [n] | back [n]      move the cursor (default 1)\n"
    "  goto K                   seek to position K (0..entries)\n"
    "  run                      step forward until a breakpoint or the end\n"
    "  question                 the question pending at this position\n"
    "  census                   conflict census at this position\n"
    "  pi                       phase, engine rebuilds, frozen positions\n"
    "  facts                    working fact base\n"
    "  cone ATOM                provenance report for one atom id\n"
    "  hash                     content hash of the working facts\n"
    "  break conflict PRED      stop when a conflict involves predicate PRED\n"
    "  break rebuild            stop when a conflict engine is rebuilt\n"
    "  break fix ATOM           stop when an answer rewrites atom ATOM\n"
    "  break list | break clear\n"
    "  fork CHOICE [SEED]       what-if: answer CHOICE here, simulate the rest\n"
    "  diff                     replay checking the census against the\n"
    "                           reference, report the first divergence\n"
    "  quit\n";

}  // namespace

std::string DebugRepl::Breakpoint::ToString() const {
  switch (kind) {
    case kConflictPred:
      return "conflict involving predicate '" + predicate + "'";
    case kRebuild:
      return "engine rebuild";
    case kFix:
      return "fix touching atom " + std::to_string(atom);
  }
  return "?";
}

DebugRepl::DebugRepl(SessionTimeline* timeline, std::ostream* out)
    : timeline_(timeline), out_(out) {}

StatusOr<std::string> DebugRepl::CheckBreakpoints() {
  if (breakpoints_.empty() || timeline_->position() == 0) return std::string();
  const size_t pos = timeline_->position();
  const StepNote& note = timeline_->note(pos - 1);
  // The census is only pulled when some breakpoint needs it.
  std::optional<std::vector<Conflict>> census;
  for (const Breakpoint& bp : breakpoints_) {
    switch (bp.kind) {
      case Breakpoint::kRebuild: {
        const size_t before =
            pos >= 2 ? timeline_->note(pos - 2).engine_rebuilds : 0;
        if (note.engine_rebuilds > before) return bp.ToString();
        break;
      }
      case Breakpoint::kFix:
        if (!note.ghost && note.chosen_atom == bp.atom) return bp.ToString();
        break;
      case Breakpoint::kConflictPred: {
        if (!census.has_value()) {
          KBREPAIR_ASSIGN_OR_RETURN(census, timeline_->Census());
        }
        const FactBase& working = timeline_->engine().working_facts();
        const SymbolTable& symbols = timeline_->kb().symbols();
        for (const Conflict& conflict : *census) {
          for (AtomId id : conflict.support) {
            if (id < working.size() &&
                symbols.predicate_name(working.atom(id).predicate) ==
                    bp.predicate) {
              return bp.ToString();
            }
          }
        }
        break;
      }
    }
  }
  return std::string();
}

Status DebugRepl::RunForward(size_t max_steps) {
  size_t taken = 0;
  while (taken < max_steps &&
         timeline_->position() < timeline_->num_entries()) {
    KBREPAIR_RETURN_IF_ERROR(timeline_->StepForward());
    ++taken;
    KBREPAIR_ASSIGN_OR_RETURN(std::string hit, CheckBreakpoints());
    if (!hit.empty()) {
      *out_ << "breakpoint at step " << timeline_->position() << ": " << hit
            << "\n";
      return Status::Ok();
    }
  }
  *out_ << "at step " << timeline_->position() << "/"
        << timeline_->num_entries() << "\n";
  return Status::Ok();
}

Status DebugRepl::ExecLine(const std::string& line, bool* quit) {
  *quit = false;
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') return Status::Ok();
  const std::string& cmd = tokens[0];

  if (cmd == "quit" || cmd == "exit") {
    *quit = true;
    return Status::Ok();
  }
  if (cmd == "help") {
    *out_ << kHelp;
    return Status::Ok();
  }
  if (cmd == "info") {
    const WalRecovery& rec = timeline_->recording();
    *out_ << "session: " << (rec.session_id.empty() ? "<in-memory>"
                                                    : rec.session_id);
    if (!rec.path.empty()) *out_ << "  (" << rec.path << ")";
    *out_ << "\nentries: " << timeline_->num_entries() << "  questions: "
          << timeline_->num_questions() << "  position: "
          << timeline_->position() << "\nengine rebuilds: "
          << timeline_->engine().progress().engine_rebuilds
          << "\nclosed: " << (rec.closed ? "yes" : "no")
          << "  torn tail dropped: " << (rec.dropped_torn_tail ? "yes" : "no")
          << "\n";
    return Status::Ok();
  }
  if (cmd == "list") {
    for (const StepNote& note : timeline_->notes()) {
      *out_ << "step " << std::setw(3) << note.index + 1 << "  wal#"
            << note.record_index << "@" << note.byte_offset;
      if (note.ghost) {
        *out_ << "  [ghost]\n";
        continue;
      }
      *out_ << "  q" << note.question_index << " phase " << note.phase
            << "  chose " << note.chosen << "/" << note.num_fixes << "  "
            << note.chosen_text << "  conflicts left "
            << note.conflicts_remaining;
      if (note.engine_rebuilds > 0) {
        *out_ << "  [rebuilds " << note.engine_rebuilds << "]";
      }
      *out_ << "\n";
    }
    return Status::Ok();
  }
  if (cmd == "step" || cmd == "run" || cmd == "back") {
    std::optional<uint64_t> n =
        tokens.size() > 1 ? ParseNumber(tokens[1]) : std::optional<uint64_t>(1);
    if (cmd == "run") n = std::optional<uint64_t>(SIZE_MAX);
    if (!n.has_value()) {
      return Status::InvalidArgument("usage: " + cmd + " [count]");
    }
    if (cmd == "back") {
      for (uint64_t i = 0; i < *n && timeline_->position() > 0; ++i) {
        KBREPAIR_RETURN_IF_ERROR(timeline_->StepBack());
      }
      *out_ << "at step " << timeline_->position() << "/"
            << timeline_->num_entries() << "\n";
      return Status::Ok();
    }
    return RunForward(*n);
  }
  if (cmd == "goto") {
    const std::optional<uint64_t> k =
        tokens.size() > 1 ? ParseNumber(tokens[1]) : std::nullopt;
    if (!k.has_value()) return Status::InvalidArgument("usage: goto K");
    KBREPAIR_RETURN_IF_ERROR(timeline_->SeekTo(*k));
    *out_ << "at step " << timeline_->position() << "/"
          << timeline_->num_entries() << "\n";
    return Status::Ok();
  }
  if (cmd == "question") {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              timeline_->PendingQuestion());
    if (question == nullptr) {
      *out_ << "dialogue consistent — no pending question\n";
      return Status::Ok();
    }
    const InquiryView view = timeline_->engine().View();
    *out_ << "question (cdd " << question->source_cdd << ", "
          << question->fixes.size() << " fixes):\n";
    for (size_t i = 0; i < question->fixes.size(); ++i) {
      *out_ << "  [" << i << "] "
            << question->fixes[i].ToString(*view.symbols, *view.facts) << "\n";
    }
    return Status::Ok();
  }
  if (cmd == "census" || cmd == "pi" || cmd == "cone") {
    const ProvenanceInspector inspector(
        &timeline_->engine(), &timeline_->kb(),
        timeline_->inquiry_options().chase_options);
    if (cmd == "pi") {
      *out_ << inspector.PiReport();
      return Status::Ok();
    }
    if (cmd == "census") {
      KBREPAIR_ASSIGN_OR_RETURN(std::string report, inspector.CensusReport());
      *out_ << report;
      return Status::Ok();
    }
    const std::optional<uint64_t> atom =
        tokens.size() > 1 ? ParseNumber(tokens[1]) : std::nullopt;
    if (!atom.has_value()) return Status::InvalidArgument("usage: cone ATOM");
    KBREPAIR_ASSIGN_OR_RETURN(std::string report,
                              inspector.AtomReport(*atom));
    *out_ << report;
    return Status::Ok();
  }
  if (cmd == "facts") {
    const FactBase& working = timeline_->engine().working_facts();
    *out_ << working.num_alive() << " facts\n"
          << working.ToString(timeline_->kb().symbols());
    return Status::Ok();
  }
  if (cmd == "hash") {
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0')
        << timeline_->StateHash();
    *out_ << "state hash " << hex.str() << "\n";
    return Status::Ok();
  }
  if (cmd == "break") {
    if (tokens.size() >= 2 && tokens[1] == "list") {
      for (size_t i = 0; i < breakpoints_.size(); ++i) {
        *out_ << "  [" << i << "] " << breakpoints_[i].ToString() << "\n";
      }
      if (breakpoints_.empty()) *out_ << "  (none)\n";
      return Status::Ok();
    }
    if (tokens.size() >= 2 && tokens[1] == "clear") {
      breakpoints_.clear();
      *out_ << "breakpoints cleared\n";
      return Status::Ok();
    }
    Breakpoint bp;
    if (tokens.size() >= 3 && tokens[1] == "conflict") {
      bp.kind = Breakpoint::kConflictPred;
      bp.predicate = tokens[2];
    } else if (tokens.size() >= 2 && tokens[1] == "rebuild") {
      bp.kind = Breakpoint::kRebuild;
    } else if (tokens.size() >= 3 && tokens[1] == "fix") {
      const std::optional<uint64_t> atom = ParseNumber(tokens[2]);
      if (!atom.has_value()) {
        return Status::InvalidArgument("usage: break fix ATOM");
      }
      bp.kind = Breakpoint::kFix;
      bp.atom = *atom;
    } else {
      return Status::InvalidArgument(
          "usage: break conflict PRED | break rebuild | break fix ATOM | "
          "break list | break clear");
    }
    breakpoints_.push_back(bp);
    *out_ << "breakpoint set: " << bp.ToString() << "\n";
    return Status::Ok();
  }
  if (cmd == "fork") {
    const std::optional<uint64_t> choice =
        tokens.size() > 1 ? ParseNumber(tokens[1]) : std::nullopt;
    if (!choice.has_value()) {
      return Status::InvalidArgument("usage: fork CHOICE [SEED]");
    }
    uint64_t seed = 1;
    if (tokens.size() > 2) {
      const std::optional<uint64_t> parsed = ParseNumber(tokens[2]);
      if (!parsed.has_value()) {
        return Status::InvalidArgument("usage: fork CHOICE [SEED]");
      }
      seed = *parsed;
    }
    KBREPAIR_ASSIGN_OR_RETURN(
        ForkBranch branch,
        timeline_->Fork(timeline_->position(), *choice, seed));
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0')
        << branch.final_state_hash;
    *out_ << "fork from step " << branch.from_step << ", choice "
          << branch.alt_choice << ", seed " << branch.user_seed << ": "
          << (branch.completed ? "reached consistency" : "hit question cap")
          << " after " << branch.num_questions << " question(s) ("
          << branch.entries.size() << " transcript entries), final hash "
          << hex.str() << "\n";
    return Status::Ok();
  }
  if (cmd == "diff") {
    KBREPAIR_ASSIGN_OR_RETURN(EngineDivergence divergence,
                              DiffEngines(timeline_->recording()));
    if (!divergence.diverged) {
      *out_ << "no divergence: the replay matches the recording and the "
               "reference census at every step\n";
      return Status::Ok();
    }
    *out_ << FormatDivergence(divergence);
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown command '" + cmd +
                                 "' (try 'help')");
}

size_t DebugRepl::RunLoop(std::istream& in, bool prompt) {
  size_t failures = 0;
  std::string line;
  while (true) {
    if (prompt) *out_ << "(kbdbg) " << std::flush;
    if (!std::getline(in, line)) break;
    if (!prompt && !line.empty()) *out_ << "> " << line << "\n";
    bool quit = false;
    const Status status = ExecLine(line, &quit);
    if (!status.ok()) {
      ++failures;
      *out_ << "error: " << status.message() << "\n";
    }
    if (quit) break;
  }
  return failures;
}

}  // namespace debug
}  // namespace kbrepair
