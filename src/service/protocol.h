// The repair service's newline-delimited JSON wire protocol.
//
// Every request is one JSON object on one line; every response is one
// JSON object on one line. Requests carry a client-chosen correlation
// "id" which is echoed verbatim in the response, so a pipelining client
// can match out-of-order completions (the daemon answers as workers
// finish, not in arrival order).
//
//   request:  {"id":"r1","command":"create","kb":"durum_wheat_v1",
//              "strategy":"opti-mcd","seed":7}
//   response: {"id":"r1","ok":true,"result":{"session":"s-1", ...}}
//   error:    {"id":"r1","ok":false,
//              "error":{"code":"NotFound","message":"unknown session ..."}}
//
// Commands: create, ask, answer, status, snapshot, close, metrics,
// trace, register-base, list-bases, failpoint (the one command table is
// LookupCommand in service/session_shard.h). See docs/SERVICE.md for the
// full per-command schema.

#ifndef KBREPAIR_SERVICE_PROTOCOL_H_
#define KBREPAIR_SERVICE_PROTOCOL_H_

#include <string>

#include "repair/question.h"
#include "repair/user.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

struct ServiceRequest {
  std::string id;          // echoed; may be empty
  std::string command;     // required
  std::string session_id;  // required for session commands
  JsonValue params;        // the full request object (extra fields)
  // Internal-only (never parsed from the wire): the id of the session a
  // `create` opens. The SessionManager front end mints it before routing,
  // since the id decides which shard owns the session.
  std::string assigned_session_id;
};

// Parses one wire line. InvalidArgument on malformed JSON, a non-object
// document, or a missing/non-string "command".
StatusOr<ServiceRequest> ParseRequestLine(const std::string& line);

// Builds the one-line response envelopes.
std::string OkResponseLine(const ServiceRequest& request, JsonValue result);
std::string ErrorResponseLine(const ServiceRequest& request,
                              const Status& status);
// For lines that failed to parse: best-effort echoes an "id" if the line
// contained a parseable object with one.
std::string ErrorResponseForLine(const std::string& line,
                                 const Status& status);

// --- Wire renderings of engine objects ----------------------------------

// {"index":i,"atom":id,"arg":n,"value":"t","value_kind":"constant|null",
//  "text":"(p(a,b), 2, c)"} — index is what `answer` consumes.
JsonValue FixToWireJson(size_t index, const Fix& fix,
                        const InquiryView& view);

// {"source_cdd":k,"cdd":"! :- ...","num_fixes":n,"fixes":[...]}
JsonValue QuestionToWireJson(const Question& question,
                             const InquiryView& view);

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_PROTOCOL_H_
