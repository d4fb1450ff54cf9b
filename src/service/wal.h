// Per-session write-ahead logging for the repair service.
//
// Every accepted state-changing command (create / answer / close) is
// appended to `<dir>/<session-id>.wal` as one fsync'd line *before* it
// executes, so a crash at any point loses at most the command that had
// not yet been acknowledged. Because the inquiry engine is
// deterministic given the create parameters and the sequence of chosen
// fixes, the WAL is also a complete recovery recipe: opening a session
// from the create record and replaying the answer records onto it, one
// ReplayRecordedEntry step each (repair/session_log.h), rebuilds the
// session byte-identically (see SessionManager recovery). kbrepair-debug
// replays the same WalRecovery through the same step.
//
// On-disk format (v2): the file opens with a `#kbrepair-wal v2` header
// line; every record line is framed as
//
//   <payload-bytes> <crc32c-hex8> <payload-json>\n
//
// so the reader can tell a *torn tail* (crash mid-append: fewer payload
// bytes than declared, at end of file, no trailing newline — tolerated,
// the guarded command was never acknowledged) from *bit-rot* (declared
// length present but CRC32C mismatch, or corruption anywhere before the
// final line — the file is rejected and recovery quarantines it rather
// than silently replaying a garbled history). v1 files (bare JSON
// lines, no header, no checksums) are no longer read: recovery
// quarantines them like any other unreadable log.
//
// Record payload shapes (one JSON object per line):
//   {"op":"create","params":{...}}          the create request params
//   {"op":"answer","chosen":N,"question":{...}}
//                                           one transcript entry, exactly
//                                           SessionTranscript::EntryToJson
//   {"op":"close"}                          the session ended cleanly
//   {"op":"snapshot","params":{...},"entries":[...]}
//                                           create + answers in one line,
//                                           as older daemons compacted
//                                           logs; still read
//
// The log is append-only and never rewritten: the create record plus
// one record per answer is already the smallest complete recording.

#ifndef KBREPAIR_SERVICE_WAL_H_
#define KBREPAIR_SERVICE_WAL_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

class SessionWal {
 public:
  // Opens `<dir>/<session_id>.wal` for appending, creating or continuing
  // it (`dir` must exist). A non-negative `intact_size` first cuts the
  // file to that length: recovery passes the offset of a dropped torn
  // tail. Unavailable on I/O failure.
  static StatusOr<std::unique_ptr<SessionWal>> Open(
      const std::string& dir, const std::string& session_id,
      off_t intact_size = -1);

  ~SessionWal();
  SessionWal(const SessionWal&) = delete;
  SessionWal& operator=(const SessionWal&) = delete;

  // Appends `record` as one framed line and fsyncs. Unavailable on
  // failure — the caller must then *reject* the guarded command
  // (log-before-execute). `fsync_failed` (optional) is set when the
  // failure was at the durability step rather than the write, for
  // metrics. `disk_full` (optional) is set when the failure was
  // ENOSPC/EDQUOT/EIO (or the `fs.enospc` / `wal.torn_write`
  // failpoints): the disk itself is out of space or failing, so the
  // owning shard should enter degraded mode rather than hope the next
  // append fares better. A write that fails part-way is cut back off
  // the file (see AppendFully); if that cut fails, the log is closed.
  Status Append(const JsonValue& record, bool* fsync_failed = nullptr,
                bool* disk_full = nullptr);

  // Closes and deletes the log (session completed; nothing to recover).
  // Works on a full disk — unlink frees space, never needs it.
  Status Remove();

  const std::string& path() const { return path_; }

  // Record constructors.
  static JsonValue CreateRecord(const JsonValue& params);
  static JsonValue AnswerRecord(JsonValue transcript_entry);
  static JsonValue CloseRecord();

 private:
  SessionWal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

// One record yielded by WalReader, with its location in the file so
// replay errors, torn-tail reports, and debugger seeks can name the
// exact line and byte they refer to.
struct WalRecordRef {
  JsonValue record = JsonValue::Null();
  // 1-based index among the file's non-empty lines (header lines
  // included in the numbering, matching historical error messages).
  size_t record_index = 0;
  // Byte offset of the start of the record's line within the file.
  uint64_t byte_offset = 0;
};

// Streaming WAL record reader. Decodes v2 framing one record at a time, reporting each record's index and byte offset.
// A torn final line (crash mid-append) ends the stream and is reported
// via dropped_torn_tail(); framing/CRC corruption anywhere else is an
// error carrying the record index and byte offset.
class WalReader {
 public:
  // Reads the whole file up front (a WAL holds one session: its create
  // record plus one short record per answer); Unavailable on I/O
  // failure.
  static StatusOr<WalReader> Open(const std::string& path);

  // Yields the next record. Sets `*done` and leaves `*out` untouched at
  // end of stream — including a tolerated torn tail, which additionally
  // sets dropped_torn_tail(). InvalidArgument on corruption.
  Status Next(WalRecordRef* out, bool* done);

  const std::string& path() const { return path_; }
  bool dropped_torn_tail() const { return dropped_torn_tail_; }
  // Location of the dropped torn-tail line; valid when
  // dropped_torn_tail() is true.
  size_t torn_record_index() const { return torn_record_index_; }
  uint64_t torn_byte_offset() const { return torn_byte_offset_; }

 private:
  WalReader(std::string path, std::string contents)
      : path_(std::move(path)), contents_(std::move(contents)) {}

  std::string path_;
  std::string contents_;
  size_t pos_ = 0;
  size_t record_index_ = 0;
  bool v2_header_ = false;
  bool dropped_torn_tail_ = false;
  size_t torn_record_index_ = 0;
  uint64_t torn_byte_offset_ = 0;
};

// Where a recovered transcript entry came from: the WAL record that
// carried it. Entries unpacked from a snapshot record all share the
// snapshot's coordinates.
struct WalEntryOrigin {
  size_t record_index = 0;
  uint64_t byte_offset = 0;
};

// A WAL read back at recovery time. Recordings built in memory (a
// debugger fork branch, tests) leave `path` and `entry_origins` empty.
struct WalRecovery {
  std::string session_id;
  std::string path;  // the file it was read from
  JsonValue create_params = JsonValue::Null();
  // Transcript-entry records ({"chosen":N,"question":{...}}), in order.
  std::vector<JsonValue> entries;
  // Parallel to `entries`: the WAL record each entry was read from.
  std::vector<WalEntryOrigin> entry_origins;
  bool closed = false;             // a close record was logged
  bool dropped_torn_tail = false;  // final partial line discarded
  // Location of the dropped line; valid when dropped_torn_tail is set.
  size_t torn_record_index = 0;
  uint64_t torn_byte_offset = 0;
};

// Parses one WAL file. InvalidArgument when the file is unusable
// (missing/garbled create record, framing/CRC corruption, non-JSON
// interior line) — the message names the offending record index and
// byte offset; a torn *final* line is tolerated and reported via
// dropped_torn_tail + torn_record_index/torn_byte_offset.
StatusOr<WalRecovery> ReadWalFile(const std::string& path,
                                  const std::string& session_id);

// "WAL record R (byte offset B, entry N)": where entry `n` of
// `recording` was read from, for replay errors ("entry N" alone when
// the recording has no origins).
std::string WalEntryWhere(const WalRecovery& recording, size_t n);

// Session ids with a `<id>.wal` file in `dir`, sorted.
std::vector<std::string> ListWalSessionIds(const std::string& dir);

// Probes whether `dir` can take durable writes again: creates, syncs
// and unlinks a small scratch file (gated by the `fs.enospc` failpoint
// like real appends). Used by degraded shards to detect that the disk
// has freed up.
Status ProbeWalDirWritable(const std::string& dir);

// True when `err` (an errno value) means the disk is full or failing
// (ENOSPC, EDQUOT, EIO) rather than a transient hiccup.
bool IsDiskFullErrno(int err);

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_WAL_H_
