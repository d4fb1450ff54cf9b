#include "service/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>

#include "util/crc32c.h"
#include "util/errno_text.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/trace.h"

namespace kbrepair {
namespace {

constexpr char kWalSuffix[] = ".wal";
constexpr char kWalHeaderV2[] = "#kbrepair-wal v2";
constexpr char kWalHeaderPrefix[] = "#kbrepair-wal";

std::string Crc32cHex(const std::string& payload) {
  static const char kHex[] = "0123456789abcdef";
  const uint32_t crc = Crc32c(payload);
  std::string out(8, '0');
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i)] = kHex[(crc >> (28 - 4 * i)) & 0xFu];
  }
  return out;
}

// "<payload-bytes> <crc32c-hex8> <payload>".
std::string FrameRecordLine(const std::string& payload) {
  return std::to_string(payload.size()) + " " + Crc32cHex(payload) + " " +
         payload + "\n";
}

// Outcome of interpreting one line as a v2 framed record.
enum class FrameParse {
  kNotFramed,  // no leading length digits: not a v2 record line
  kOk,         // payload extracted, length and CRC32C verified
  kTorn,       // fewer payload bytes than declared — a write torn by a crash
  kCorrupt,    // structurally framed but fails verification — bit-rot
};

FrameParse ParseFramedLine(const std::string& line, bool is_final_torn_line,
                           std::string* payload, std::string* error) {
  size_t pos = 0;
  while (pos < line.size() && std::isdigit(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  if (pos == 0) return FrameParse::kNotFramed;
  // The prefix parses incrementally; any structural shortfall on the
  // final unterminated line is indistinguishable from a torn write.
  const auto shortfall = [&](const char* what) {
    if (is_final_torn_line) return FrameParse::kTorn;
    *error = what;
    return FrameParse::kCorrupt;
  };
  if (pos > 9) {
    *error = "implausible record length";
    return FrameParse::kCorrupt;
  }
  const size_t declared = std::stoul(line.substr(0, pos));
  if (pos >= line.size() || line[pos] != ' ') {
    return shortfall("malformed frame after length");
  }
  ++pos;
  const size_t crc_start = pos;
  while (pos < line.size() && pos < crc_start + 8 &&
         std::isxdigit(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  if (pos != crc_start + 8) return shortfall("malformed frame checksum");
  const uint32_t declared_crc =
      static_cast<uint32_t>(std::stoul(line.substr(crc_start, 8), nullptr, 16));
  if (pos >= line.size() || line[pos] != ' ') {
    return shortfall("malformed frame after checksum");
  }
  ++pos;
  *payload = line.substr(pos);
  if (payload->size() < declared) {
    return shortfall("record shorter than declared length");
  }
  if (payload->size() > declared) {
    *error = "record longer than declared length";
    return FrameParse::kCorrupt;
  }
  // Full declared length is present, so this is not a tear: a tear only
  // truncates. A checksum mismatch here is bit-rot even at end of file.
  if (Crc32c(*payload) != declared_crc) {
    *error = "CRC32C mismatch (bit-rot)";
    return FrameParse::kCorrupt;
  }
  return FrameParse::kOk;
}

}  // namespace

bool IsDiskFullErrno(int err) {
  return err == ENOSPC || err == EDQUOT || err == EIO;
}

StatusOr<std::unique_ptr<SessionWal>> SessionWal::Open(
    const std::string& dir, const std::string& session_id,
    off_t intact_size) {
  const std::string path = dir + "/" + session_id + kWalSuffix;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable("WAL open " + path + ": " + ErrnoText());
  }
  if (intact_size >= 0 && ::ftruncate(fd, intact_size) != 0) {
    const Status status =
        Status::Unavailable("WAL cut " + path + ": " + ErrnoText());
    ::close(fd);
    return status;
  }
  return std::unique_ptr<SessionWal>(new SessionWal(path, fd));
}

SessionWal::~SessionWal() {
  if (fd_ >= 0) ::close(fd_);
}

Status SessionWal::Append(const JsonValue& record, bool* fsync_failed,
                          bool* disk_full) {
  trace::ScopedSpan span("wal.append", trace::Phase::kWalAppend);
  if (fsync_failed != nullptr) *fsync_failed = false;
  if (disk_full != nullptr) *disk_full = false;
  if (fd_ < 0) {
    return Status::Unavailable("WAL " + path_ + " is closed");
  }
  if (failpoint::ShouldFail("fs.enospc")) {
    if (disk_full != nullptr) *disk_full = true;
    return Status::Unavailable("WAL write " + path_ +
                               ": injected ENOSPC (no space left on device)");
  }
  KBREPAIR_FAILPOINT("wal.append",
                     Status::Unavailable("injected WAL append failure"));
  std::string data = FrameRecordLine(record.Dump());
  // Only a fresh (empty) file gets the v2 header, so an empty create
  // never costs an extra fsync; a non-empty one already carries it.
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    return Status::Unavailable("WAL seek " + path_ + ": " + ErrnoText());
  }
  if (end == 0) data = std::string(kWalHeaderV2) + "\n" + data;
  int write_errno = 0;
  const Status written = AppendFully(&fd_, data, path_, &write_errno);
  if (!written.ok()) {
    if (disk_full != nullptr && IsDiskFullErrno(write_errno)) {
      *disk_full = true;
    }
    return Status::Unavailable("WAL " + written.message());
  }
  if (::fsync(fd_) != 0) {
    const int err = errno;
    if (fsync_failed != nullptr) *fsync_failed = true;
    if (disk_full != nullptr && IsDiskFullErrno(err)) *disk_full = true;
    return Status::Unavailable("WAL fsync " + path_ + ": " + ErrnoText(err));
  }
  // An injected failure follows a successful fsync, so errno is stale:
  // it is a plain fsync failure, never a full disk.
  if (failpoint::ShouldFail("wal.fsync")) {
    if (fsync_failed != nullptr) *fsync_failed = true;
    return Status::Unavailable("WAL fsync " + path_ +
                               ": injected fsync failure");
  }
  return Status::Ok();
}

Status SessionWal::Remove() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
    return Status::Unavailable("WAL unlink " + path_ + ": " + ErrnoText());
  }
  return FsyncParentDir(path_);
}

JsonValue SessionWal::CreateRecord(const JsonValue& params) {
  JsonValue record = JsonValue::Object();
  record.Set("op", JsonValue::String("create"));
  record.Set("params", params);
  return record;
}

JsonValue SessionWal::AnswerRecord(JsonValue transcript_entry) {
  JsonValue record = JsonValue::Object();
  record.Set("op", JsonValue::String("answer"));
  record.Set("chosen", transcript_entry.Get("chosen"));
  record.Set("question", transcript_entry.Get("question"));
  return record;
}

JsonValue SessionWal::CloseRecord() {
  JsonValue record = JsonValue::Object();
  record.Set("op", JsonValue::String("close"));
  return record;
}

StatusOr<WalReader> WalReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Unavailable("WAL open " + path + ": " + ErrnoText());
  }
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::Unavailable("WAL read " + path + ": " + ErrnoText());
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return WalReader(path, std::move(contents));
}

Status WalReader::Next(WalRecordRef* out, bool* done) {
  *done = false;
  while (pos_ < contents_.size()) {
    if (dropped_torn_tail_) break;
    const uint64_t line_offset = pos_;
    size_t newline = contents_.find('\n', pos_);
    const bool unterminated = newline == std::string::npos;
    if (unterminated) newline = contents_.size();
    const std::string line = contents_.substr(pos_, newline - pos_);
    pos_ = newline + 1;
    if (line.empty()) continue;
    ++record_index_;
    const std::string where = "WAL " + path_ + " record " +
                              std::to_string(record_index_) +
                              " (byte offset " + std::to_string(line_offset) +
                              ")";
    const auto torn = [&] {
      dropped_torn_tail_ = true;
      torn_record_index_ = record_index_;
      torn_byte_offset_ = line_offset;
      *done = true;
      return Status::Ok();
    };

    if (line[0] == '#') {
      if (line == kWalHeaderV2) {
        v2_header_ = true;
        continue;
      }
      if (unterminated) {
        // Crash while writing the very first append (header included):
        // nothing was acknowledged, so dropping it loses nothing.
        return torn();
      }
      if (line.compare(0, sizeof(kWalHeaderPrefix) - 1, kWalHeaderPrefix) ==
          0) {
        return Status::InvalidArgument(where + ": unsupported WAL version '" +
                                       line + "'");
      }
      return Status::InvalidArgument(where + ": corrupt header line");
    }

    std::string payload;
    std::string frame_error;
    switch (ParseFramedLine(line, unterminated, &payload, &frame_error)) {
      case FrameParse::kOk:
        break;
      case FrameParse::kTorn:
        return torn();
      case FrameParse::kCorrupt:
        return Status::InvalidArgument(where + ": " + frame_error);
      case FrameParse::kNotFramed:
        // Crash mid-append: the guarded command was never acknowledged,
        // so an unterminated final line loses nothing promised durable.
        // A v2 writer frames every record and a torn frame keeps its
        // leading length digits, so a complete unframed line — garbage,
        // or a bare record of a v1 log — is corruption, not a tear.
        if (unterminated) return torn();
        return Status::InvalidArgument(
            where + ": unframed record (v1 WALs are no longer read)");
    }
    if (!v2_header_) {
      return Status::InvalidArgument(where + ": record before the WAL header");
    }

    StatusOr<JsonValue> parsed = JsonValue::Parse(payload);
    if (!parsed.ok() || !parsed->is_object()) {
      return Status::InvalidArgument(where + ": unparseable record");
    }
    out->record = std::move(*parsed);
    out->record_index = record_index_;
    out->byte_offset = line_offset;
    return Status::Ok();
  }
  *done = true;
  return Status::Ok();
}

StatusOr<WalRecovery> ReadWalFile(const std::string& path,
                                  const std::string& session_id) {
  KBREPAIR_ASSIGN_OR_RETURN(WalReader reader, WalReader::Open(path));

  WalRecovery recovery;
  recovery.session_id = session_id;
  recovery.path = path;
  bool saw_create = false;

  for (;;) {
    WalRecordRef ref;
    bool done = false;
    KBREPAIR_RETURN_IF_ERROR(reader.Next(&ref, &done));
    if (done) break;
    const std::string where = "WAL " + path + " record " +
                              std::to_string(ref.record_index) +
                              " (byte offset " +
                              std::to_string(ref.byte_offset) + ")";
    const std::string op = ref.record.Get("op").AsString();
    if (op == "create") {
      if (saw_create) {
        return Status::InvalidArgument(where + ": duplicate create record");
      }
      saw_create = true;
      recovery.create_params = ref.record.Get("params");
    } else if (op == "snapshot") {
      // Written only by older daemons that compacted their logs; still
      // read. It restates the whole history, so it must come first.
      if (saw_create || !recovery.entries.empty()) {
        return Status::InvalidArgument(where + ": snapshot after other records");
      }
      saw_create = true;
      recovery.create_params = ref.record.Get("params");
      const JsonValue& entries = ref.record.Get("entries");
      if (!entries.is_array()) {
        return Status::InvalidArgument(where +
                                       ": snapshot without entries array");
      }
      for (size_t i = 0; i < entries.size(); ++i) {
        recovery.entries.push_back(entries.at(i));
        recovery.entry_origins.push_back(
            WalEntryOrigin{ref.record_index, ref.byte_offset});
      }
    } else if (op == "answer") {
      if (!saw_create) {
        return Status::InvalidArgument(where + ": answer before create");
      }
      JsonValue entry = JsonValue::Object();
      entry.Set("chosen", ref.record.Get("chosen"));
      entry.Set("question", ref.record.Get("question"));
      recovery.entries.push_back(std::move(entry));
      recovery.entry_origins.push_back(
          WalEntryOrigin{ref.record_index, ref.byte_offset});
    } else if (op == "close") {
      recovery.closed = true;
    } else {
      return Status::InvalidArgument(where + ": unknown op '" + op + "'");
    }
  }
  recovery.dropped_torn_tail = reader.dropped_torn_tail();
  recovery.torn_record_index = reader.torn_record_index();
  recovery.torn_byte_offset = reader.torn_byte_offset();
  if (!saw_create) {
    return Status::InvalidArgument("WAL " + path + ": no create record");
  }
  if (!recovery.create_params.is_object()) {
    return Status::InvalidArgument("WAL " + path +
                                   ": create record without params");
  }
  return recovery;
}

std::string WalEntryWhere(const WalRecovery& recording, size_t n) {
  const std::string index = std::to_string(n + 1);
  const std::string entry = "entry " + index;
  if (n >= recording.entry_origins.size()) return entry;
  const WalEntryOrigin& origin = recording.entry_origins[n];
  const std::string record = std::to_string(origin.record_index);
  const std::string offset = std::to_string(origin.byte_offset);
  return "WAL record " + record + " (byte offset " + offset + ", " + entry +
         ")";
}

std::vector<std::string> ListWalSessionIds(const std::string& dir) {
  std::vector<std::string> ids;
  for (const std::string& name : ListFilesWithSuffix(dir, kWalSuffix)) {
    ids.push_back(name.substr(0, name.size() - (sizeof(kWalSuffix) - 1)));
  }
  return ids;
}

Status ProbeWalDirWritable(const std::string& dir) {
  if (failpoint::ShouldFail("fs.enospc")) {
    return Status::Unavailable("WAL probe " + dir +
                               ": injected ENOSPC (no space left on device)");
  }
  const std::string path = dir + "/.disk-probe";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("WAL probe open " + path + ": " + ErrnoText());
  }
  static const std::string kProbe = "kbrepair disk probe\n";
  Status status = AppendFully(&fd, kProbe, path);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::Unavailable("WAL probe fsync " + path + ": " + ErrnoText());
  }
  if (fd >= 0) ::close(fd);
  ::unlink(path.c_str());
  return status;
}

}  // namespace kbrepair
