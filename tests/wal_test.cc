// SessionWal unit tests: append/recover roundtrips, the snapshot
// records older daemons wrote, torn-tail tolerance, torn appends cut
// back off the log, and the malformed-log error paths recovery depends
// on to quarantine corrupt files instead of crashing.

#include "service/wal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"

namespace kbrepair {
namespace {

constexpr char kHeaderV2[] = "#kbrepair-wal v2\n";

// Mirrors the writer's framing: "<len> <crc32c-hex8> <payload>\n".
std::string Framed(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c(payload));
  return std::to_string(payload.size()) + " " + crc + " " + payload + "\n";
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/kbrepair_wal_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::Reset();
    for (const std::string& name : ListWalSessionIds(dir_)) {
      ::unlink((dir_ + "/" + name + ".wal").c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string WalPath(const std::string& id) const {
    return dir_ + "/" + id + ".wal";
  }

  void WriteRaw(const std::string& id, const std::string& contents) {
    std::ofstream out(WalPath(id), std::ios::trunc | std::ios::binary);
    out << contents;
  }

  static JsonValue Params(int64_t seed) {
    JsonValue params = JsonValue::Object();
    params.Set("kb", JsonValue::String("synthetic"));
    params.Set("seed", JsonValue::Number(seed));
    return params;
  }

  static JsonValue Entry(int64_t chosen) {
    JsonValue question = JsonValue::Object();
    question.Set("source_cdd", JsonValue::Number(int64_t{0}));
    JsonValue entry = JsonValue::Object();
    entry.Set("chosen", JsonValue::Number(chosen));
    entry.Set("question", std::move(question));
    return entry;
  }

  std::string dir_;
};

TEST_F(WalTest, AppendThenReadRoundtrips) {
  auto wal = SessionWal::Open(dir_, "s-1");
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(7))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(2))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(0))).ok());

  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("s-1"), "s-1");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->session_id, "s-1");
  EXPECT_FALSE(recovered->closed);
  EXPECT_FALSE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->create_params.Dump(), Params(7).Dump());
  ASSERT_EQ(recovered->entries.size(), 2u);
  EXPECT_EQ(recovered->entries[0].Get("chosen").AsInt(-1), 2);
  EXPECT_EQ(recovered->entries[1].Get("chosen").AsInt(-1), 0);
}

TEST_F(WalTest, CloseRecordMarksSessionDone) {
  auto wal = SessionWal::Open(dir_, "s-2");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(1))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::CloseRecord()).ok());
  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("s-2"), "s-2");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->closed);
}

TEST_F(WalTest, CompactedLogFromOlderDaemonsRecovers) {
  // Older daemons compacted a log into one snapshot record: the create
  // params plus every answer so far. Such a file still recovers, entries
  // after the snapshot follow it, and appends continue it.
  JsonValue snapshot = JsonValue::Object();
  snapshot.Set("op", JsonValue::String("snapshot"));
  snapshot.Set("params", Params(9));
  JsonValue entries = JsonValue::Array();
  for (int64_t i = 0; i < 5; ++i) entries.Append(Entry(i));
  snapshot.Set("entries", std::move(entries));
  const std::string snapshot_line = Framed(snapshot.Dump());
  WriteRaw("s-3", kHeaderV2 + snapshot_line +
                      Framed(SessionWal::AnswerRecord(Entry(5)).Dump()));

  auto wal = SessionWal::Open(dir_, "s-3");
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(42))).ok());

  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("s-3"), "s-3");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->create_params.Dump(), Params(9).Dump());
  ASSERT_EQ(recovered->entries.size(), 7u);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(recovered->entries[static_cast<size_t>(i)].Dump(),
              Entry(i).Dump());
  }
  EXPECT_EQ(recovered->entries[6].Get("chosen").AsInt(-1), 42);
  // Entries unpacked from the snapshot share its coordinates (line 2,
  // right after the header); the records after it have their own.
  ASSERT_EQ(recovered->entry_origins.size(), 7u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(recovered->entry_origins[i].record_index, 2u);
    EXPECT_EQ(recovered->entry_origins[i].byte_offset,
              std::string(kHeaderV2).size());
  }
  EXPECT_EQ(recovered->entry_origins[5].record_index, 3u);
  EXPECT_EQ(recovered->entry_origins[5].byte_offset,
            std::string(kHeaderV2).size() + snapshot_line.size());
  EXPECT_EQ(recovered->entry_origins[6].record_index, 4u);
}

TEST_F(WalTest, SnapshotAfterOtherRecordsIsAnError) {
  JsonValue snapshot = JsonValue::Object();
  snapshot.Set("op", JsonValue::String("snapshot"));
  snapshot.Set("params", Params(9));
  snapshot.Set("entries", JsonValue::Array());
  WriteRaw("s-3b", kHeaderV2 +
                       Framed(SessionWal::CreateRecord(Params(9)).Dump()) +
                       Framed(snapshot.Dump()));
  EXPECT_FALSE(ReadWalFile(WalPath("s-3b"), "s-3b").ok());
}

TEST_F(WalTest, TornAppendIsCutBackAndLaterAppendsRecover) {
  auto wal = SessionWal::Open(dir_, "torn-1");
  ASSERT_TRUE(wal.ok()) << wal.status();
  // A torn first append takes the header with it; the retry rewrites it.
  failpoint::Arm("wal.torn_write", /*skip=*/0, /*fail=*/1);
  bool disk_full = false;
  EXPECT_FALSE((*wal)->Append(SessionWal::CreateRecord(Params(3)), nullptr,
                              &disk_full)
                   .ok());
  EXPECT_TRUE(disk_full);
  struct stat st {};
  ASSERT_EQ(::stat(WalPath("torn-1").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 0);
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(3))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(1))).ok());
  ASSERT_EQ(::stat(WalPath("torn-1").c_str(), &st), 0);
  const off_t acked = st.st_size;

  // A rejected answer leaves no fragment for the next record to land on.
  failpoint::Arm("wal.torn_write", /*skip=*/0, /*fail=*/1);
  EXPECT_FALSE((*wal)->Append(SessionWal::AnswerRecord(Entry(2))).ok());
  ASSERT_EQ(::stat(WalPath("torn-1").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, acked);
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(2))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(3))).ok());

  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("torn-1"), "torn-1");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->create_params.Dump(), Params(3).Dump());
  ASSERT_EQ(recovered->entries.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recovered->entries[static_cast<size_t>(i)].Dump(),
              Entry(i + 1).Dump());
  }
}

TEST_F(WalTest, TornAppendAfterAnFsyncGhostKeepsEveryRecord) {
  // A record whose fsync failed stays in the file (an fsync ghost; its
  // verbatim retry is skipped at replay). A later torn write must be
  // cut back to the file's real end, not into the records after it.
  auto wal = SessionWal::Open(dir_, "ghost-1");
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(3))).ok());
  failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
  bool fsync_failed = false;
  EXPECT_FALSE(
      (*wal)->Append(SessionWal::AnswerRecord(Entry(1)), &fsync_failed).ok());
  EXPECT_TRUE(fsync_failed);
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(1))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(2))).ok());
  struct stat st {};
  ASSERT_EQ(::stat(WalPath("ghost-1").c_str(), &st), 0);
  const off_t acked = st.st_size;
  failpoint::Arm("wal.torn_write", /*skip=*/0, /*fail=*/1);
  EXPECT_FALSE((*wal)->Append(SessionWal::AnswerRecord(Entry(3))).ok());
  ASSERT_EQ(::stat(WalPath("ghost-1").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, acked);
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(3))).ok());

  StatusOr<WalRecovery> recovered =
      ReadWalFile(WalPath("ghost-1"), "ghost-1");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->dropped_torn_tail);
  const std::vector<int64_t> chosen = {1, 1, 2, 3};  // ghost, then A, B, C
  ASSERT_EQ(recovered->entries.size(), chosen.size());
  for (size_t i = 0; i < chosen.size(); ++i) {
    EXPECT_EQ(recovered->entries[i].Dump(), Entry(chosen[i]).Dump());
  }
}

TEST_F(WalTest, FragmentThatCannotBeCutClosesTheFile) {
  // A pipe takes the torn prefix but cannot be truncated: the helper
  // closes it, so nothing can ever be appended after the fragment.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  failpoint::Arm("wal.torn_write", /*skip=*/0, /*fail=*/1);
  int write_fd = fds[1];
  int write_errno = 0;
  const Status written =
      AppendFully(&write_fd, "0123456789\n", "pipe", &write_errno);
  ::close(fds[0]);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(write_errno, ENOSPC);
  EXPECT_EQ(write_fd, -1);
  EXPECT_NE(::close(fds[1]), 0) << "the write end was left open";
}

TEST_F(WalTest, TornTailIsDroppedNotFatal) {
  // A crash mid-append leaves a half-written last line; the guarded
  // command was never acknowledged, so dropping it loses nothing.
  WriteRaw("s-4", kHeaderV2 +
                      Framed(SessionWal::CreateRecord(Params(3)).Dump()) +
                      Framed(SessionWal::AnswerRecord(Entry(1)).Dump()) +
                      "{\"op\":\"answer\",\"chos");
  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("s-4"), "s-4");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->dropped_torn_tail);
  ASSERT_EQ(recovered->entries.size(), 1u);
  EXPECT_EQ(recovered->entries[0].Get("chosen").AsInt(-1), 1);
}

TEST_F(WalTest, InteriorCorruptionIsAnError) {
  WriteRaw("s-5", SessionWal::CreateRecord(Params(3)).Dump() + "\n" +
                      "not json at all\n" +
                      SessionWal::AnswerRecord(Entry(1)).Dump() + "\n");
  EXPECT_FALSE(ReadWalFile(WalPath("s-5"), "s-5").ok());
}

TEST_F(WalTest, MissingCreateIsAnError) {
  WriteRaw("s-6", SessionWal::AnswerRecord(Entry(0)).Dump() + "\n");
  EXPECT_FALSE(ReadWalFile(WalPath("s-6"), "s-6").ok());
  WriteRaw("s-7", "");
  EXPECT_FALSE(ReadWalFile(WalPath("s-7"), "s-7").ok());
}

TEST_F(WalTest, RemoveDeletesTheFile) {
  auto wal = SessionWal::Open(dir_, "s-8");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(1))).ok());
  ASSERT_TRUE((*wal)->Remove().ok());
  struct stat st;
  EXPECT_NE(::stat(WalPath("s-8").c_str(), &st), 0);
  // Appending after removal must fail loudly, never silently succeed.
  EXPECT_FALSE((*wal)->Append(SessionWal::CloseRecord()).ok());
}

TEST_F(WalTest, ListWalSessionIdsFindsOnlyWalFiles) {
  WriteRaw("alpha", SessionWal::CreateRecord(Params(1)).Dump() + "\n");
  WriteRaw("beta", SessionWal::CreateRecord(Params(2)).Dump() + "\n");
  std::ofstream(dir_ + "/notes.txt") << "ignored";
  std::vector<std::string> ids = ListWalSessionIds(dir_);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "alpha");
  EXPECT_EQ(ids[1], "beta");
  ::unlink((dir_ + "/notes.txt").c_str());
}

TEST_F(WalTest, V2FilesOpenWithHeaderAndFramedRecords) {
  auto wal = SessionWal::Open(dir_, "v2-1");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(4))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(1))).ok());

  std::ifstream in(WalPath("v2-1"), std::ios::binary);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line + "\n", kHeaderV2);
  const std::string expect_create =
      Framed(SessionWal::CreateRecord(Params(4)).Dump());
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line + "\n", expect_create);
}

TEST_F(WalTest, V1LogsAreRejected) {
  // A log written by an older build — bare JSON lines, no header, no
  // checksums — is no longer read; recovery quarantines it
  // (CrashRecoveryTest.V1AndScratchWalsAreQuarantined).
  WriteRaw("v1-1", SessionWal::CreateRecord(Params(5)).Dump() + "\n" +
                       SessionWal::AnswerRecord(Entry(2)).Dump() + "\n");
  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("v1-1"), "v1-1");
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("v1"), std::string::npos)
      << recovered.status();
  // Framed records without the v2 header are rejected too.
  WriteRaw("v1-2", Framed(SessionWal::CreateRecord(Params(5)).Dump()));
  EXPECT_FALSE(ReadWalFile(WalPath("v1-2"), "v1-2").ok());
}

// Builds a known-good v2 log (create + 3 answers) and returns its raw
// bytes plus the expected recovered entries.
struct GoldenLog {
  std::string bytes;
  std::vector<std::string> entry_dumps;  // expected entries, in order
};

GoldenLog MakeGoldenLog() {
  GoldenLog log;
  JsonValue params = JsonValue::Object();
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("seed", JsonValue::Number(int64_t{11}));
  log.bytes = kHeaderV2;
  JsonValue create = JsonValue::Object();
  create.Set("op", JsonValue::String("create"));
  create.Set("params", params);
  log.bytes += Framed(create.Dump());
  for (int64_t i = 0; i < 3; ++i) {
    JsonValue question = JsonValue::Object();
    question.Set("source_cdd", JsonValue::Number(int64_t{0}));
    JsonValue entry = JsonValue::Object();
    entry.Set("chosen", JsonValue::Number(i));
    entry.Set("question", question);
    JsonValue record = JsonValue::Object();
    record.Set("op", JsonValue::String("answer"));
    record.Set("chosen", entry.Get("chosen"));
    record.Set("question", entry.Get("question"));
    log.bytes += Framed(record.Dump());
    log.entry_dumps.push_back(entry.Dump());
  }
  return log;
}

TEST_F(WalTest, SingleByteCorruptionIsNeverReplayed) {
  // The acceptance bar for checksummed framing: flip any single byte of
  // a valid log and recovery must either reject the file (quarantine)
  // or — when the flip masquerades as a torn tail on the final line —
  // recover an exact *prefix* of the original history. It must never
  // hand back a garbled or reordered record.
  const GoldenLog golden = MakeGoldenLog();
  for (size_t offset = 0; offset < golden.bytes.size(); ++offset) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string bytes = golden.bytes;
      bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
      const std::string id =
          "flip-" + std::to_string(offset) + "-" + std::to_string(mask);
      WriteRaw(id, bytes);
      StatusOr<WalRecovery> recovered = ReadWalFile(WalPath(id), id);
      if (!recovered.ok()) continue;  // quarantined: safe
      ASSERT_LE(recovered->entries.size(), golden.entry_dumps.size())
          << "offset " << offset << " mask " << int(mask);
      for (size_t i = 0; i < recovered->entries.size(); ++i) {
        EXPECT_EQ(recovered->entries[i].Dump(), golden.entry_dumps[i])
            << "offset " << offset << " mask " << int(mask);
      }
    }
  }
}

TEST_F(WalTest, TruncationAtEveryLengthIsTornTailOrQuarantine) {
  // A crash can cut the file at any byte. Every truncation length must
  // recover a prefix (dropping the torn final record) or be rejected —
  // losing the unacknowledged tail is fine, inventing records is not.
  const GoldenLog golden = MakeGoldenLog();
  for (size_t keep = 0; keep <= golden.bytes.size(); ++keep) {
    const std::string id = "trunc-" + std::to_string(keep);
    WriteRaw(id, golden.bytes.substr(0, keep));
    StatusOr<WalRecovery> recovered = ReadWalFile(WalPath(id), id);
    if (!recovered.ok()) continue;  // e.g. create record itself torn
    ASSERT_LE(recovered->entries.size(), golden.entry_dumps.size());
    for (size_t i = 0; i < recovered->entries.size(); ++i) {
      EXPECT_EQ(recovered->entries[i].Dump(), golden.entry_dumps[i])
          << "keep " << keep;
    }
    // A cut that lands mid-line must be visible as a torn tail; a cut
    // on a record boundary just looks like a shorter (valid) log. A cut
    // that removes only a record's trailing newline leaves a complete,
    // CRC-verified frame, so recovery keeps it whole and drops nothing.
    if (keep > 0 && golden.bytes[keep - 1] != '\n' &&
        golden.bytes[keep] != '\n') {
      EXPECT_TRUE(recovered->dropped_torn_tail) << "keep " << keep;
    }
  }
}

TEST_F(WalTest, InteriorSpliceIsQuarantined) {
  // Bytes dropped from the *middle* of the file (bad sector, editor
  // mishap) garble an interior frame; that is corruption, never a tear.
  const GoldenLog golden = MakeGoldenLog();
  const size_t mid = golden.bytes.size() / 2;
  const std::string spliced =
      golden.bytes.substr(0, mid - 8) + golden.bytes.substr(mid);
  WriteRaw("splice-1", spliced);
  EXPECT_FALSE(ReadWalFile(WalPath("splice-1"), "splice-1").ok());
}

TEST_F(WalTest, TerminatedGarbageAfterV2RecordsIsQuarantined) {
  // A v2 writer frames every record and a torn frame keeps its leading
  // length digits, so a complete line of unframed garbage under the v2
  // header cannot be a tear — reject it.
  const GoldenLog golden = MakeGoldenLog();
  WriteRaw("junk-1", golden.bytes + "not a frame at all\n");
  EXPECT_FALSE(ReadWalFile(WalPath("junk-1"), "junk-1").ok());
}

TEST_F(WalTest, UnterminatedGarbageTailIsTolerated) {
  // No newline means the final write never completed; whatever the
  // bytes look like, the guarded command was never acknowledged.
  const GoldenLog golden = MakeGoldenLog();
  WriteRaw("junk-2", golden.bytes + "zzzz");
  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("junk-2"), "junk-2");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->entries.size(), 3u);
}

TEST_F(WalTest, CrcMismatchOnFinalCompleteLineIsBitRotNotTear) {
  // The declared payload length is fully present, so this cannot be a
  // truncated write — only flipped bits. Quarantine even at EOF.
  const GoldenLog golden = MakeGoldenLog();
  std::string bytes = golden.bytes;
  // Corrupt one payload byte of the last record (line is terminated and
  // structurally complete).
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x04);
  WriteRaw("rot-1", bytes);
  EXPECT_FALSE(ReadWalFile(WalPath("rot-1"), "rot-1").ok());
}

TEST_F(WalTest, DiskFullErrnoClassification) {
  EXPECT_TRUE(IsDiskFullErrno(ENOSPC));
  EXPECT_TRUE(IsDiskFullErrno(EDQUOT));
  EXPECT_TRUE(IsDiskFullErrno(EIO));
  EXPECT_FALSE(IsDiskFullErrno(EINTR));
  EXPECT_FALSE(IsDiskFullErrno(EBADF));
}

TEST_F(WalTest, InjectedFsyncFailureIsNeverDiskFull) {
  auto wal = SessionWal::Open(dir_, "fsync-1");
  ASSERT_TRUE(wal.ok()) << wal.status();
  // The injected failure follows a successful fsync; an errno left over
  // from an earlier call must not make it look like a failing disk.
  failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
  errno = EIO;
  bool fsync_failed = false;
  bool disk_full = true;
  const Status appended = (*wal)->Append(SessionWal::CreateRecord(Params(1)),
                                         &fsync_failed, &disk_full);
  failpoint::Reset();
  EXPECT_FALSE(appended.ok());
  EXPECT_TRUE(fsync_failed);
  EXPECT_FALSE(disk_full);
  EXPECT_NE(appended.message().find("injected"), std::string::npos)
      << appended;
}

TEST_F(WalTest, ProbeWalDirWritableRoundtrips) {
  EXPECT_TRUE(ProbeWalDirWritable(dir_).ok());
  // The probe cleans up after itself.
  struct stat st;
  EXPECT_NE(::stat((dir_ + "/.disk-probe").c_str(), &st), 0);
  EXPECT_FALSE(ProbeWalDirWritable(dir_ + "/no-such-subdir").ok());
}

TEST_F(WalTest, ReaderReportsRecordIndexAndByteOffset) {
  auto wal = SessionWal::Open(dir_, "coord-1");
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(7))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(2))).ok());
  ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(0))).ok());

  StatusOr<WalReader> reader = WalReader::Open(WalPath("coord-1"));
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::vector<WalRecordRef> refs;
  while (true) {
    WalRecordRef ref;
    bool done = false;
    ASSERT_TRUE(reader->Next(&ref, &done).ok());
    if (done) break;
    refs.push_back(std::move(ref));
  }
  ASSERT_EQ(refs.size(), 3u);
  // Line 1 is the v2 header, so the create record is line 2.
  EXPECT_EQ(refs[0].record_index, 2u);
  EXPECT_EQ(refs[1].record_index, 3u);
  EXPECT_EQ(refs[2].record_index, 4u);
  EXPECT_EQ(refs[0].byte_offset, std::string("#kbrepair-wal v2\n").size());
  EXPECT_GT(refs[1].byte_offset, refs[0].byte_offset);
  EXPECT_GT(refs[2].byte_offset, refs[1].byte_offset);
  // Each offset points at the start of its line: re-reading the file at
  // that offset must reproduce the record's framed line.
  std::ifstream file(WalPath("coord-1"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  for (const WalRecordRef& ref : refs) {
    const size_t eol = bytes.find('\n', ref.byte_offset);
    ASSERT_NE(eol, std::string::npos);
    const std::string line =
        bytes.substr(ref.byte_offset, eol - ref.byte_offset);
    EXPECT_NE(line.find(ref.record.Dump()), std::string::npos)
        << "record " << ref.record_index;
  }

  // Recovery carries the same coordinates per transcript entry.
  StatusOr<WalRecovery> recovered = ReadWalFile(WalPath("coord-1"), "coord-1");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(recovered->entry_origins.size(), 2u);
  EXPECT_EQ(recovered->entry_origins[0].record_index, 3u);
  EXPECT_EQ(recovered->entry_origins[0].byte_offset, refs[1].byte_offset);
  EXPECT_EQ(recovered->entry_origins[1].record_index, 4u);
  EXPECT_EQ(recovered->entry_origins[1].byte_offset, refs[2].byte_offset);
}

TEST_F(WalTest, TornTailCoordinatesNameTheDroppedLine) {
  std::string bytes;
  {
    auto wal = SessionWal::Open(dir_, "coord-2");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(Params(3))).ok());
    ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(Entry(1))).ok());
  }
  {
    std::ifstream file(WalPath("coord-2"), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(file)),
                 std::istreambuf_iterator<char>());
  }
  const uint64_t torn_offset = bytes.size();
  WriteRaw("coord-2", bytes + "{\"op\":\"answer\",\"chos");

  StatusOr<WalReader> reader = WalReader::Open(WalPath("coord-2"));
  ASSERT_TRUE(reader.ok()) << reader.status();
  WalRecordRef ref;
  bool done = false;
  size_t records = 0;
  while (true) {
    ASSERT_TRUE(reader->Next(&ref, &done).ok());
    if (done) break;
    ++records;
  }
  EXPECT_EQ(records, 2u);
  ASSERT_TRUE(reader->dropped_torn_tail());
  // Header + create + answer occupy lines 1-3; the torn line is 4 and
  // starts exactly where the intact bytes ended.
  EXPECT_EQ(reader->torn_record_index(), 4u);
  EXPECT_EQ(reader->torn_byte_offset(), torn_offset);
}

}  // namespace
}  // namespace kbrepair
