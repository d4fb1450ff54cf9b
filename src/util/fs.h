// Small durable-file helpers shared by the WAL, the base registry's log
// and the transcript flusher: appends that never leave a fragment,
// atomic whole-file replacement (tmp + fsync + rename) and directory
// fsync, with failpoint hooks for the fault-injection suite.

#ifndef KBREPAIR_UTIL_FS_H_
#define KBREPAIR_UTIL_FS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace kbrepair {

// Writes all of `data` to the end of `*fd` (O_APPEND) without fsync. A
// write that fails part-way, like a short write and then ENOSPC or the
// `wal.torn_write` failpoint, is cut back to where the file ended
// before it; if that cut fails too, `*fd` is closed and set to -1, so
// nothing is ever appended after a fragment. Unavailable on failure,
// with the write's errno in `*write_errno` (optional).
Status AppendFully(int* fd, const std::string& data, const std::string& path,
                   int* write_errno = nullptr);

// Writes `contents` to `path` atomically: the data lands in
// `path + ".tmp"` first, is fsync'd, then renamed over `path`, and the
// parent directory is fsync'd so the rename itself is durable. Readers
// never observe a partial file. Unavailable on any I/O failure (the
// tmp file is cleaned up best-effort).
Status AtomicWriteFile(const std::string& path, const std::string& contents);

// fsync on the directory containing `path` (durability of renames /
// unlinks inside it). Best-effort on filesystems that reject directory
// fsync; real write errors are returned.
Status FsyncParentDir(const std::string& path);

// Lexicographically sorted regular-file names (not paths) in `dir` with
// the given suffix; empty when the directory does not exist.
std::vector<std::string> ListFilesWithSuffix(const std::string& dir,
                                             const std::string& suffix);

}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_FS_H_
