#include "util/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/errno_text.h"
#include "util/failpoint.h"

namespace kbrepair {
namespace {

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status AppendFully(int* fd, const std::string& data, const std::string& path,
                   int* write_errno) {
  // The file's real end, not a running count: a record whose fsync
  // failed stays in the file and later appends follow it.
  const off_t start = ::lseek(*fd, 0, SEEK_END);
  // The injected tear lands a real prefix, so the cut below is what
  // keeps it out of the file.
  const bool tear = failpoint::ShouldFail("wal.torn_write");
  const size_t goal = tear ? data.size() / 2 : data.size();
  size_t written = 0;
  int err = ENOSPC;
  while (written < goal) {
    const ssize_t n = ::write(*fd, data.data() + written, goal - written);
    if (n >= 0) {
      written += static_cast<size_t>(n);
    } else if (errno != EINTR) {
      err = errno;
      break;
    }
  }
  if (written == data.size()) return Status::Ok();
  if (write_errno != nullptr) *write_errno = err;
  std::string message = "write " + path + ": " +
                        (tear ? "injected torn write: " : "") + ErrnoText(err);
  if (written > 0 && (start < 0 || ::ftruncate(*fd, start) != 0)) {
    message += "; cutting the partial record failed: " + ErrnoText();
    ::close(*fd);
    *fd = -1;
  }
  return Status::Unavailable(message);
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  KBREPAIR_FAILPOINT("fs.atomic_write",
                     Status::Unavailable("injected atomic-write failure: " + path));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("open " + tmp + ": " + ErrnoText());
  }
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Unavailable("write " + tmp + ": " + ErrnoText());
      ::close(fd);
      ::unlink(tmp.c_str());
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || failpoint::ShouldFail("fs.fsync")) {
    const Status status = Status::Unavailable("fsync " + tmp + ": " + ErrnoText());
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Unavailable("close " + tmp + ": " + ErrnoText());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status =
        Status::Unavailable("rename " + tmp + " -> " + path + ": " + ErrnoText());
    ::unlink(tmp.c_str());
    return status;
  }
  return FsyncParentDir(path);
}

Status FsyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable("open dir " + dir + ": " + ErrnoText());
  }
  // Some filesystems (and sandboxes) reject fsync on directories with
  // EINVAL; that is not a data-loss signal, so only real I/O errors
  // propagate.
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0 && saved_errno != EINVAL && saved_errno != EBADF) {
    return Status::Unavailable("fsync dir " + dir + ": " +
                               ErrnoText(saved_errno));
  }
  return Status::Ok();
}

std::vector<std::string> ListFilesWithSuffix(const std::string& dir,
                                             const std::string& suffix) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace kbrepair
