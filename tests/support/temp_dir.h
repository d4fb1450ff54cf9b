// A scratch directory for one test: created under /tmp from a name
// prefix, removed with everything in it when the test ends.

#ifndef KBREPAIR_TESTS_SUPPORT_TEMP_DIR_H_
#define KBREPAIR_TESTS_SUPPORT_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

namespace kbrepair {

struct TempDir {
  // Makes "/tmp/<prefix>XXXXXX"; a failed mkdtemp fails the test and
  // leaves `path` empty.
  explicit TempDir(const std::string& prefix) {
    std::string tmpl = "/tmp/" + prefix + "XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp(" << tmpl << ") failed";
      return;
    }
    path = tmpl;
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

}  // namespace kbrepair

#endif  // KBREPAIR_TESTS_SUPPORT_TEMP_DIR_H_
