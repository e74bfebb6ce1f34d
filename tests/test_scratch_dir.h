// Per-process scratch directory for tests that write files.
//
// Fixed names under ::testing::TempDir() collide when two test processes
// run at once (two checkouts testing on one host), and a killed run leaves
// state the next run trips over. TestScratchDir() creates one fresh
// directory per process with mkdtemp on first use and removes it, with
// everything in it, when that process exits. Forked children (death tests)
// inherit the path but never remove it.

#ifndef SLICENSTITCH_TESTS_TEST_SCRATCH_DIR_H_
#define SLICENSTITCH_TESTS_TEST_SCRATCH_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "common/check.h"

namespace sns {

inline const std::string& TestScratchDir() {
  struct Dir {
    Dir() : owner(getpid()) {
      std::string pattern =
          (std::filesystem::path(::testing::TempDir()) / "sns_test_XXXXXX")
              .string();
      SNS_CHECK(mkdtemp(pattern.data()) != nullptr);
      path = pattern;
    }
    ~Dir() {
      if (getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    pid_t owner;
    std::string path;
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace sns

#endif  // SLICENSTITCH_TESTS_TEST_SCRATCH_DIR_H_
