/// \file golden_file.hpp
/// \brief Golden-file comparison for the suites that pin rendered output
///        (event traces, declaration dumps): report the first diverging
///        line, or rewrite the file when FVF_UPDATE_GOLDEN is set.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace fvf::golden {

inline std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline void report_first_difference(const std::string& expected,
                                    const std::string& actual) {
  std::istringstream a(expected);
  std::istringstream b(actual);
  std::string la;
  std::string lb;
  usize line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) {
      return;
    }
    if (la != lb || ga != gb) {
      ADD_FAILURE() << "output diverges from golden at line " << line
                    << "\n  golden: " << (ga ? la : "<end of file>")
                    << "\n  actual: " << (gb ? lb : "<end of file>");
      return;
    }
  }
}

/// Compares `actual` to the golden file at `path`, or rewrites the
/// golden when FVF_UPDATE_GOLDEN is set.
inline void check_against_golden(const char* path, const std::string& actual) {
  if (std::getenv("FVF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << path
      << " — run with FVF_UPDATE_GOLDEN=1 to create it";
  if (actual != expected) {
    report_first_difference(expected, actual);
  }
}

}  // namespace fvf::golden
