// Locates the committed example specs and fuzz corpus from any build
// directory: the root CMakeLists.txt defines HAS_SOURCE_DIR for every
// test target, so lookups do not depend on the working directory.
#ifndef HAS_TESTS_TEST_PATHS_H_
#define HAS_TESTS_TEST_PATHS_H_

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef HAS_SOURCE_DIR
#error "HAS_SOURCE_DIR must name the source tree (set in CMakeLists.txt)"
#endif

namespace has {

/// Contents of the file at `path`, or "" when it is missing.
inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Contents of examples/specs/<name>, or "" when the file is missing.
inline std::string LoadSpec(const std::string& name) {
  return ReadFile(std::string(HAS_SOURCE_DIR) + "/examples/specs/" + name);
}

/// Every `.has` file directly under the source-tree directory `dir`
/// (for example "tests/fuzz_corpus"), as sorted paths.
inline std::vector<std::string> SpecFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(HAS_SOURCE_DIR) / dir)) {
    if (entry.path().extension() == ".has") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace has

#endif  // HAS_TESTS_TEST_PATHS_H_
