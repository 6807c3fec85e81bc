// Locates the committed example specs from any build directory: the
// root CMakeLists.txt defines HAS_SOURCE_DIR for every test target, so
// lookups do not depend on the working directory.
#ifndef HAS_TESTS_TEST_PATHS_H_
#define HAS_TESTS_TEST_PATHS_H_

#include <fstream>
#include <sstream>
#include <string>

#ifndef HAS_SOURCE_DIR
#error "HAS_SOURCE_DIR must name the source tree (set in CMakeLists.txt)"
#endif

namespace has {

/// Contents of examples/specs/<name>, or "" when the file is missing.
inline std::string LoadSpec(const std::string& name) {
  std::ifstream in(std::string(HAS_SOURCE_DIR) + "/examples/specs/" + name);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace has

#endif  // HAS_TESTS_TEST_PATHS_H_
