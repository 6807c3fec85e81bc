// Navigation-depth analysis: the paper's h(T) bound (Section 4.1) per
// task, unclamped. It is reported, not used: the verifier runs at the
// fixed VerifierOptions::max_nav_depth. Its growth per schema class
// (Appendix C.3, Theorems 56-58) is pinned by tests/nav_test.cc.
#ifndef HAS_CORE_NAV_H_
#define HAS_CORE_NAV_H_

#include <cstdint>
#include <vector>

#include "model/artifact_system.h"

namespace has {

/// h(T) for every task (indexed by TaskId), saturating at kSaturated.
std::vector<uint64_t> PaperNavigationDepths(const ArtifactSystem& system);

}  // namespace has

#endif  // HAS_CORE_NAV_H_
