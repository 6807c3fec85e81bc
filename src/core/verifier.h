// Top-level model checker: does every tree of local runs of the HAS
// satisfy the HLTL-FO property? Implements the roadmap of Section 4:
// negate the property, build the automaton family B(T,β), compute the
// R_T relations bottom-up via (repeated) reachability on the per-task
// VASS products, and report HOLDS, or VIOLATED with a symbolic
// counterexample, or INCONCLUSIVE when a search budget was exhausted.
#ifndef HAS_CORE_VERIFIER_H_
#define HAS_CORE_VERIFIER_H_

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/rt_relation.h"
#include "model/validate.h"

namespace has {

enum class Verdict {
  kHolds,
  kViolated,
  /// A budget knob (coverability nodes, branches, lasso search) was
  /// exhausted before a definite answer; the result is not trusted.
  kInconclusive,
};

const char* VerdictName(Verdict v);

struct VerifyResult {
  Verdict verdict = Verdict::kInconclusive;
  /// Human-readable symbolic counterexample (kViolated only).
  std::string counterexample;
  RtStats stats;
  /// True iff the arithmetic (cell) machinery was engaged.
  bool used_arithmetic = false;
  int hcd_polys = 0;
  /// Static-analyzer findings for the verified spec (analysis/). Never
  /// affects the verdict unless VerifierOptions::strict_analysis, which
  /// aborts on any finding.
  std::vector<Diagnostic> diagnostics;
};

/// Model-checks `property` against `system` on the calling thread. The
/// verdict, counterexample and exploration statistics are deterministic
/// functions of the inputs and options.
VerifyResult Verify(const ArtifactSystem& system,
                    const HltlProperty& property,
                    const VerifierOptions& options = {});

/// Builds the Hierarchical Cell Decomposition for a system+property
/// (exposed for benchmarking the cell machinery).
Hcd BuildSystemHcd(const ArtifactSystem& system,
                   const HltlProperty& property);

/// True iff any condition of the system or property uses genuine
/// arithmetic (beyond constant tags).
bool SystemUsesArithmetic(const ArtifactSystem& system,
                          const HltlProperty& property);

}  // namespace has

#endif  // HAS_CORE_VERIFIER_H_
