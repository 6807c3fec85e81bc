// Three-way differential driver for one (system, property) pair: the
// symbolic verifier across a configuration matrix (POR on/off × slice
// on/off — both knobs advertised verdict-invariant),
// the concrete simulator (every simulated tree must pass CheckRunTree),
// and the bounded checker.
//
// The two bounded-checker legs are SOFT by default, because both are
// approximations by construction:
//
//  - HOLDS + a finite tree satisfying the negation (kSuspectWitness).
//    The engine's run set contains returning, ⊥-blocked and infinite
//    runs only — a configuration from which no service is enabled and
//    the task cannot close contributes NO run (a system whose root
//    deadlocks immediately has an EMPTY run set, and every property
//    holds vacuously). The simulator, by contrast, emits finite
//    prefixes and the bounded checker evaluates them with finite-word
//    LTL — so a prefix that only extends to deadlock can "witness" the
//    negation of a vacuously-true property. The report carries a
//    vacuity probe (V(false): HOLDS iff the run set is empty) so the
//    obviously-vacuous cases explain themselves; the rest may be a
//    genuine bug or a deadlock-prefix artifact and need a human (or
//    DiffOptions::strict_witness to escalate).
//
//  - VIOLATED + no concrete witness of the negation (kMissingWitness).
//    The randomized bounded search is incomplete.
//
// Exact engine-bug detection with no run-set caveat lives in
// fuzz/metamorphic.h (verdict-algebra relations).
#ifndef HAS_FUZZ_DIFFERENTIAL_H_
#define HAS_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.h"

namespace has {

struct DiffOptions {
  /// Symbolic matrix: {por} × {slice} when varied, default-only
  /// otherwise.
  bool vary_por = true;
  bool vary_slice = true;
  /// Coverability budget per query — deliberately smaller than the
  /// verifier default so adversarial random specs time out into
  /// kInconclusive (skipped, counted) instead of stalling the run.
  size_t max_cov_nodes = 1 << 12;

  /// Concrete side: databases tried, simulation/search attempts per
  /// database, base seed, and instance size.
  int concrete_databases = 2;
  int concrete_attempts = 60;
  uint64_t concrete_seed = 1;
  int tuples_per_relation = 3;

  /// Escalate VIOLATED-without-concrete-witness from a soft finding to
  /// a disagreement (off by default: the bounded search is incomplete).
  bool require_witness = false;
  /// Escalate HOLDS-with-finite-witness from a soft finding to a
  /// disagreement (off by default: finite-prefix evaluation cannot
  /// refute a verdict quantified over the engine's run set — see the
  /// header comment).
  bool strict_witness = false;
};

struct DiffReport {
  enum class Kind {
    /// Every symbolic config returned the same definite verdict and the
    /// concrete side is consistent with it.
    kAgreed,
    /// Some config exhausted a budget; verdict comparison skipped.
    kInconclusive,
    /// Definite verdicts differ across symbolic configs.
    kSymbolicMismatch,
    /// A simulated tree failed CheckRunTree (always a genuine bug: the
    /// simulator and the run-legality checker implement the same
    /// operational semantics).
    kConcreteMismatch,
    /// VIOLATED but the bounded search produced no concrete witness
    /// (soft: the search is incomplete).
    kMissingWitness,
    /// HOLDS but a finite tree satisfies the negation (soft: may be a
    /// deadlock-prefix artifact of the run-set semantics; `detail`
    /// includes the vacuity probe).
    kSuspectWitness,
  };

  Kind kind = Kind::kAgreed;
  /// The agreed symbolic verdict (meaningful unless kInconclusive or
  /// kSymbolicMismatch).
  Verdict verdict = Verdict::kInconclusive;
  bool witness_found = false;
  /// Per-config verdict table on mismatches; failure text otherwise.
  std::string detail;
};

const char* DiffKindName(DiffReport::Kind kind);

/// Runs one property through the full matrix. The system and property
/// MUST be validated first — Verify aborts the process on invalid
/// input, so the harness validates before calling this.
DiffReport RunDifferential(const ArtifactSystem& system,
                           const HltlProperty& property,
                           const DiffOptions& options = {});

/// Whether the report is a finding the harness must shrink and commit
/// (mismatches always; missing witness only under require_witness;
/// suspect witness only under strict_witness).
bool IsDisagreement(const DiffReport& report, const DiffOptions& options);

}  // namespace has

#endif  // HAS_FUZZ_DIFFERENTIAL_H_
