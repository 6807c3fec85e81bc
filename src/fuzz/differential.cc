#include "fuzz/differential.h"

#include <utility>

#include "common/strings.h"
#include "data/generator.h"
#include "fuzz/metamorphic.h"
#include "runs/bounded_checker.h"
#include "runs/run_tree.h"
#include "runs/simulator.h"

namespace has {

namespace {

struct ConfigRun {
  std::string label;
  Verdict verdict;
};

std::string VerdictTable(const std::vector<ConfigRun>& runs) {
  std::string out;
  for (const ConfigRun& r : runs) {
    out += StrCat(r.label, ": ", VerdictName(r.verdict), "\n");
  }
  return out;
}

}  // namespace

const char* DiffKindName(DiffReport::Kind kind) {
  switch (kind) {
    case DiffReport::Kind::kAgreed:
      return "agreed";
    case DiffReport::Kind::kInconclusive:
      return "inconclusive";
    case DiffReport::Kind::kSymbolicMismatch:
      return "symbolic-mismatch";
    case DiffReport::Kind::kConcreteMismatch:
      return "concrete-mismatch";
    case DiffReport::Kind::kMissingWitness:
      return "missing-witness";
    case DiffReport::Kind::kSuspectWitness:
      return "suspect-witness";
  }
  return "?";
}

DiffReport RunDifferential(const ArtifactSystem& system,
                           const HltlProperty& property,
                           const DiffOptions& options) {
  DiffReport report;

  // --- symbolic matrix ------------------------------------------------------
  std::vector<ConfigRun> runs;
  bool any_inconclusive = false;
  std::vector<bool> por_values = options.vary_por
                                     ? std::vector<bool>{true, false}
                                     : std::vector<bool>{true};
  std::vector<bool> slice_values = options.vary_slice
                                       ? std::vector<bool>{true, false}
                                       : std::vector<bool>{true};
  for (bool por : por_values) {
    for (bool slice : slice_values) {
      VerifierOptions vo;
      vo.por = por;
      vo.slice = slice;
      vo.max_cov_nodes = options.max_cov_nodes;
      VerifyResult result = Verify(system, property, vo);
      runs.push_back(ConfigRun{
          StrCat("por=", por ? 1 : 0, " slice=", slice ? 1 : 0),
          result.verdict});
      if (result.verdict == Verdict::kInconclusive) any_inconclusive = true;
    }
  }
  if (any_inconclusive) {
    report.kind = DiffReport::Kind::kInconclusive;
    report.detail = VerdictTable(runs);
    return report;
  }
  for (const ConfigRun& r : runs) {
    if (r.verdict != runs.front().verdict) {
      report.kind = DiffReport::Kind::kSymbolicMismatch;
      report.detail = VerdictTable(runs);
      return report;
    }
  }
  report.verdict = runs.front().verdict;

  // --- concrete side --------------------------------------------------------
  HltlProperty negated = property.Negated();
  for (int i = 0; i < options.concrete_databases; ++i) {
    GeneratorOptions gen;
    gen.tuples_per_relation = options.tuples_per_relation;
    gen.seed = options.concrete_seed + static_cast<uint64_t>(i) * 977;
    DatabaseInstance db = GenerateInstance(system.schema(), gen);

    SimulatorOptions sim;
    sim.seed = gen.seed;

    // Simulator self-consistency: everything it produces must be a
    // legal tree of local runs (a third semantics checking the second).
    for (int attempt = 0; attempt < 4; ++attempt) {
      sim.seed = sim.seed * 6364136223846793005ULL + 1442695040888963407ULL;
      std::optional<RunTree> tree = SimulateTree(system, db, sim);
      if (!tree.has_value()) continue;
      Status legal = CheckRunTree(system, db, *tree);
      if (!legal.ok()) {
        report.kind = DiffReport::Kind::kConcreteMismatch;
        report.detail =
            StrCat("simulated tree fails CheckRunTree (db seed ", gen.seed,
                   "): ", legal.message());
        return report;
      }
    }

    std::optional<RunTree> witness = FindTreeSatisfying(
        system, db, negated, options.concrete_attempts, sim);
    if (witness.has_value()) {
      report.witness_found = true;
      if (report.verdict == Verdict::kHolds) {
        // A finite-word witness against a HOLDS verdict: soft. Probe
        // vacuity (V(false) = HOLDS iff the run set is empty) so the
        // report explains the common deadlock-prefix case itself.
        VerifierOptions vo;
        vo.max_cov_nodes = options.max_cov_nodes;
        Verdict vacuous =
            Verify(system, ConstantProperty(system, false), vo).verdict;
        report.kind = DiffReport::Kind::kSuspectWitness;
        report.detail = StrCat(
            "symbolic verdict HOLDS but a finite tree satisfies the "
            "negated property (db seed ",
            gen.seed, "); vacuity probe V(false)=", VerdictName(vacuous),
            vacuous == Verdict::kHolds
                ? " (empty run set: the verdict is vacuous and the "
                  "finite tree is a deadlocked prefix, not a run)"
                : " (runs exist: deadlock-prefix artifact or a real "
                  "bug — inspect the witness)");
        return report;
      }
      break;  // a VIOLATED verdict is confirmed; stop searching
    }
  }

  if (report.verdict == Verdict::kViolated && !report.witness_found) {
    report.kind = DiffReport::Kind::kMissingWitness;
    report.detail =
        StrCat("symbolic verdict VIOLATED but no concrete witness in ",
               options.concrete_databases, " databases x ",
               options.concrete_attempts, " attempts");
    return report;
  }

  report.kind = DiffReport::Kind::kAgreed;
  return report;
}

bool IsDisagreement(const DiffReport& report, const DiffOptions& options) {
  switch (report.kind) {
    case DiffReport::Kind::kSymbolicMismatch:
    case DiffReport::Kind::kConcreteMismatch:
      return true;
    case DiffReport::Kind::kMissingWitness:
      return options.require_witness;
    case DiffReport::Kind::kSuspectWitness:
      return options.strict_witness;
    case DiffReport::Kind::kAgreed:
    case DiffReport::Kind::kInconclusive:
      return false;
  }
  return false;
}

}  // namespace has
