// Traced runner of the verification benchmark: verifies one workload's
// properties for the requested wall time, each one twice — once with
// has::Verify and once with the span-recording replica (replica.h), in
// alternating order. Every replayed verification must reproduce
// Verify's verdict, counterexample and exploration counters exactly,
// and every Verify verdict must match the known answer. Prints the
// per-layer metrics (per verified property) as the last line of stdout
// and writes the spans to --trace-out.
//
//   perfbench_traced --workload deep_h4 --seed 1 --seconds 10
//                    --answers perfbench/answers.tsv --trace-out spans.txt
#include <iostream>

#include "common.h"
#include "replica.h"

namespace {

using perfbench::Clock;
using perfbench::Layer;
using perfbench::SecondsSince;

/// Largest share of the traced wall time the spans may leave
/// unattributed: a layer missing from the replica's spans shows up here
/// long before it could hide in the per-layer self times.
constexpr double kMaxUnattributedShare = 0.05;

/// Differences between Verify's result and the replica's, or "".
std::string Compare(const has::VerifyResult& want,
                    const has::VerifyResult& got) {
  std::string diff;
  const auto field = [&diff](const char* name, size_t a, size_t b) {
    if (a != b) {
      diff += std::string(" ") + name + " " + std::to_string(a) + "!=" +
              std::to_string(b);
    }
  };
  field("verdict", static_cast<size_t>(want.verdict),
        static_cast<size_t>(got.verdict));
  field("queries", want.stats.queries, got.stats.queries);
  field("cov_nodes", want.stats.cov_nodes, got.stats.cov_nodes);
  field("cov_edges", want.stats.cov_edges, got.stats.cov_edges);
  field("product_states", want.stats.product_states,
        got.stats.product_states);
  field("pooled_types", want.stats.pooled_types, got.stats.pooled_types);
  if (want.counterexample != got.counterexample) diff += " counterexample";
  return diff;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::Answers answers;
  std::string error;
  if (!answers.Load(args.answers, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const perfbench::Inputs in =
      perfbench::MakeInputs(args.workload, args.seed, answers.CorpusPool());
  const has::VerifierOptions options = perfbench::OptionsFor(args.workload);

  perfbench::Tracer tracer;
  perfbench::LayerCounts counts;
  double verify_s = 0;  // Verify calls
  double replay_s = 0;  // TracedVerify calls
  double traced_s = 0;  // TracedVerify calls plus parsing
  size_t attempted = 0;
  std::vector<std::string> failures;

  const Clock::time_point start = Clock::now();
  // Whole passes over the inputs only, so every run of one seed
  // measures the same mix of specs.
  while (attempted == 0 || SecondsSince(start) < args.seconds) {
    for (size_t i = 0; i < perfbench::NumSpecs(in); ++i) {
      tracer.set_item(static_cast<uint32_t>(attempted));
      has::ParsedSpec scratch;
      const Clock::time_point t_parse = Clock::now();
      const has::ParsedSpec* spec;
      {
        perfbench::Tracer::Scope span(&tracer, Layer::kParse);
        spec = &perfbench::LoadSpec(in, i, &scratch);
      }
      traced_s += SecondsSince(t_parse);
      for (const auto& [prop_name, property] : spec->properties) {
        const std::string item = perfbench::SpecName(in, i) + "/" + prop_name;
        tracer.set_item(static_cast<uint32_t>(attempted));
        has::VerifyResult want;
        has::VerifyResult got;
        const auto run_verify = [&] {
          const Clock::time_point t0 = Clock::now();
          want = has::Verify(spec->system, property, options);
          verify_s += SecondsSince(t0);
        };
        const auto run_replay = [&] {
          const Clock::time_point t0 = Clock::now();
          got = perfbench::TracedVerify(spec->system, property, options,
                                        &tracer, &counts);
          const double s = SecondsSince(t0);
          replay_s += s;
          traced_s += s;
        };
        if (attempted % 2 == 0) {
          run_verify();
          run_replay();
        } else {
          run_replay();
          run_verify();
        }
        ++attempted;
        std::string why = answers.Check(item, want.verdict);
        const std::string diff = Compare(want, got);
        if (!diff.empty()) {
          why += (why.empty() ? item + ":" : ";") + " replica differs:" + diff;
        }
        if (!why.empty()) failures.push_back(why);
      }
    }
  }

  const std::array<double, perfbench::kNumLayers> self = tracer.SelfMs();
  const double unattributed = 1 - Ratio(tracer.TopLevelMs(), 1e3 * traced_s);
  const bool covered = unattributed <= kMaxUnattributedShare;
  std::cout << "workload " << perfbench::WorkloadName(args.workload)
            << " seed " << args.seed << "\n"
            << "traced " << attempted << " verifications ("
            << tracer.num_spans() << " spans), " << failures.size()
            << " failed; unattributed share " << unattributed << "\n";
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";
  if (!covered) {
    std::cout << "FAILED spans leave more than " << kMaxUnattributedShare
              << " of the traced time unattributed\n";
  }
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
    return 2;
  }

  const double n = static_cast<double>(counts.verifications);
  const auto ms = [&](Layer l) {
    return Ratio(self[static_cast<size_t>(l)], n);
  };
  const auto per = [&](size_t c) { return Ratio(static_cast<double>(c), n); };
  perfbench::PrintResult(
      failures.empty() && covered, attempted, failures.size(),
      {{"core.prepare_self_ms", ms(Layer::kPrepare), "ms"},
       {"core.prepare_calls", per(counts.prepare_calls), "count"},
       {"core.prepare_shared_share",
        1 - Ratio(static_cast<double>(counts.prepare_distinct),
                  static_cast<double>(counts.prepare_calls)),
        "ratio"},
       {"core.type_interns", per(counts.type_interns), "count"},
       {"core.type_hit_ratio",
        Ratio(static_cast<double>(counts.type_hits),
              static_cast<double>(counts.type_interns)),
        "ratio"},
       {"core.rt_queries", per(counts.rt_queries), "count"},
       {"core.rt_query_calls", per(counts.rt_query_calls), "count"},
       {"core.rt_memo_hit_ratio",
        1 - Ratio(static_cast<double>(counts.rt_queries),
                  static_cast<double>(counts.rt_query_calls)),
        "ratio"},
       {"core.rt_query_self_ms", ms(Layer::kRtQuery), "ms"},
       {"core.product_init_ms", ms(Layer::kProductInit), "ms"},
       {"core.commit_ms", ms(Layer::kCommit), "ms"},
       {"core.check_root_self_ms", ms(Layer::kCheckRoot), "ms"},
       {"core.engine_init_ms", ms(Layer::kEngineInit), "ms"},
       {"core.counterexample_ms", ms(Layer::kCounterexample), "ms"},
       {"core.teardown_ms", ms(Layer::kTeardown), "ms"},
       {"vass.km_self_ms", ms(Layer::kKarpMiller), "ms"},
       {"vass.cov_nodes", per(counts.cov_nodes), "count"},
       {"vass.cov_edges", per(counts.cov_edges), "count"},
       {"vass.pruned_successors", per(counts.pruned_successors), "count"},
       {"vass.antichain_probes", per(counts.antichain_probes), "count"},
       {"vass.ample_reduced_successors",
        per(counts.ample_reduced_successors), "count"},
       {"vass.lasso_ms", ms(Layer::kLasso), "ms"},
       {"arith.hcd_ms", ms(Layer::kHcd), "ms"},
       {"arith.hcd_polys", per(counts.hcd_polys), "count"},
       {"arith.cell_interns", per(counts.cell_interns), "count"},
       {"arith.cell_hit_ratio",
        Ratio(static_cast<double>(counts.cell_hits),
              static_cast<double>(counts.cell_interns)),
        "ratio"},
       {"spec.parse_ms", ms(Layer::kParse), "ms"},
       {"model.validate_ms", ms(Layer::kValidate), "ms"},
       {"analysis.analyze_ms", ms(Layer::kAnalyze), "ms"},
       {"analysis.slice_ms", ms(Layer::kSlice), "ms"},
       {"analysis.diagnostics", per(counts.diagnostics), "count"},
       {"analysis.sliced_dims", per(counts.sliced_dims), "count"},
       {"trace.overhead_share", Ratio(replay_s, verify_s) - 1, "ratio"},
       {"trace.unattributed_share", unattributed, "ratio"}});
  return 0;
}
