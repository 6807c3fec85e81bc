// Traced replica of has::Verify for the benchmark's per-layer run. It
// replays Verify's body and RtEngine's query loop through the library's
// public calls (TaskVass, KarpMiller, FindAcceptingLasso, ...) and
// records a span around each layer, so the engine itself carries no
// timers. The traced runner checks that every replayed verification is
// counter-identical to Verify; the timed runner never links this file.
#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.h"

namespace perfbench {

/// Layers a span can belong to. A layer's self time is the time its
/// spans cover minus the time their child spans cover.
enum class Layer : uint8_t {
  kParse,           ///< ParseSpec of a .has source
  kValidate,        ///< ValidateSystem + property validation
  kAnalyze,         ///< static analyzer
  kSlice,           ///< slice plan + sliced copies (+ their validation)
  kHcd,             ///< arithmetic detection + cell decomposition
  kEngineInit,      ///< negation, automata and per-task contexts
  kCheckRoot,       ///< the root query loop
  kRtQuery,         ///< one R_T lookup: key interning, memo, result scan
  kProductInit,     ///< TaskVass construction + initial states
  kKarpMiller,      ///< coverability exploration (explorer's own work)
  kPrepare,         ///< TaskVass::PrepareSuccessors
  kCommit,          ///< TaskVass::CommitSuccessors
  kLasso,           ///< accepting-node search + lasso search
  kCounterexample,  ///< counterexample rendering
  kTeardown,        ///< destroying the engine's memo and graphs
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kTeardown) + 1;

/// In-memory span recorder: spans carry their parent's index and the
/// index of the verification they belong to, and are written out when
/// the run ends. Single-threaded.
class Tracer {
 public:
  struct Span {
    int32_t parent = -1;
    uint32_t item = 0;
    Layer layer = Layer::kParse;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer)
        : tracer_(tracer), id_(tracer->Begin(layer)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  /// Spans opened from now on belong to verification `item`.
  void set_item(uint32_t item) { item_ = item; }

  /// Per-layer self time over every recorded span, in ms.
  std::array<double, kNumLayers> SelfMs() const;
  /// Time covered by top-level spans, in ms.
  double TopLevelMs() const;
  size_t num_spans() const { return spans_.size(); }

  /// Writes one line per span: id, parent, item, layer, start and end
  /// (ns since the first span). False if the file cannot be written.
  bool Write(const std::string& path) const;

  static const char* LayerName(Layer layer);

 private:
  int32_t Begin(Layer layer);
  void End(int32_t id);
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t item_ = 0;
};

/// Work counted at the layer boundaries, summed over verifications.
struct LayerCounts {
  size_t verifications = 0;
  size_t prepare_calls = 0;
  /// Distinct (task, iso type, service) configurations prepared, per
  /// verification.
  size_t prepare_distinct = 0;
  size_t rt_query_calls = 0;  ///< per-assignment R_T lookups
  size_t rt_queries = 0;      ///< R_T entries computed
  size_t cov_nodes = 0;
  size_t cov_edges = 0;
  size_t pruned_successors = 0;
  size_t antichain_probes = 0;
  size_t ample_reduced_successors = 0;
  size_t type_interns = 0;
  size_t type_hits = 0;
  size_t cell_interns = 0;
  size_t cell_hits = 0;
  size_t hcd_polys = 0;
  size_t diagnostics = 0;
  size_t sliced_dims = 0;
};

/// Verify's body with a span around each layer; returns what
/// has::Verify(system, property, options) returns. Only the sequential
/// explorer is replayed: options.num_shards must be 1.
has::VerifyResult TracedVerify(const has::ArtifactSystem& system,
                               const has::HltlProperty& property,
                               const has::VerifierOptions& options,
                               Tracer* tracer, LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
