// The engine replica. Everything below mirrors src/core/verifier.cc,
// src/core/rt_relation.cc and src/core/counterexample.cc call for call
// (sequential explorer only), so the pool, the products and the graphs
// evolve exactly as in Verify; the traced runner checks the resulting
// counters and counterexample text against Verify on every item. Keep it
// in step with those files when they change.
#include "replica.h"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "analysis/slice.h"
#include "common/hashing.h"
#include "common/strings.h"
#include "core/rt_relation.h"
#include "core/task_vass.h"
#include "hltl/assignments.h"
#include "vass/karp_miller.h"
#include "vass/repeated.h"

namespace perfbench {

using has::Assignment;
using has::Cell;
using has::CellId;
using has::ChildOutcome;
using has::ChildResult;
using has::PartialIsoType;
using has::RtQueryKey;
using has::TaskId;
using has::TypeId;

// ------------------------------------------------------------------ Tracer

int32_t Tracer::Begin(Layer layer) {
  Span span;
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item_;
  span.layer = layer;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::array<double, kNumLayers> Tracer::SelfMs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::array<double, kNumLayers> self{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[static_cast<size_t>(s.layer)] +=
        1e-6 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return self;
}

double Tracer::TopLevelMs() const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return 1e-6 * static_cast<double>(ns);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "# id parent item layer start_ns end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu %d %u %s %lld %lld\n", i, s.parent, s.item,
                 LayerName(s.layer), static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

const char* Tracer::LayerName(Layer layer) {
  switch (layer) {
    case Layer::kParse:
      return "spec.parse";
    case Layer::kValidate:
      return "model.validate";
    case Layer::kAnalyze:
      return "analysis.analyze";
    case Layer::kSlice:
      return "analysis.slice";
    case Layer::kHcd:
      return "arith.hcd";
    case Layer::kEngineInit:
      return "core.engine_init";
    case Layer::kCheckRoot:
      return "core.check_root";
    case Layer::kRtQuery:
      return "core.rt_query";
    case Layer::kProductInit:
      return "core.product_init";
    case Layer::kKarpMiller:
      return "vass.km";
    case Layer::kPrepare:
      return "core.prepare";
    case Layer::kCommit:
      return "core.commit";
    case Layer::kLasso:
      return "vass.lasso";
    case Layer::kCounterexample:
      return "core.counterexample";
    case Layer::kTeardown:
      return "core.teardown";
  }
  return "?";
}

namespace {

using Scope = Tracer::Scope;

/// The product as the explorer sees it, with Prepare and Commit timed
/// separately. Successors is Commit(Prepare) — the equivalence the
/// VassSystem contract requires and TaskVass::Successors implements.
class TimedVass : public has::VassSystem {
 public:
  TimedVass(has::TaskVass* inner, TaskId task, Tracer* tracer,
            LayerCounts* counts,
            std::set<std::tuple<TaskId, const PartialIsoType*,
                                has::ServiceRef>>* prepared)
      : inner_(inner),
        task_(task),
        tracer_(tracer),
        counts_(counts),
        prepared_(prepared) {}

  void Successors(int state, std::vector<has::VassEdge>* out) override {
    ++counts_->prepare_calls;
    // Pooled types never move, so the address identifies the TypeId.
    prepared_->emplace(task_, &inner_->state_iso(state),
                       inner_->state_service(state));
    std::unique_ptr<Prepared> prepared;
    {
      Scope span(tracer_, Layer::kPrepare);
      prepared = inner_->PrepareSuccessors(state);
    }
    Scope span(tracer_, Layer::kCommit);
    inner_->CommitSuccessors(state, std::move(prepared), out);
  }

  int AmplePrefix(int state) const override {
    return inner_->AmplePrefix(state);
  }

 private:
  has::TaskVass* inner_;
  TaskId task_;
  Tracer* tracer_;
  LayerCounts* counts_;
  std::set<std::tuple<TaskId, const PartialIsoType*, has::ServiceRef>>*
      prepared_;
};

/// RtEngine's memo and query loop, with its R_T lookups timed.
class ReplicaEngine : public has::RtOracle {
 public:
  struct Entry {
    ChildResult result;
    std::unique_ptr<has::TaskVass> vass;
    std::unique_ptr<TimedVass> timed;
    std::unique_ptr<has::KarpMiller> graph;
    std::vector<int> returning_nodes;
    int blocking_node = -1;
    std::optional<has::LassoWitness> lasso;
    bool ready = false;
  };

  ReplicaEngine(const has::ArtifactSystem* system,
                const has::HltlProperty* property,
                const has::VerifierOptions& options, const has::Hcd* hcd,
                Tracer* tracer, LayerCounts* counts)
      : system_(system),
        property_(property),
        options_(options),
        tracer_(tracer),
        counts_(counts) {
    automata_ = std::make_unique<has::PropertyAutomata>(system, property);
    for (TaskId t = 0; t < system->num_tasks(); ++t) {
      contexts_[t] = std::make_unique<has::TaskContext>(system, property, t,
                                                        options_, hcd);
      context_ptrs_[t] = contexts_[t].get();
    }
  }

  const ChildResult& Query(TaskId task, const PartialIsoType& input_iso,
                           const Cell& input_cell, Assignment beta) override {
    Scope span(tracer_, Layer::kRtQuery);
    ++counts_->rt_query_calls;
    return QueryByKey(KeyOf(task, input_iso, input_cell, beta), input_iso,
                      input_cell);
  }

  RtQueryKey KeyOf(TaskId task, const PartialIsoType& input_iso,
                   const Cell& input_cell, Assignment beta) override {
    RtQueryKey key;
    key.task = task;
    key.iso = pool_.Intern(input_iso);
    key.cell = pool_.InternCell(input_cell);
    key.beta = beta;
    return key;
  }

  BatchedChildResult QueryAll(TaskId task, const PartialIsoType& input_iso,
                              const Cell& input_cell,
                              Assignment num_assignments) override {
    Scope span(tracer_, Layer::kRtQuery);
    RtQueryKey key = KeyOf(task, input_iso, input_cell, 0);
    BatchedChildResult batch;
    batch.results.reserve(num_assignments);
    batch.keys.reserve(num_assignments);
    for (Assignment beta = 0; beta < num_assignments; ++beta) {
      ++counts_->rt_query_calls;
      key.beta = beta;
      batch.keys.push_back(key);
      batch.results.push_back(&QueryByKey(key, input_iso, input_cell));
    }
    return batch;
  }

  has::RtEngine::RootWitness CheckRoot() {
    has::RtEngine::RootWitness witness;
    TaskId root = system_->root();
    has::TaskAutomata& root_automata = automata_->ForTask(root);
    int root_bit = root_automata.AssignmentBit(property_->root_node());
    HAS_CHECK_MSG(root_bit >= 0, "root node not in the root task's Φ");
    PartialIsoType empty_input(&system_->schema(),
                               &system_->task(root).vars(),
                               contexts_.at(root)->nav_depth());
    Cell empty_cell;
    for (Assignment beta = 0;
         beta < static_cast<Assignment>(root_automata.num_assignments());
         ++beta) {
      if (((beta >> root_bit) & 1) == 0) continue;
      const ChildResult& result = Query(root, empty_input, empty_cell, beta);
      if (!result.has_bottom) continue;
      witness.satisfiable = true;
      witness.entry_key = KeyOf(root, empty_input, empty_cell, beta);
      const Entry* entry = FindEntry(witness.entry_key);
      if (entry->lasso.has_value()) {
        witness.stem_labels = entry->lasso->stem_labels;
        witness.loop_labels = entry->lasso->loop_labels;
        witness.final_node = entry->lasso->node;
        witness.blocking = false;
      } else {
        witness.stem_labels = entry->graph->PathLabels(entry->blocking_node);
        witness.final_node = entry->blocking_node;
        witness.blocking = true;
      }
      return witness;
    }
    return witness;
  }

  std::string FormatCounterexample(const has::RtEngine::RootWitness& witness,
                                   const has::ArtifactSystem& system) const {
    const Entry* entry = FindEntry(witness.entry_key);
    if (entry == nullptr) return "(no witness entry)";
    std::string out;
    out += witness.blocking
               ? "blocking counterexample run (a child never returns):\n"
               : "lasso counterexample run:\n";
    out += "--- stem ---\n";
    RenderPath(*entry, witness.stem_labels, system, 1, &out);
    if (!witness.blocking) {
      out += "--- loop (repeats forever) ---\n";
      RenderPath(*entry, witness.loop_labels, system, 1, &out);
    }
    return out;
  }

  const has::RtStats& stats() const { return stats_; }
  const has::TypePool& pool() const { return pool_; }
  size_t distinct_prepared() const { return prepared_.size(); }

 private:
  static constexpr int kMaxExpansionDepth = 4;

  const Entry* FindEntry(const RtQueryKey& key) const {
    auto it = memo_.find(key);
    return it == memo_.end() ? nullptr : it->second.get();
  }

  const ChildResult& QueryByKey(const RtQueryKey& key,
                                const PartialIsoType& input_iso,
                                const Cell& input_cell) {
    std::unique_ptr<Entry>& slot = memo_[key];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    Entry* entry = slot.get();
    if (!entry->ready) {
      ComputeEntry(key, input_iso, input_cell, entry);
      entry->ready = true;
    }
    return entry->result;
  }

  void ComputeEntry(const RtQueryKey& key, const PartialIsoType& input_iso,
                    const Cell& input_cell, Entry* entry) {
    ++counts_->rt_queries;
    const has::Condition* filter =
        key.task == system_->root() ? system_->global_pre().get() : nullptr;
    std::vector<int> initial;
    {
      Scope span(tracer_, Layer::kProductInit);
      entry->vass = std::make_unique<has::TaskVass>(
          context_ptrs_.at(key.task), &context_ptrs_, automata_.get(), &pool_,
          key.beta, input_iso, input_cell, this, filter);
      initial = entry->vass->InitialStates();
    }
    entry->timed = std::make_unique<TimedVass>(entry->vass.get(), key.task,
                                               tracer_, counts_, &prepared_);
    has::KarpMillerOptions km_options;
    km_options.max_nodes = options_.max_cov_nodes;
    km_options.succ_cache_capacity = options_.succ_cache_capacity;
    km_options.prune_coverability = options_.prune_coverability;
    km_options.por = options_.por;
    {
      Scope span(tracer_, Layer::kKarpMiller);
      entry->graph =
          std::make_unique<has::KarpMiller>(entry->timed.get(), km_options);
      entry->graph->Build(initial);
    }

    std::unordered_set<std::pair<TypeId, CellId>,
                       has::PairHash<TypeId, CellId>>
        seen_outputs;
    for (int n = 0; n < entry->graph->num_nodes(); ++n) {
      int state = entry->graph->node_state(n);
      if (!entry->vass->IsReturning(state)) continue;
      ChildOutcome out = entry->vass->OutputOf(state);
      std::pair<TypeId, CellId> out_key{pool_.Intern(out.iso),
                                        pool_.InternCell(out.cell)};
      if (!seen_outputs.insert(out_key).second) continue;
      out.iso = pool_.type(out_key.first);
      entry->result.returning.push_back(std::move(out));
      entry->returning_nodes.push_back(n);
    }
    for (int n = 0; n < entry->graph->num_nodes(); ++n) {
      if (entry->vass->IsBlocking(entry->graph->node_state(n))) {
        entry->blocking_node = n;
        entry->result.has_bottom = true;
        break;
      }
    }
    bool lasso_budget_exhausted = false;
    {
      Scope span(tracer_, Layer::kLasso);
      const auto accepting = [&](int state) {
        return entry->vass->IsBuchiAccepting(state);
      };
      const bool need_lasso =
          entry->result.has_bottom
              ? static_cast<size_t>(entry->graph->num_nodes()) <
                    options_.lasso_witness_max_nodes
              : entry->graph->FindNode(accepting) >= 0;
      if (need_lasso) {
        has::RepeatedReachabilityOptions rr;
        rr.effect_bound = options_.lasso_effect_bound;
        rr.max_steps = options_.lasso_max_steps;
        entry->lasso = has::FindAcceptingLasso(*entry->graph, accepting, rr,
                                               &lasso_budget_exhausted);
        if (entry->lasso.has_value()) entry->result.has_bottom = true;
      }
    }
    const bool lasso_unresolved =
        lasso_budget_exhausted && !entry->result.has_bottom;

    const has::KarpMiller& g = *entry->graph;
    ++stats_.queries;
    stats_.cov_nodes += g.num_nodes();
    stats_.cov_edges += g.TotalEdges();
    stats_.product_states += entry->vass->num_states();
    stats_.counter_dims =
        std::max(stats_.counter_dims,
                 static_cast<size_t>(entry->vass->num_dimensions()));
    stats_.pooled_types = pool_.num_types();
    stats_.pooled_cells = pool_.num_cells();
    stats_.succ_cache_hits += g.succ_cache_hits();
    stats_.succ_cache_misses += g.succ_cache_misses();
    stats_.pruned_successors += g.pruned_successors();
    stats_.deactivated_nodes += g.deactivated_nodes();
    stats_.antichain_peak = std::max(stats_.antichain_peak, g.antichain_peak());
    stats_.cover_edges += g.cover_edges();
    stats_.antichain_probes += g.antichain_probes();
    stats_.antichain_bucket_probes += g.antichain_bucket_probes();
    stats_.antichain_skipped_by_summary += g.antichain_skipped_by_summary();
    stats_.antichain_buckets_peak =
        std::max(stats_.antichain_buckets_peak, g.antichain_buckets_peak());
    stats_.sparse_markings += g.sparse_markings();
    stats_.ample_reduced_successors += g.ample_reduced_successors();
    stats_.ample_full_expansions += g.ample_full_expansions();
    stats_.truncated = stats_.truncated || g.truncated() ||
                       entry->vass->truncated() || lasso_unresolved;
  }

  void RenderChildCall(const has::TransitionRecord& rec,
                       const has::ArtifactSystem& system, int indent,
                       std::string* out) const {
    const Entry* child = FindEntry(rec.child_key);
    if (child == nullptr || indent > kMaxExpansionDepth) return;
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    if (rec.child_result_index >= 0 &&
        rec.child_result_index <
            static_cast<int>(child->returning_nodes.size())) {
      int node = child->returning_nodes[rec.child_result_index];
      *out += has::StrCat(pad, "  └─ child run (returns):\n");
      RenderPath(*child, child->graph->PathLabels(node), system, indent + 2,
                 out);
    } else if (child->lasso.has_value()) {
      *out += has::StrCat(pad, "  └─ child run (never returns; loops):\n");
      RenderPath(*child, child->lasso->stem_labels, system, indent + 2, out);
      *out += has::StrCat(pad, "     child loop:\n");
      RenderPath(*child, child->lasso->loop_labels, system, indent + 2, out);
    } else if (child->blocking_node >= 0) {
      *out += has::StrCat(pad, "  └─ child run (blocks):\n");
      RenderPath(*child, child->graph->PathLabels(child->blocking_node),
                 system, indent + 2, out);
    }
  }

  void RenderPath(const Entry& entry, const std::vector<int64_t>& labels,
                  const has::ArtifactSystem& system, int indent,
                  std::string* out) const {
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    for (int64_t label : labels) {
      const has::TransitionRecord& rec = entry.vass->record(label);
      *out += has::StrCat(pad, system.ServiceName(rec.service));
      if (!rec.note.empty()) *out += has::StrCat("  [", rec.note, "]");
      *out += "\n";
      if (rec.child_key.valid()) RenderChildCall(rec, system, indent, out);
    }
  }

  const has::ArtifactSystem* system_;
  const has::HltlProperty* property_;
  has::VerifierOptions options_;
  Tracer* tracer_;
  LayerCounts* counts_;
  has::TypePool pool_;
  std::unique_ptr<has::PropertyAutomata> automata_;
  std::map<TaskId, std::unique_ptr<has::TaskContext>> contexts_;
  std::map<TaskId, const has::TaskContext*> context_ptrs_;
  std::unordered_map<RtQueryKey, std::unique_ptr<Entry>, has::RtQueryKeyHash>
      memo_;
  has::RtStats stats_;
  std::set<std::tuple<TaskId, const PartialIsoType*, has::ServiceRef>>
      prepared_;
};

void CheckValid(const has::ArtifactSystem& system,
                const has::HltlProperty& property, const char* what) {
  has::Status s = has::ValidateSystem(system);
  HAS_CHECK_MSG(s.ok(), has::StrCat("invalid ", what, "system: ",
                                    s.ToString()));
  s = property.Validate(system);
  HAS_CHECK_MSG(s.ok(), has::StrCat("invalid ", what, "property: ",
                                    s.ToString()));
}

}  // namespace

has::VerifyResult TracedVerify(const has::ArtifactSystem& system,
                               const has::HltlProperty& property,
                               const has::VerifierOptions& options,
                               Tracer* tracer, LayerCounts* counts) {
  HAS_CHECK_MSG(options.num_shards == 1,
                "the replica replays the sequential explorer only");
  ++counts->verifications;
  has::VerifyResult result;
  {
    Scope span(tracer, Layer::kValidate);
    CheckValid(system, property, "");
  }

  has::AnalysisResult analysis;
  {
    Scope span(tracer, Layer::kAnalyze);
    analysis = has::AnalyzeSystem(system, {{"property", &property}});
  }
  result.diagnostics = analysis.diagnostics;
  if (options.strict_analysis) {
    HAS_CHECK_MSG(result.diagnostics.empty(),
                  has::StrCat("strict_analysis: ",
                              has::RenderDiagnostics(result.diagnostics,
                                                     nullptr)));
  }

  std::optional<has::SlicedSpec> sliced;
  if (options.slice) {
    Scope span(tracer, Layer::kSlice);
    has::SlicePlan plan = has::BuildSlicePlan(system, property, analysis);
    if (!plan.IsNoOp()) {
      sliced = has::ApplySlice(system, property, plan);
      CheckValid(sliced->system, sliced->property, "sliced ");
      result.stats.sliced_services =
          static_cast<size_t>(plan.dropped_services);
      result.stats.sliced_dims = static_cast<size_t>(plan.dropped_relations +
                                                     plan.dropped_vars);
    }
  }
  const has::ArtifactSystem& sys =
      sliced.has_value() ? sliced->system : system;
  const has::HltlProperty& prop =
      sliced.has_value() ? sliced->property : property;

  std::optional<has::HltlProperty> negated;
  {
    Scope span(tracer, Layer::kEngineInit);
    negated = prop.Negated();
  }
  std::optional<has::Hcd> hcd;
  {
    Scope span(tracer, Layer::kHcd);
    result.used_arithmetic = has::SystemUsesArithmetic(sys, prop);
    if (result.used_arithmetic) {
      hcd = has::BuildSystemHcd(sys, *negated);
      result.hcd_polys = hcd->TotalPolys();
    }
  }

  std::unique_ptr<ReplicaEngine> engine;
  {
    Scope span(tracer, Layer::kEngineInit);
    engine = std::make_unique<ReplicaEngine>(
        &sys, &*negated, options, hcd.has_value() ? &*hcd : nullptr, tracer,
        counts);
  }
  has::RtEngine::RootWitness witness;
  {
    Scope span(tracer, Layer::kCheckRoot);
    witness = engine->CheckRoot();
  }
  const size_t sliced_services = result.stats.sliced_services;
  const size_t sliced_dims = result.stats.sliced_dims;
  result.stats = engine->stats();
  result.stats.sliced_services = sliced_services;
  result.stats.sliced_dims = sliced_dims;
  result.stats.diagnostics_emitted = result.diagnostics.size();
  if (witness.satisfiable) {
    result.verdict = has::Verdict::kViolated;
    Scope span(tracer, Layer::kCounterexample);
    result.counterexample = engine->FormatCounterexample(witness, sys);
  } else if (engine->stats().truncated) {
    result.verdict = has::Verdict::kInconclusive;
  } else {
    result.verdict = has::Verdict::kHolds;
  }

  const has::RtStats& st = engine->stats();
  const has::TypePool::Stats pool = engine->pool().stats();
  counts->prepare_distinct += engine->distinct_prepared();
  counts->cov_nodes += st.cov_nodes;
  counts->cov_edges += st.cov_edges;
  counts->pruned_successors += st.pruned_successors;
  counts->antichain_probes += st.antichain_probes;
  counts->ample_reduced_successors += st.ample_reduced_successors;
  counts->type_interns += pool.iso_queries;
  counts->type_hits += pool.iso_hits;
  counts->cell_interns += pool.cell_queries;
  counts->cell_hits += pool.cell_hits;
  counts->hcd_polys += static_cast<size_t>(result.hcd_polys);
  counts->diagnostics += result.diagnostics.size();
  counts->sliced_dims += sliced_dims;

  Scope span(tracer, Layer::kTeardown);
  engine.reset();
  hcd.reset();
  negated.reset();
  sliced.reset();
  analysis = has::AnalysisResult();
  return result;
}

}  // namespace perfbench
