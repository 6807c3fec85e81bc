#include "core/rt_relation.h"

#include <unordered_set>

#include "common/hashing.h"
#include "common/status.h"
#include "common/strings.h"

namespace has {

RtEngine::RtEngine(const ArtifactSystem* system, const HltlProperty* property,
                   const VerifierOptions& options, const Hcd* hcd)
    : system_(system), property_(property), options_(options), hcd_(hcd) {
  automata_ = std::make_unique<PropertyAutomata>(system, property);
  for (TaskId t = 0; t < system->num_tasks(); ++t) {
    contexts_[t] =
        std::make_unique<TaskContext>(system, property, t, options_, hcd);
    context_ptrs_[t] = contexts_[t].get();
  }
}

RtEngine::~RtEngine() = default;

RtQueryKey RtEngine::EntryKey(TaskId task, const PartialIsoType& input_iso,
                              const Cell& input_cell, Assignment beta) {
  RtQueryKey key;
  key.task = task;
  key.iso = pool_.Intern(input_iso);
  key.cell = pool_.InternCell(input_cell);
  key.beta = beta;
  return key;
}

const RtEngine::Entry* RtEngine::FindEntry(const RtQueryKey& key) const {
  auto it = memo_.find(key);
  return it == memo_.end() ? nullptr : it->second.get();
}

const ChildResult& RtEngine::Query(TaskId task,
                                   const PartialIsoType& input_iso,
                                   const Cell& input_cell, Assignment beta) {
  RtQueryKey key = EntryKey(task, input_iso, input_cell, beta);
  return QueryByKey(key, input_iso, input_cell);
}

RtOracle::BatchedChildResult RtEngine::QueryAll(
    TaskId task, const PartialIsoType& input_iso, const Cell& input_cell,
    Assignment num_assignments) {
  // One input interning serves every assignment's key and lookup.
  RtQueryKey key = EntryKey(task, input_iso, input_cell, 0);
  BatchedChildResult batch;
  batch.results.reserve(num_assignments);
  batch.keys.reserve(num_assignments);
  for (Assignment beta = 0; beta < num_assignments; ++beta) {
    key.beta = beta;
    batch.keys.push_back(key);
    batch.results.push_back(&QueryByKey(key, input_iso, input_cell));
  }
  return batch;
}

const ChildResult& RtEngine::QueryByKey(const RtQueryKey& key,
                                        const PartialIsoType& input_iso,
                                        const Cell& input_cell) {
  std::unique_ptr<Entry>& slot = memo_[key];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  Entry* entry = slot.get();
  if (entry->build == Entry::Build::kReady) return entry->result;
  HAS_CHECK_MSG(entry->build == Entry::Build::kPending,
                "R_T entry queried while it is being built");
  entry->build = Entry::Build::kBuilding;
  ComputeEntry(key, input_iso, input_cell, entry);
  entry->build = Entry::Build::kReady;
  return entry->result;
}

void RtEngine::ComputeEntry(const RtQueryKey& key,
                            const PartialIsoType& input_iso,
                            const Cell& input_cell, Entry* entry) {
  entry->task = key.task;
  const Condition* filter =
      key.task == system_->root() ? system_->global_pre().get() : nullptr;
  entry->vass = std::make_unique<TaskVass>(
      context_ptrs_.at(key.task), &context_ptrs_, automata_.get(), &pool_,
      key.beta, input_iso, input_cell, this, filter);
  KarpMillerOptions km_options;
  km_options.max_nodes = options_.max_cov_nodes;
  km_options.prune_coverability = options_.prune_coverability;
  km_options.por = options_.por;
  entry->graph = std::make_unique<KarpMiller>(entry->vass.get(), km_options);
  entry->graph->Build(entry->vass->InitialStates());
  // The exploration is done: free the product's successor scratch so it
  // does not live as long as the engine.
  entry->vass->ReleaseScratch();

  // Returning outputs: deduplicate by interned (type, cell) outcome id.
  // Sound on the pruned graph: antichain pruning preserves exactly the
  // reachable VASS states (every dropped marking is covered by an
  // expanded node of the same state), and returning/blocking/accepting
  // are per-state predicates. A state's output is computed once, at its
  // first node: its later nodes would repeat the same outcome.
  std::unordered_set<std::pair<TypeId, CellId>, PairHash<TypeId, CellId>>
      seen_outputs;
  std::vector<char> seen_states(
      static_cast<size_t>(entry->vass->num_states()), 0);
  for (int n = 0; n < entry->graph->num_nodes(); ++n) {
    int state = entry->graph->node_state(n);
    if (seen_states[static_cast<size_t>(state)] != 0) continue;
    seen_states[static_cast<size_t>(state)] = 1;
    if (!entry->vass->IsReturning(state)) continue;
    ChildOutcome out = entry->vass->OutputOf(state);
    std::pair<TypeId, CellId> out_key{pool_.Intern(out.iso),
                                      pool_.InternCell(out.cell)};
    if (!seen_outputs.insert(out_key).second) continue;
    out.iso = pool_.type(out_key.first);  // canonical representative
    entry->result.returning.push_back(std::move(out));
    entry->returning_nodes.push_back(n);
  }
  // Blocking runs.
  for (int n = 0; n < entry->graph->num_nodes(); ++n) {
    if (entry->vass->IsBlocking(entry->graph->node_state(n))) {
      entry->blocking_node = n;
      entry->result.has_bottom = true;
      break;
    }
  }
  // Lasso runs, directly on `entry->graph`: with pruning on, the
  // closed-walk structure lives in the recorded cover-edges and
  // FindAcceptingLasso knows how to traverse them (vass/repeated.h);
  // with pruning off, the graph is the classical full coverability
  // graph. Either way no second exploration is ever built (an
  // unpruned rebuild would blow nodes up 12–22x on lasso-heavy
  // families). The lasso search runs when the ⊥-bit is still
  // open and some Büchi-accepting state is reachable (a per-state
  // scan, exact under pruning), and also — for a nicer witness than
  // the blocking one — when ⊥ is already settled but the graph is
  // small enough (VerifierOptions::lasso_witness_max_nodes).
  const auto accepting = [&](int state) {
    return entry->vass->IsBuchiAccepting(state);
  };
  const bool need_lasso =
      entry->result.has_bottom
          ? static_cast<size_t>(entry->graph->num_nodes()) <
                options_.lasso_witness_max_nodes
          : entry->graph->FindNode(accepting) >= 0;
  bool lasso_budget_exhausted = false;
  if (need_lasso) {
    RepeatedReachabilityOptions rr;
    rr.effect_bound = options_.lasso_effect_bound;
    rr.max_steps = options_.lasso_max_steps;
    entry->lasso = FindAcceptingLasso(*entry->graph, accepting, rr,
                                      &lasso_budget_exhausted);
    if (entry->lasso.has_value()) entry->result.has_bottom = true;
  }
  // A budget-cut lasso search that found nothing leaves the ⊥-bit
  // genuinely unknown when nothing else settled it: fold that into
  // `truncated` so the verdict degrades to INCONCLUSIVE instead of a
  // silent HOLDS. (When blocking already set ⊥, the search was pure
  // witness polish and the cut is harmless.)
  const bool lasso_unresolved =
      lasso_budget_exhausted && !entry->result.has_bottom;

  ++stats_.queries;
  stats_.enum_memo_misses = 0;
  stats_.enum_memo_hits = 0;
  stats_.enum_body_fills = 0;
  for (const auto& context : contexts_) {
    stats_.enum_memo_misses += context.second->memo().misses();
    stats_.enum_memo_hits += context.second->memo().hits();
    stats_.enum_body_fills += context.second->memo().body_fills();
  }
  stats_.cov_nodes += entry->graph->num_nodes();
  stats_.cov_edges += entry->graph->TotalEdges();
  stats_.product_states += entry->vass->num_states();
  stats_.counter_dims =
      std::max(stats_.counter_dims,
               static_cast<size_t>(entry->vass->num_dimensions()));
  stats_.pooled_types = pool_.num_types();
  stats_.pooled_cells = pool_.num_cells();
  stats_.succ_cache_hits += entry->graph->succ_cache_hits();
  stats_.succ_cache_misses += entry->graph->succ_cache_misses();
  stats_.pruned_successors += entry->graph->pruned_successors();
  stats_.deactivated_nodes += entry->graph->deactivated_nodes();
  stats_.antichain_peak =
      std::max(stats_.antichain_peak, entry->graph->antichain_peak());
  stats_.cover_edges += entry->graph->cover_edges();
  stats_.antichain_probes += entry->graph->antichain_probes();
  stats_.ample_reduced_successors +=
      entry->graph->ample_reduced_successors();
  stats_.ample_full_expansions += entry->graph->ample_full_expansions();
  stats_.truncated = stats_.truncated || entry->graph->truncated() ||
                     entry->vass->truncated() || lasso_unresolved;
}

RtEngine::RootWitness RtEngine::CheckRoot() {
  RootWitness witness;
  TaskId root = system_->root();
  TaskAutomata& root_automata = automata_->ForTask(root);
  int root_bit = root_automata.AssignmentBit(property_->root_node());
  HAS_CHECK_MSG(root_bit >= 0, "root node not in the root task's Φ");

  const Task& root_task = system_->task(root);
  PartialIsoType empty_input(&system_->schema(), &root_task.vars(),
                             contexts_.at(root)->nav_depth());
  Cell empty_cell;

  for (Assignment beta = 0;
       beta < static_cast<Assignment>(root_automata.num_assignments());
       ++beta) {
    if (((beta >> root_bit) & 1) == 0) continue;
    const ChildResult& result = Query(root, empty_input, empty_cell, beta);
    if (!result.has_bottom) continue;
    witness.satisfiable = true;
    witness.entry_key = EntryKey(root, empty_input, empty_cell, beta);
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

}  // namespace has
