#include "core/task_vass.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "common/status.h"

namespace has {

TaskVass::TaskVass(const TaskContext* ctx,
                   const std::map<TaskId, const TaskContext*>* child_ctxs,
                   PropertyAutomata* automata, TypePool* pool,
                   Assignment beta, PartialIsoType input_iso, Cell input_cell,
                   RtOracle* oracle, const Condition* opening_filter)
    : ctx_(ctx),
      child_ctxs_(child_ctxs),
      all_automata_(automata),
      automata_(&automata->ForTask(ctx->task_id())),
      pool_(pool),
      beta_(beta),
      input_iso_(std::move(input_iso)),
      input_cell_(input_cell),
      oracle_(oracle),
      opening_filter_(opening_filter),
      num_children_(ctx->task().children().size()) {
  buchi_ = &automata_->automaton(beta);
  ctx_->memo().Bind(pool_);
  for (TaskId child : ctx_->task().children()) {
    const std::string& name = ctx_->system().task(child).name();
    open_notes_.push_back("open " + name);
    open_bottom_notes_.push_back("open " + name + " (non-returning)");
    close_notes_.push_back("close " + name);
  }
}

TaskVass::StateView TaskVass::View(int id) const {
  if (id == kProbe) {
    return StateView{&probe_, probe_stages_.data(), probe_ib_.data(),
                     probe_ib_.data() + probe_ib_.size()};
  }
  const State& s = states_[static_cast<size_t>(id)];
  return StateView{&s, stages(id), ib_store_.data() + s.ib_begin,
                   ib_store_.data() + s.ib_end};
}

size_t TaskVass::HashState(int id) const {
  const StateView v = View(id);
  size_t seed = static_cast<size_t>(v.state->iso);
  HashMix(&seed, v.state->cell);
  HashCombine(&seed, v.state->service.Hash());
  HashMix(&seed, v.state->q);
  for (size_t c = 0; c < num_children_; ++c) {
    HashMix(&seed, static_cast<int>(v.stages[c].kind));
    HashMix(&seed, v.stages[c].outcome);
    HashMix(&seed, v.stages[c].beta);
  }
  for (const int* b = v.ib_begin; b != v.ib_end; ++b) HashMix(&seed, *b);
  return seed;
}

bool TaskVass::SameState(int a, int b) const {
  const StateView x = View(a);
  const StateView y = View(b);
  return x.state->iso == y.state->iso && x.state->cell == y.state->cell &&
         x.state->service == y.state->service && x.state->q == y.state->q &&
         std::equal(x.stages, x.stages + num_children_, y.stages) &&
         std::equal(x.ib_begin, x.ib_end, y.ib_begin, y.ib_end);
}

int TaskVass::InternProbe() {
  const size_t hash = HashState(kProbe);
  const int found = state_index_.Find(
      hash, [this](int id) { return SameState(id, kProbe); });
  if (found != -1) return found;
  int id = static_cast<int>(states_.size());
  State s = probe_;
  s.ib_begin = static_cast<uint32_t>(ib_store_.size());
  ib_store_.insert(ib_store_.end(), probe_ib_.begin(), probe_ib_.end());
  s.ib_end = static_cast<uint32_t>(ib_store_.size());
  states_.push_back(s);
  stage_store_.insert(stage_store_.end(), probe_stages_.begin(),
                      probe_stages_.end());
  state_index_.Insert(hash, id);
  return id;
}

int TaskVass::DimOf(int relation, TypeId ts) {
  uint64_t key = RelTypeKey(relation, ts);
  auto it = dim_index_.find(key);
  if (it != dim_index_.end()) return it->second;
  int id = static_cast<int>(dim_types_.size());
  dim_types_.emplace_back(relation, ts);
  dim_index_.emplace(key, id);
  return id;
}

int TaskVass::IbIdOf(int relation, TypeId ts) {
  uint64_t key = RelTypeKey(relation, ts);
  auto it = ib_index_.find(key);
  if (it != ib_index_.end()) return it->second;
  int id = static_cast<int>(ib_types_.size());
  ib_types_.emplace_back(relation, ts);
  ib_index_.emplace(key, id);
  return id;
}

int TaskVass::InternOutcome(const ChildOutcome* src) {
  auto [by_src, fresh] = outcome_by_src_.try_emplace(src, -1);
  if (!fresh) return by_src->second;
  // Child outcomes arrive as canonical pool representatives (the
  // engine normalizes them when deduplicating returning outputs).
  const OutcomeKey key{pool_->InternNormalized(src->iso),
                       pool_->InternCell(src->cell)};
  auto [it, added] = outcome_index_.try_emplace(
      key, static_cast<int>(outcome_keys_.size()));
  if (added) outcome_keys_.push_back(key);
  return by_src->second = it->second;
}

std::vector<bool> TaskVass::MakeLetter(const SymbolicConfig& config,
                                       const ServiceRef& service,
                                       TaskId opened_child,
                                       Assignment child_beta) const {
  const std::vector<HltlProp>& props = automata_->props();
  std::vector<bool> letter(props.size(), false);
  for (size_t p = 0; p < props.size(); ++p) {
    const HltlProp& prop = props[p];
    switch (prop.kind) {
      case HltlProp::Kind::kCondition: {
        Truth t = ctx_->EvalSym(*prop.condition, config);
        HAS_CHECK_MSG(t != Truth::kUnknown,
                      "property condition undecided in symbolic state");
        letter[p] = t == Truth::kTrue;
        break;
      }
      case HltlProp::Kind::kService:
        letter[p] = prop.service == service;
        break;
      case HltlProp::Kind::kChildFormula: {
        // [ψ]_Tc holds iff this step opens Tc and the guessed child
        // assignment sets ψ's bit.
        if (opened_child == kNoTask) break;
        const HltlNode& node =
            all_automata_->property().node(prop.child_node);
        if (node.task != opened_child) break;
        int bit =
            all_automata_->ForTask(opened_child).AssignmentBit(prop.child_node);
        if (bit >= 0) letter[p] = ((child_beta >> bit) & 1) != 0;
        break;
      }
    }
  }
  return letter;
}

void TaskVass::FillInternal(const SymbolicConfig& cur, int service,
                            EnumMemo::Key* base,
                            EnumMemo::Internal* head) const {
  const InternalService& svc = ctx_->task().service(service);
  head->pre = ctx_->EvalSym(*svc.pre, cur) == Truth::kTrue;
  if (!head->pre) return;
  head->post = ctx_->EvalSym(*svc.post, cur) == Truth::kTrue;
  const size_t num_rels = static_cast<size_t>(ctx_->num_set_relations());
  head->insert_ts.assign(num_rels, kNoTypeId);
  head->insert_input_bound.assign(num_rels, 0);
  for (int rel : svc.insert_rels) {
    TsType ts = ctx_->TsTypeOf(cur.iso, rel);
    head->insert_ts[rel] = pool_->InternNormalized(std::move(ts.type));
    head->insert_input_bound[rel] = ts.input_bound;
  }
  if (base->iso == kNoTypeId) {
    SymbolicConfig input = ctx_->InputBase(cur);
    base->iso = pool_->InternNormalized(std::move(input.iso));
    base->cell = pool_->InternCell(std::move(input.cell));
  }
  const EnumMemo::Key key{base->iso, base->cell, service};
  head->body = &ctx_->memo().GetBody(
      key, [&](EnumMemo::InternalBody* body) { FillBody(key, body); });
  if (ctx_->options().por && ctx_->PorServiceEligible(service) &&
      head->post) {
    head->stutter_letter = MakeLetter(
        cur, ServiceRef::Internal(ctx_->task_id(), service), kNoTask, 0);
  }
}

void TaskVass::FillBody(const EnumMemo::Key& key,
                        EnumMemo::InternalBody* body) const {
  const SymbolicConfig base{pool_->type(key.iso), pool_->cell(key.cell)};
  const ServiceRef ref = ServiceRef::Internal(ctx_->task_id(), key.slot);
  std::vector<InternalSuccessor> succs = EnumerateInternal(
      *ctx_, base, ctx_->task().service(key.slot), &body->truncated);
  body->successors.reserve(succs.size());
  for (InternalSuccessor& s : succs) {
    EnumMemo::InternalBody::Successor out;
    out.step.letter = MakeLetter(s.next, ref, kNoTask, 0);
    out.step.iso = pool_->InternNormalized(std::move(s.next.iso));
    out.step.cell = pool_->InternCell(std::move(s.next.cell));
    out.set_ops.reserve(s.set_ops.size());
    for (SetOpEffect& eff : s.set_ops) {
      EnumMemo::InternalBody::SetOp op;
      op.relation = eff.relation;
      op.inserts = eff.inserts;
      op.retrieves = eff.retrieves;
      if (eff.retrieves) {
        op.retrieve_input_bound = eff.retrieve_ts.input_bound;
        op.retrieve_ts =
            pool_->InternNormalized(std::move(eff.retrieve_ts.type));
      }
      out.set_ops.push_back(std::move(op));
    }
    body->successors.push_back(std::move(out));
  }
}

void TaskVass::FillOpening(const SymbolicConfig& cur, int child,
                           EnumMemo::Opening* entry) const {
  const TaskId child_id = ctx_->task().children()[child];
  entry->enabled =
      ctx_->EvalSym(*ctx_->system().task(child_id).opening_pre(), cur) ==
      Truth::kTrue;
  if (!entry->enabled) return;
  const TaskContext* child_ctx = child_ctxs_->at(child_id);
  entry->child_iso = ChildInputIso(*ctx_, *child_ctx, cur);
  entry->child_cell = ChildInputCell(*ctx_, *child_ctx, cur);
  const ServiceRef ref = ServiceRef::Opening(child_id);
  const auto num_assignments = static_cast<Assignment>(
      all_automata_->ForTask(child_id).num_assignments());
  for (Assignment bc = 0; bc < num_assignments; ++bc) {
    entry->letters.push_back(MakeLetter(cur, ref, child_id, bc));
  }
}

void TaskVass::FillReturn(const SymbolicConfig& cur, int child,
                          const OutcomeKey& outcome,
                          EnumMemo::Return* entry) const {
  const TaskId child_id = ctx_->task().children()[child];
  std::vector<SymbolicConfig> nexts = ApplyChildReturn(
      *ctx_, *child_ctxs_->at(child_id), cur, pool_->type(outcome.iso),
      pool_->cell(outcome.cell), &entry->truncated);
  const ServiceRef ref = ServiceRef::Closing(child_id);
  entry->steps.reserve(nexts.size());
  for (SymbolicConfig& next : nexts) {
    EnumMemo::Step step;
    step.letter = MakeLetter(next, ref, kNoTask, 0);
    step.iso = pool_->InternNormalized(std::move(next.iso));
    step.cell = pool_->InternCell(std::move(next.cell));
    entry->steps.push_back(std::move(step));
  }
}

std::vector<int> TaskVass::InitialStates() {
  std::vector<int> out;
  // The opening list is memoized per input. The engine pooled the input
  // when it keyed this query, so the lookups below pool nothing. The
  // list is enumerated over this product's own input_iso_, whose element
  // layout sets its order, and the key holds only pool ids. That is
  // exact because every product sharing a list is built from one input
  // object: the root's empty input, or the one input of a
  // RtEngine::QueryAll call, which builds all β of it together (a task
  // is never its own descendant, so no other caller can reach the same
  // key in between).
  EnumMemo::Key key;
  key.iso = pool_->Find(input_iso_);
  if (key.iso == kNoTypeId) key.iso = pool_->Intern(input_iso_);
  key.cell = pool_->FindCell(input_cell_);
  if (key.cell == kNoCellId) key.cell = pool_->InternCell(input_cell_);
  const EnumMemo::Opened& opened =
      ctx_->memo().GetOpened(key, [&](EnumMemo::Opened* entry) {
        entry->configs = EnumerateOpening(*ctx_, input_iso_, input_cell_,
                                          &entry->truncated);
      });
  truncated_ = truncated_ || opened.truncated;
  ServiceRef open_self = ServiceRef::Opening(ctx_->task_id());
  for (const SymbolicConfig& config : opened.configs) {
    if (opening_filter_ != nullptr &&
        ctx_->EvalSym(*opening_filter_, config) != Truth::kTrue) {
      continue;
    }
    std::vector<bool> letter = MakeLetter(config, open_self, kNoTask, 0);
    for (int q : buchi_->initial()) {
      if (!buchi_->CompatibleWith(q, letter)) continue;
      // The enumeration emits normalized configurations.
      probe_.iso = pool_->InternNormalized(config.iso);
      probe_.cell = pool_->InternCell(config.cell);
      probe_.service = open_self;
      probe_.q = q;
      probe_stages_.assign(num_children_, ChildStage{});
      probe_ib_.clear();
      int id = InternProbe();
      // No edge enters an initial state (no transition opens the task
      // itself), so its record stays empty.
      if (static_cast<size_t>(id) == records_.size()) records_.emplace_back();
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
  }
  return out;
}

std::pair<uint32_t, uint32_t> TaskVass::BuchiSuccessors(
    int q, const std::vector<bool>& letter) {
  size_t hash = std::hash<const void*>{}(&letter);
  HashMix(&hash, q);
  int id = q2_index_.Find(hash, [&](int i) {
    return q2_lists_[static_cast<size_t>(i)].letter == &letter &&
           q2_lists_[static_cast<size_t>(i)].q == q;
  });
  if (id == -1) {
    Q2List list{&letter, q, static_cast<uint32_t>(q2_store_.size()), 0};
    for (int q2 : buchi_->successors(q)) {
      if (buchi_->CompatibleWith(q2, letter)) q2_store_.push_back(q2);
    }
    list.end = static_cast<uint32_t>(q2_store_.size());
    id = static_cast<int>(q2_lists_.size());
    q2_lists_.push_back(list);
    q2_index_.Insert(hash, id);
  }
  const Q2List& list = q2_lists_[static_cast<size_t>(id)];
  return {list.begin, list.end};
}

void TaskVass::Emit(int q, TypeId next_iso, CellId next_cell,
                    const std::vector<bool>& letter,
                    const TransitionRecord& record) {
  probe_.iso = next_iso;
  probe_.cell = next_cell;
  probe_.service = record.service;
  // An edge with no negative delta is enabled at every marking.
  const bool can_cut =
      ctx_->task().is_root() &&
      std::none_of(delta_.begin(), delta_.end(),
                   [](const auto& d) { return d.second < 0; });
  const auto [begin, end] = BuchiSuccessors(q, letter);
  for (uint32_t k = begin; k < end; ++k) {
    probe_.q = q2_store_[k];
    const int target = InternProbe();
    // The edge that creates a state writes its record; every later edge
    // into it did the same thing (see TransitionRecord).
    if (static_cast<size_t>(target) == records_.size()) {
      records_.push_back(record);
    }
    edges_.push_back(VassEdge{target, delta_, target});
    // The root cut: the explorer follows such an edge at the node it is
    // expanding, so a node of the blocking state exists.
    if (can_cut && IsBlocking(target)) root_decided_ = true;
  }
}

int TaskVass::BuildSuccessors(int state) {
  // Interning grows the stores, so the source state is copied and its
  // stages and ib bits are read by position.
  const State from = states_[state];
  const size_t from_stages = static_cast<size_t>(state) * num_children_;
  // Starts a step with no delta and the state's ib bits.
  const auto reset = [&] {
    delta_.clear();
    probe_ib_.assign(ib_store_.begin() + from.ib_begin,
                     ib_store_.begin() + from.ib_end);
  };
  const Task& task = ctx_->task();
  // The root cut (root_decided_): a blocking root state asked to expand
  // has a live node, so ⊥ is reachable and the root query is decided;
  // from then on the root product emits nothing.
  if (task.is_root()) {
    root_decided_ = root_decided_ || IsBlocking(state);
    if (root_decided_) return 0;
  }
  // Returned states are absorbing.
  if (from.service.kind == ServiceRef::Kind::kClosing &&
      from.service.task == ctx_->task_id()) {
    return 0;
  }
  // Steps (A)–(D) are read from the task's enumeration memo, keyed by
  // the state's configuration (an internal step's successors by its
  // input base); the configuration itself is materialized only to fill
  // entries. What varies per product state — Büchi compatibility from
  // `q`, the ib bits, the child stages — is resolved here.
  std::optional<SymbolicConfig> cur_storage;
  const auto cur = [&]() -> const SymbolicConfig& {
    if (!cur_storage.has_value()) {
      cur_storage.emplace(
          SymbolicConfig{pool_->type(from.iso), pool_->cell(from.cell)});
    }
    return *cur_storage;
  };
  EnumMemo& memo = ctx_->memo();

  const bool any_active = std::any_of(
      stages(state), stages(state) + num_children_, [](const ChildStage& c) {
        return c.kind == ChildStage::Kind::kActive ||
               c.kind == ChildStage::Kind::kActiveBottom;
      });

  int ample = 0;
  // (A) Internal services: all subtasks must have returned
  // (restriction 4).
  if (!any_active) {
    // Partial-order reduction (docs/ARCHITECTURE.md, "The ample prefix:
    // identity stutters"): every POR-eligible service that is enabled
    // and whose post-condition already holds adds one identity stutter
    // edge (same iso/cell, insert deltas only), built directly, in
    // ascending service order; the explorer expands only that prefix
    // while one of its edges makes progress. All eligible stutters are
    // kept, since once one service's counters saturate to ω the others
    // must keep the reduction alive. The full service list follows,
    // ample services included, so a revert expands the state as a
    // POR-off build would. States entered by an observed service expand
    // fully. The choice is a pure function of the state.
    const int num_services = static_cast<int>(task.services().size());
    heads_.resize(static_cast<size_t>(num_services));
    EnumMemo::Key base;  // the input base's ids, set by the first fill
    for (int i = 0; i < num_services; ++i) {
      heads_[i] = &memo.GetInternal(
          {from.iso, from.cell, i},
          [&](EnumMemo::Internal* e) { FillInternal(cur(), i, &base, e); });
    }
    probe_stages_.assign(num_children_, ChildStage{});
    // Adds service `e`'s insert into `rel` to the step's delta or ib
    // bits. The inserted TS-type is the per-relation projection of the
    // CURRENT state, the same for every successor.
    const auto insert = [&](const EnumMemo::Internal& e, int rel) {
      const TypeId ts = e.insert_ts[rel];
      if (e.insert_input_bound[rel] == 0) {
        delta_.emplace_back(DimOf(rel, ts), 1);
        return;
      }
      const int id = IbIdOf(rel, ts);
      if (std::find(probe_ib_.begin(), probe_ib_.end(), id) ==
          probe_ib_.end()) {
        probe_ib_.push_back(id);
      }
    };
    const bool por =
        ctx_->options().por && !ctx_->PorServiceIsProp(from.service);
    for (int i = 0; i < num_services; ++i) {
      const EnumMemo::Internal& e = *heads_[i];
      if (!por || !ctx_->PorServiceEligible(i) || !e.pre || !e.post) {
        continue;
      }
      const InternalService& svc = task.service(i);
      reset();
      for (int rel = 0; rel < ctx_->num_set_relations(); ++rel) {
        if (svc.InsertsInto(rel)) insert(e, rel);
      }
      std::sort(probe_ib_.begin(), probe_ib_.end());
      Emit(from.q, from.iso, from.cell, e.stutter_letter,
           TransitionRecord{ServiceRef::Internal(ctx_->task_id(), i), {}, -1,
                            svc.name});
    }
    // If no Büchi successor is compatible with the stutter letters the
    // prefix is empty and AmplePrefix stays 0 — the state expands fully.
    ample = static_cast<int>(edges_.size());
    for (int i = 0; i < num_services; ++i) {
      const EnumMemo::Internal& e = *heads_[i];
      if (!e.pre) continue;
      const InternalService& svc = task.service(i);
      const TransitionRecord record{ServiceRef::Internal(ctx_->task_id(), i),
                                    {}, -1, svc.name};
      truncated_ = truncated_ || e.body->truncated;
      for (const EnumMemo::InternalBody::Successor& s : e.body->successors) {
        reset();
        // An input-bound retrieve only succeeds when its (relation,
        // type) bit is in the state's set, or when this same step
        // inserts the identical TS type into the same relation. A step
        // that fails it is dropped before any counter dimension or ib
        // bit is allocated for it.
        const auto infeasible = [&](const EnumMemo::InternalBody::SetOp& op) {
          if (!op.retrieves || !op.retrieve_input_bound ||
              (op.inserts && e.insert_input_bound[op.relation] != 0 &&
               e.insert_ts[op.relation] == op.retrieve_ts)) {
            return false;
          }
          auto it = ib_index_.find(RelTypeKey(op.relation, op.retrieve_ts));
          return it == ib_index_.end() ||
                 std::find(probe_ib_.begin(), probe_ib_.end(), it->second) ==
                     probe_ib_.end();
        };
        if (std::any_of(s.set_ops.begin(), s.set_ops.end(), infeasible)) {
          continue;
        }
        // Allocation order (ascending relation index per step, inserts
        // before retrieves within a relation, steps in emission order)
        // makes dimension numbering reproducible.
        for (const EnumMemo::InternalBody::SetOp& op : s.set_ops) {
          if (op.inserts) insert(e, op.relation);
          if (!op.retrieves) continue;
          if (op.retrieve_input_bound) {
            auto it = std::find(probe_ib_.begin(), probe_ib_.end(),
                                IbIdOf(op.relation, op.retrieve_ts));
            HAS_CHECK(it != probe_ib_.end());  // checked feasible above
            probe_ib_.erase(it);
          } else {
            delta_.emplace_back(DimOf(op.relation, op.retrieve_ts), -1);
          }
        }
        std::sort(probe_ib_.begin(), probe_ib_.end());
        Emit(from.q, s.step.iso, s.step.cell, s.step.letter, record);
      }
    }
  }

  // (B)–(D) keep the state's ib bits, change no counter and rewrite at
  // most one child's stage.
  reset();
  probe_stages_.assign(stage_store_.begin() + from_stages,
                       stage_store_.begin() + from_stages + num_children_);

  // (B) Open a child (at most once per segment). The oracle round-trip
  // is batched per child: one input interning covers every β_c, and
  // the product keeps the batch for the opening's later passes.
  for (size_t c = 0; c < num_children_; ++c) {
    const ChildStage stage = probe_stages_[c];
    if (stage.kind != ChildStage::Kind::kInit) continue;
    const int ci = static_cast<int>(c);
    const EnumMemo::Opening& e = memo.GetOpening(
        {from.iso, from.cell, ci},
        [&](EnumMemo::Opening* out) { FillOpening(cur(), ci, out); });
    if (!e.enabled) continue;
    const ServiceRef open = ServiceRef::Opening(task.children()[c]);
    auto [slot, fresh] = child_batches_.try_emplace(&e);
    if (fresh) {
      slot->second =
          oracle_->QueryAll(open.task, e.child_iso, e.child_cell,
                            static_cast<Assignment>(e.letters.size()));
    }
    const RtOracle::BatchedChildResult& batch = slot->second;
    for (Assignment bc = 0; bc < static_cast<Assignment>(e.letters.size());
         ++bc) {
      const ChildResult& result = *batch.results[bc];
      for (size_t oi = 0; oi < result.returning.size(); ++oi) {
        probe_stages_[c] = ChildStage{ChildStage::Kind::kActive,
                                      InternOutcome(&result.returning[oi]),
                                      bc};
        Emit(from.q, from.iso, from.cell, e.letters[bc],
             TransitionRecord{open, batch.keys[bc], static_cast<int>(oi),
                              open_notes_[c]});
      }
      if (result.has_bottom) {
        probe_stages_[c] = ChildStage{ChildStage::Kind::kActiveBottom, -1, bc};
        Emit(from.q, from.iso, from.cell, e.letters[bc],
             TransitionRecord{open, batch.keys[bc], -1,
                              open_bottom_notes_[c]});
      }
    }
    probe_stages_[c] = stage;
  }

  // (C) Close an active (returning) child.
  for (size_t c = 0; c < num_children_; ++c) {
    const ChildStage stage = probe_stages_[c];
    if (stage.kind != ChildStage::Kind::kActive) continue;
    const int ci = static_cast<int>(c);
    const OutcomeKey o = outcome_keys_[stage.outcome];
    const EnumMemo::Return& e = memo.GetReturn(
        {from.iso, from.cell, ci, o.iso, o.cell},
        [&](EnumMemo::Return* out) { FillReturn(cur(), ci, o, out); });
    truncated_ = truncated_ || e.truncated;
    const TransitionRecord record{ServiceRef::Closing(task.children()[c]),
                                  {}, -1, close_notes_[c]};
    probe_stages_[c] = ChildStage{ChildStage::Kind::kClosed, -1, stage.beta};
    for (const EnumMemo::Step& s : e.steps) {
      Emit(from.q, s.iso, s.cell, s.letter, record);
    }
    probe_stages_[c] = stage;
  }

  // (D) Close this task (terminal returning segment: every opened child
  // has returned).
  if (!any_active && !task.is_root()) {
    const ServiceRef close_self = ServiceRef::Closing(ctx_->task_id());
    const EnumMemo::CloseSelf& e = memo.GetCloseSelf(
        {from.iso, from.cell}, [&](EnumMemo::CloseSelf* out) {
          out->enabled =
              ctx_->EvalSym(*task.closing_pre(), cur()) == Truth::kTrue;
          if (out->enabled) {
            out->letter = MakeLetter(cur(), close_self, kNoTask, 0);
          }
        });
    if (e.enabled) {
      Emit(from.q, from.iso, from.cell, e.letter,
           TransitionRecord{close_self, {}, -1, close_self_note_});
    }
  }
  return ample;
}

void TaskVass::Successors(int state, std::vector<VassEdge>* out) {
  edges_.clear();
  const int ample = BuildSuccessors(state);
  // Until the root cut the ample choice and its successor set are pure
  // functions of the configuration; the pass that cuts records 0.
  if (ample_prefix_.size() < states_.size()) {
    ample_prefix_.resize(states_.size(), 0);
  }
  ample_prefix_[static_cast<size_t>(state)] = root_decided_ ? 0 : ample;
  out->reserve(out->size() + edges_.size());
  std::move(edges_.begin(), edges_.end(), std::back_inserter(*out));
}

namespace {

/// A successor list between PrepareSuccessors and CommitSuccessors.
struct PreparedList : VassSystem::Prepared {
  std::vector<VassEdge> edges;
};

}  // namespace

std::unique_ptr<VassSystem::Prepared> TaskVass::PrepareSuccessors(
    int state) {
  auto prepared = std::make_unique<PreparedList>();
  Successors(state, &prepared->edges);
  return prepared;
}

void TaskVass::CommitSuccessors(int /*state*/,
                                std::unique_ptr<Prepared> prepared,
                                std::vector<VassEdge>* out) {
  std::vector<VassEdge>& edges = static_cast<PreparedList&>(*prepared).edges;
  out->insert(out->end(), std::make_move_iterator(edges.begin()),
              std::make_move_iterator(edges.end()));
}

void TaskVass::ReleaseScratch() {
  // Swapping with empty containers frees their storage (clear() keeps
  // capacity and bucket arrays).
  decltype(q2_lists_)().swap(q2_lists_);
  q2_index_ = IdIndex();
  decltype(q2_store_)().swap(q2_store_);
  decltype(child_batches_)().swap(child_batches_);
  decltype(heads_)().swap(heads_);
  decltype(delta_)().swap(delta_);
  decltype(edges_)().swap(edges_);
}

int TaskVass::AmplePrefix(int state) const {
  return static_cast<size_t>(state) < ample_prefix_.size()
             ? ample_prefix_[static_cast<size_t>(state)]
             : 0;
}

bool TaskVass::IsReturning(int state) const {
  const State& s = states_[state];
  return s.service.kind == ServiceRef::Kind::kClosing &&
         s.service.task == ctx_->task_id() && buchi_->finite_accepting(s.q);
}

bool TaskVass::IsBlocking(int state) const {
  if (!buchi_->finite_accepting(states_[state].q)) return false;
  const ChildStage* st = stages(state);
  return std::any_of(st, st + num_children_, [](const ChildStage& c) {
    return c.kind == ChildStage::Kind::kActiveBottom;
  });
}

bool TaskVass::IsBuchiAccepting(int state) const {
  return buchi_->accepting(states_[state].q);
}

ChildOutcome TaskVass::OutputOf(int state) const {
  const State& s = states_[state];
  ChildOutcome out;
  out.iso = pool_->type(s.iso).Project(ctx_->output_vars(), ctx_->nav_depth());
  if (ctx_->basis() != nullptr) {
    out.cell = pool_->cell(s.cell).RestrictTo(ctx_->output_polys());
  }
  return out;
}

const PartialIsoType& TaskVass::state_iso(int state) const {
  return pool_->type(states_[state].iso);
}

}  // namespace has
