#include "core/task_vass.h"

#include <algorithm>
#include <optional>
#include <tuple>

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
  bool truncated = false;
  std::vector<SymbolicConfig> openings =
      EnumerateOpening(*ctx_, input_iso_, input_cell_, &truncated);
  truncated_ = truncated_ || truncated;
  ServiceRef open_self = ServiceRef::Opening(ctx_->task_id());
  for (const SymbolicConfig& config : openings) {
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

TaskVass::PendingEdge* TaskVass::EmitPending(
    int q, TypeId next_iso, CellId next_cell, const std::vector<bool>& letter,
    const ServiceRef& service, Assignment child_beta, const std::string* note,
    PendingSuccessors* pending) {
  PendingEdge& pe = pending->edges.emplace_back();
  pe.next_iso = next_iso;
  pe.next_cell = next_cell;
  pe.service = service;
  pe.child_beta = child_beta;
  pe.note = note;
  std::tie(pe.q2_begin, pe.q2_end) = BuchiSuccessors(q, letter);
  const auto ops = static_cast<uint32_t>(pending->set_ops.size());
  pe.set_ops_begin = ops;
  pe.set_ops_end = ops;
  return &pe;
}

std::unique_ptr<VassSystem::Prepared> TaskVass::PrepareSuccessors(
    int state) {
  std::unique_ptr<PendingSuccessors> pending = std::move(spare_);
  if (pending == nullptr) {
    pending = std::make_unique<PendingSuccessors>();
  } else {
    pending->edges.clear();
    pending->set_ops.clear();
    pending->truncated = false;
    pending->ample_pending = 0;
  }
  // Prepares only read `states_` (child queries build other products),
  // so the reference stays valid.
  const State& from = states_[state];
  const Task& task = ctx_->task();
  // The root cut (root_decided_): a blocking root state asked to expand
  // has a live node, so ⊥ is reachable and the root query is decided;
  // from then on the root product emits nothing.
  if (task.is_root()) {
    root_decided_ = root_decided_ || IsBlocking(state);
    if (root_decided_) return pending;
  }
  // Returned states are absorbing.
  if (from.service.kind == ServiceRef::Kind::kClosing &&
      from.service.task == ctx_->task_id()) {
    return pending;
  }
  // Steps (A)–(D) are read from the task's enumeration memo, keyed by
  // the state's configuration (an internal step's successors by its
  // input base); the configuration itself is materialized only to fill
  // entries. What varies per product state — Büchi compatibility from
  // `q`, the ib-bit precheck, the child stages — is recomputed here.
  std::optional<SymbolicConfig> cur_storage;
  const auto cur = [&]() -> const SymbolicConfig& {
    if (!cur_storage.has_value()) {
      cur_storage.emplace(
          SymbolicConfig{pool_->type(from.iso), pool_->cell(from.cell)});
    }
    return *cur_storage;
  };
  EnumMemo& memo = ctx_->memo();

  const ChildStage* from_stages = stages(state);
  bool any_active = false;
  for (size_t c = 0; c < num_children_; ++c) {
    if (from_stages[c].kind == ChildStage::Kind::kActive ||
        from_stages[c].kind == ChildStage::Kind::kActiveBottom) {
      any_active = true;
    }
  }

  // (A) Internal services: all subtasks must have returned
  // (restriction 4).
  if (!any_active) {
    // Partial-order reduction: the ample set collects every statically
    // eligible service (insert-only, unobserved, X-free skeletons —
    // TaskContext::PorServiceEligible) that is enabled AND whose
    // post-condition already holds, so its successor set contains the
    // IDENTITY STUTTER step: same iso/cell, marking bumped by the
    // insert deltas only. That step is the whole soundness argument —
    // from its target (same configuration, at least as many tokens)
    // every skipped transition remains enabled with a covering outcome,
    // because internal services resample all non-input variables from
    // the same input projection and inserts only ever ADD counters. So
    // the ample prefix is ONE stutter edge per eligible service
    // (ascending service index), each constructed directly
    // (EnumerateInternal would bury it in the service's full cell
    // fan-out); the committed prefix length is what AmplePrefix(state)
    // reports, and the explorer expands only that prefix while at least
    // one prefix edge makes progress — reaches a FRESH node
    // (vass/karp_miller.cc). Keeping all eligible stutters matters:
    // once one service's counters saturate to ω its stutter stops
    // being fresh, and the remaining services' diagonals must keep the
    // reduction alive. The full service list follows in natural order —
    // ample services included — so a revert expands the state exactly
    // as a POR-off build would (plus duplicate stutter edges that fold
    // into their own nodes). States entered by an observed service
    // expand fully — the stutter must not sit on a letter the property
    // can see. Everything read here is part of the state's
    // configuration, so the choice is a pure function of the state
    // (the root cut aside: a cut root product emits nothing).
    const int num_services = static_cast<int>(task.services().size());
    heads_.resize(static_cast<size_t>(num_services));
    EnumMemo::Key base;  // the input base's ids, set by the first fill
    for (int i = 0; i < num_services; ++i) {
      heads_[i] = &memo.GetInternal(
          {from.iso, from.cell, i},
          [&](EnumMemo::Internal* e) { FillInternal(cur(), i, &base, e); });
    }
    ample_.clear();
    if (ctx_->options().por && !ctx_->PorServiceIsProp(from.service)) {
      for (int i = 0; i < num_services; ++i) {
        if (ctx_->PorServiceEligible(i) && heads_[i]->pre &&
            heads_[i]->post) {
          ample_.push_back(i);
        }
      }
    }
    // Emits every successor of service `i`.
    auto emit_service = [&](int i) {
      const EnumMemo::Internal& e = *heads_[i];
      if (!e.pre) return;
      const InternalService& svc = task.service(i);
      const EnumMemo::InternalBody& body = *e.body;
      pending->truncated = pending->truncated || body.truncated;
      std::vector<PendingEdge::PendingSetOp>& ops = pending->set_ops;
      for (const EnumMemo::InternalBody::Successor& s : body.successors) {
        const size_t ops_begin = ops.size();
        bool feasible = true;
        for (const EnumMemo::InternalBody::SetOp& eff : s.set_ops) {
          PendingEdge::PendingSetOp& op = ops.emplace_back();
          op.relation = eff.relation;
          op.inserts = eff.inserts;
          if (eff.inserts) {
            op.insert_input_bound = e.insert_input_bound[eff.relation] != 0;
            // The inserted TS-type is the per-relation projection of
            // the CURRENT state, the same for every successor.
            op.insert_ts = e.insert_ts[eff.relation];
          }
          if (eff.retrieves) {
            op.retrieves = true;
            op.retrieve_input_bound = eff.retrieve_input_bound;
            op.retrieve_ts = eff.retrieve_ts;
            if (eff.retrieve_input_bound) {
              // Read-only feasibility precheck (ib-bit ALLOCATION stays
              // in the commit): the retrieve can only succeed when the
              // (relation, type) bit is already in the state's set, or
              // when this same transition inserts the identical TS type
              // into the same relation. Skipping here saves the Büchi
              // work for successors the commit would drop anyway.
              // ib_index_ is only mutated by commits, which never
              // overlap prepares.
              auto it =
                  ib_index_.find(RelTypeKey(eff.relation, op.retrieve_ts));
              const int* ib_begin = ib_store_.data() + from.ib_begin;
              const int* ib_end = ib_store_.data() + from.ib_end;
              bool in_set = it != ib_index_.end() &&
                            std::find(ib_begin, ib_end, it->second) != ib_end;
              bool inserted_same = op.insert_input_bound &&
                                   op.insert_ts == op.retrieve_ts;
              if (!in_set && !inserted_same) {
                feasible = false;
                break;
              }
            }
          }
        }
        if (!feasible) {
          ops.resize(ops_begin);
          continue;
        }
        const auto ops_end = static_cast<uint32_t>(ops.size());
        PendingEdge* pe = EmitPending(
            from.q, s.step.iso, s.step.cell, s.step.letter,
            ServiceRef::Internal(ctx_->task_id(), i), 0, &svc.name,
            pending.get());
        pe->fresh_stages = true;
        pe->set_ops_begin = static_cast<uint32_t>(ops_begin);
        pe->set_ops_end = ops_end;
      }
    };
    for (int a : ample_) {
      const EnumMemo::Internal& e = *heads_[a];
      const InternalService& svc = task.service(a);
      PendingEdge* pe = EmitPending(
          from.q, from.iso, from.cell, e.stutter_letter,
          ServiceRef::Internal(ctx_->task_id(), a), 0, &svc.name,
          pending.get());
      pe->fresh_stages = true;
      for (int rel = 0; rel < ctx_->num_set_relations(); ++rel) {
        if (!svc.InsertsInto(rel)) continue;
        PendingEdge::PendingSetOp& op = pending->set_ops.emplace_back();
        op.relation = rel;
        op.inserts = true;
        op.insert_input_bound = e.insert_input_bound[rel] != 0;
        op.insert_ts = e.insert_ts[rel];
      }
      pe->set_ops_end = static_cast<uint32_t>(pending->set_ops.size());
    }
    // If no Büchi successor is compatible with the stutter letter the
    // prefix commits zero edges and AmplePrefix stays 0 — the state
    // expands fully.
    pending->ample_pending = static_cast<int>(pending->edges.size());
    for (int i = 0; i < num_services; ++i) emit_service(i);
  }

  // (B) Open a child (at most once per segment). The oracle round-trip
  // is batched per child: one input interning covers every β_c, and
  // the product keeps the batch for the opening's later prepares.
  for (size_t c = 0; c < task.children().size(); ++c) {
    if (from_stages[c].kind != ChildStage::Kind::kInit) continue;
    const int ci = static_cast<int>(c);
    const EnumMemo::Opening& e = memo.GetOpening(
        {from.iso, from.cell, ci},
        [&](EnumMemo::Opening* out) { FillOpening(cur(), ci, out); });
    if (!e.enabled) continue;
    TaskId child_id = task.children()[c];
    auto [slot, fresh] = child_batches_.try_emplace(&e);
    if (fresh) {
      slot->second =
          oracle_->QueryAll(child_id, e.child_iso, e.child_cell,
                            static_cast<Assignment>(e.letters.size()));
    }
    const RtOracle::BatchedChildResult& batch = slot->second;
    for (Assignment bc = 0; bc < static_cast<Assignment>(e.letters.size());
         ++bc) {
      const ChildResult& result = *batch.results[bc];
      for (size_t oi = 0; oi < result.returning.size(); ++oi) {
        PendingEdge* pe =
            EmitPending(from.q, from.iso, from.cell, e.letters[bc],
                        ServiceRef::Opening(child_id), bc, &open_notes_[c],
                        pending.get());
        pe->stage_child = ci;
        pe->stage_kind = ChildStage::Kind::kActive;
        pe->outcome_src = &result.returning[oi];
        pe->child_key = batch.keys[bc];
        pe->child_result_index = static_cast<int>(oi);
      }
      if (result.has_bottom) {
        PendingEdge* pe = EmitPending(
            from.q, from.iso, from.cell, e.letters[bc],
            ServiceRef::Opening(child_id), bc, &open_bottom_notes_[c],
            pending.get());
        pe->stage_child = ci;
        pe->stage_kind = ChildStage::Kind::kActiveBottom;
        pe->child_key = batch.keys[bc];
        pe->child_result_index = -1;
      }
    }
  }

  // (C) Close an active (returning) child.
  for (size_t c = 0; c < task.children().size(); ++c) {
    if (from_stages[c].kind != ChildStage::Kind::kActive) continue;
    const int ci = static_cast<int>(c);
    const OutcomeKey& o = outcome_keys_[from_stages[c].outcome];
    const EnumMemo::Return& e = memo.GetReturn(
        {from.iso, from.cell, ci, o.iso, o.cell},
        [&](EnumMemo::Return* out) { FillReturn(cur(), ci, o, out); });
    pending->truncated = pending->truncated || e.truncated;
    TaskId child_id = task.children()[c];
    for (const EnumMemo::Step& s : e.steps) {
      PendingEdge* pe = EmitPending(from.q, s.iso, s.cell, s.letter,
                                    ServiceRef::Closing(child_id), 0,
                                    &close_notes_[c], pending.get());
      pe->stage_child = ci;
      pe->stage_kind = ChildStage::Kind::kClosed;
    }
  }

  // (D) Close this task (terminal returning segment: every opened child
  // has returned).
  if (!any_active && !ctx_->task().is_root()) {
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
      EmitPending(from.q, from.iso, from.cell, e.letter, close_self, 0,
                  &close_self_note_, pending.get());
    }
  }
  return pending;
}

void TaskVass::CommitSuccessors(int state, std::unique_ptr<Prepared> prepared,
                                std::vector<VassEdge>* out) {
  auto* pending = static_cast<PendingSuccessors*>(prepared.get());
  if (pending == nullptr) return;
  truncated_ = truncated_ || pending->truncated;
  // Interning may grow the stores, so the source state is read by
  // position.
  const size_t from_stage_at = static_cast<size_t>(state) * num_children_;
  const uint32_t from_ib_begin = states_[state].ib_begin;
  const uint32_t from_ib_end = states_[state].ib_end;
  size_t max_edges = 0;
  for (const PendingEdge& pe : pending->edges) {
    max_edges += pe.q2_end - pe.q2_begin;
  }
  out->reserve(out->size() + max_edges);
  const bool task_is_root = ctx_->task().is_root();
  int ample_committed = 0;
  bool cut = false;
  for (size_t pi = 0; pi < pending->edges.size(); ++pi) {
    const PendingEdge& pe = pending->edges[pi];
    // Resolve artifact-relation bookkeeping to counter dimensions / ib
    // bits. Allocation order (ascending relation index per edge,
    // inserts before retrieves within a relation, pending-edge order
    // across successors) matches the sequential enumeration, so
    // dimension numbering is reproducible.
    delta_.clear();
    std::vector<int>& ib = probe_ib_;
    ib.assign(ib_store_.begin() + from_ib_begin,
              ib_store_.begin() + from_ib_end);
    bool feasible = true;
    for (uint32_t k = pe.set_ops_begin; k < pe.set_ops_end; ++k) {
      const PendingEdge::PendingSetOp& op = pending->set_ops[k];
      if (op.inserts) {
        if (op.insert_input_bound) {
          int id = IbIdOf(op.relation, op.insert_ts);
          if (std::find(ib.begin(), ib.end(), id) == ib.end()) {
            ib.push_back(id);
          }
        } else {
          delta_.emplace_back(DimOf(op.relation, op.insert_ts), 1);
        }
      }
      if (op.retrieves) {
        if (op.retrieve_input_bound) {
          int id = IbIdOf(op.relation, op.retrieve_ts);
          auto it = std::find(ib.begin(), ib.end(), id);
          if (it == ib.end()) {
            feasible = false;  // nothing of this type in the relation
            break;
          }
          ib.erase(it);
        } else {
          delta_.emplace_back(DimOf(op.relation, op.retrieve_ts), -1);
        }
      }
    }
    if (!feasible) continue;
    std::sort(ib.begin(), ib.end());
    std::vector<ChildStage>& stages = probe_stages_;
    if (pe.fresh_stages) {
      stages.assign(num_children_, ChildStage{});
    } else {
      stages.assign(stage_store_.begin() + from_stage_at,
                    stage_store_.begin() + from_stage_at + num_children_);
    }
    if (!pe.fresh_stages && pe.stage_child >= 0) {
      int outcome = -1;
      Assignment beta = pe.child_beta;
      if (pe.stage_kind == ChildStage::Kind::kActive) {
        outcome = InternOutcome(pe.outcome_src);
      } else if (pe.stage_kind == ChildStage::Kind::kClosed) {
        beta = stage_store_[from_stage_at + pe.stage_child].beta;
      }
      stages[pe.stage_child] = ChildStage{pe.stage_kind, outcome, beta};
    }
    probe_.iso = pe.next_iso;
    probe_.cell = pe.next_cell;
    probe_.service = pe.service;
    // An edge with no negative delta is enabled at every marking.
    const bool can_cut =
        task_is_root &&
        std::none_of(delta_.begin(), delta_.end(),
                     [](const auto& d) { return d.second < 0; });
    for (uint32_t k = pe.q2_begin; k < pe.q2_end; ++k) {
      probe_.q = q2_store_[k];
      const int target = InternProbe();
      // The commit that creates a state writes its record; every later
      // edge into it did the same thing (see TransitionRecord).
      if (static_cast<size_t>(target) == records_.size()) {
        records_.push_back(TransitionRecord{pe.service, pe.child_key,
                                            pe.child_result_index, *pe.note});
      }
      out->push_back(VassEdge{target, delta_, target});
      if (pi < static_cast<size_t>(pending->ample_pending)) {
        ++ample_committed;
      }
      // The root cut: the explorer follows such an edge into a blocking
      // state at the node it is expanding (the commit records no ample
      // prefix), so a node of the blocking state exists and the root
      // query is decided.
      if (can_cut && IsBlocking(target)) cut = true;
    }
  }
  root_decided_ = root_decided_ || cut;
  // Record the ample-prefix length for AmplePrefix. Until the root cut
  // the ample choice and its successor set are pure functions of the
  // configuration.
  if (ample_prefix_.size() < states_.size()) {
    ample_prefix_.resize(states_.size(), 0);
  }
  ample_prefix_[static_cast<size_t>(state)] = cut ? 0 : ample_committed;
  prepared.release();
  spare_.reset(pending);
}

void TaskVass::ReleaseScratch() {
  // Swapping with empty containers frees their storage (clear() keeps
  // capacity and bucket arrays).
  decltype(q2_lists_)().swap(q2_lists_);
  q2_index_ = IdIndex();
  decltype(q2_store_)().swap(q2_store_);
  decltype(child_batches_)().swap(child_batches_);
  spare_.reset();
  decltype(heads_)().swap(heads_);
  decltype(ample_)().swap(ample_);
  decltype(delta_)().swap(delta_);
}

void TaskVass::Successors(int state, std::vector<VassEdge>* out) {
  CommitSuccessors(state, PrepareSuccessors(state), out);
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
