#include "core/task_vass.h"

#include <algorithm>
#include <optional>

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
      state_index_(0, StateIndexHash{&states_, &probe_},
                   StateIndexEq{&states_, &probe_}) {
  buchi_ = &automata_->automaton(beta);
  ctx_->memo().Bind(pool_);
  for (TaskId child : ctx_->task().children()) {
    const std::string& name = ctx_->system().task(child).name();
    open_notes_.push_back("open " + name);
    open_bottom_notes_.push_back("open " + name + " (non-returning)");
    close_notes_.push_back("close " + name);
  }
}

TypeId TaskVass::InternIso(const PartialIsoType& iso) {
  return pool_->InternNormalized(iso);
}

CellId TaskVass::InternCell(const Cell& cell) {
  return pool_->InternCell(cell);
}

int TaskVass::InternProbe() {
  auto it = state_index_.find(kProbe);
  if (it != state_index_.end()) return *it;
  int id = static_cast<int>(states_.size());
  states_.push_back(probe_);
  state_index_.insert(id);
  return id;
}

int64_t TaskVass::InternRecord(const RecordKey& key, const std::string& note) {
  auto it = record_index_.find(key);
  if (it != record_index_.end()) return it->second;
  int64_t label = static_cast<int64_t>(records_.size());
  TransitionRecord rec;
  rec.service = key.service;
  rec.target_state = key.target;
  rec.child_beta = key.child_beta;
  rec.child_key = key.child_key;
  rec.child_result_index = key.child_result_index;
  rec.note = note;
  records_.push_back(std::move(rec));
  record_index_.emplace(key, label);
  return label;
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
  OutcomeKey key;
  key.bottom = src->bottom;
  // Child outcomes arrive as canonical pool representatives (the
  // engine normalizes them when deduplicating returning outputs).
  key.iso = pool_->InternNormalized(src->iso);
  key.cell = pool_->InternCell(src->cell);
  auto it = outcome_index_.find(key);
  if (it != outcome_index_.end()) return by_src->second = it->second;
  int id = static_cast<int>(outcomes_.size());
  // Store the canonical (normalized) instance from the pool so every
  // consumer sees the interned representative.
  ChildOutcome outcome;
  outcome.bottom = src->bottom;
  outcome.iso = pool_->type(key.iso);
  outcome.cell = src->cell;
  outcomes_.push_back(std::move(outcome));
  outcome_keys_.push_back(key);
  outcome_index_.emplace(key, id);
  return by_src->second = id;
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
                            std::optional<InputBodies>* input,
                            EnumMemo::Internal* head) const {
  const InternalService& svc = ctx_->task().service(service);
  head->pre = ctx_->EvalSym(*svc.pre, cur) == Truth::kTrue;
  if (!head->pre) return;
  head->post = ctx_->EvalSym(*svc.post, cur) == Truth::kTrue;
  const size_t num_rels = static_cast<size_t>(ctx_->num_set_relations());
  head->insert_ts.resize(num_rels);
  head->insert_input_bound.assign(num_rels, 0);
  for (int rel : svc.insert_rels) {
    TsType ts = ctx_->TsTypeOf(cur.iso, rel);
    head->insert_ts[rel] = Pooled<PartialIsoType>(std::move(ts.type));
    head->insert_input_bound[rel] = ts.input_bound;
  }
  if (!input->has_value()) {
    SymbolicConfig base = ctx_->InputBase(cur);
    EnumMemo::Bodies* bodies = &ctx_->memo().BodiesOf(base);
    input->emplace(InputBodies{std::move(base), bodies});
  }
  const InputBodies& in = **input;
  head->body = &ctx_->memo().GetBody(
      in.bodies, service,
      [&](EnumMemo::InternalBody* body) { FillBody(in.base, service, body); });
  if (ctx_->options().por && ctx_->PorServiceEligible(service) &&
      head->post) {
    head->stutter_letter = MakeLetter(
        cur, ServiceRef::Internal(ctx_->task_id(), service), kNoTask, 0);
  }
}

void TaskVass::FillBody(const SymbolicConfig& base, int service,
                        EnumMemo::InternalBody* body) const {
  const ServiceRef ref = ServiceRef::Internal(ctx_->task_id(), service);
  std::vector<InternalSuccessor> succs = EnumerateInternal(
      *ctx_, base, ctx_->task().service(service), &body->truncated);
  body->successors.reserve(succs.size());
  for (InternalSuccessor& s : succs) {
    EnumMemo::InternalBody::Successor out;
    out.step.letter = MakeLetter(s.next, ref, kNoTask, 0);
    out.step.iso = Pooled<PartialIsoType>(std::move(s.next.iso));
    out.step.cell = Pooled<Cell>(std::move(s.next.cell));
    out.set_ops.reserve(s.set_ops.size());
    for (SetOpEffect& eff : s.set_ops) {
      EnumMemo::InternalBody::SetOp op;
      op.relation = eff.relation;
      op.inserts = eff.inserts;
      op.retrieves = eff.retrieves;
      if (eff.retrieves) {
        op.retrieve_input_bound = eff.retrieve_ts.input_bound;
        op.retrieve_ts =
            Pooled<PartialIsoType>(std::move(eff.retrieve_ts.type));
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
                          const ChildOutcome& outcome,
                          EnumMemo::Return* entry) const {
  const TaskId child_id = ctx_->task().children()[child];
  std::vector<SymbolicConfig> nexts =
      ApplyChildReturn(*ctx_, *child_ctxs_->at(child_id), cur, outcome.iso,
                       outcome.cell, &entry->truncated);
  const ServiceRef ref = ServiceRef::Closing(child_id);
  entry->steps.reserve(nexts.size());
  for (SymbolicConfig& next : nexts) {
    EnumMemo::Step step;
    step.letter = MakeLetter(next, ref, kNoTask, 0);
    step.iso = Pooled<PartialIsoType>(std::move(next.iso));
    step.cell = Pooled<Cell>(std::move(next.cell));
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
      probe_.iso = InternIso(config.iso);
      probe_.cell = InternCell(config.cell);
      probe_.service = open_self;
      probe_.q = q;
      probe_.stages.assign(ctx_->task().children().size(), ChildStage{});
      probe_.ib_bits.clear();
      int id = InternProbe();
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
  }
  return out;
}

const std::vector<int>& TaskVass::BuchiSuccessors(
    int q, const std::vector<bool>& letter) {
  auto [it, fresh] = buchi_successors_.try_emplace(LetterKey{&letter, q});
  if (fresh) {
    for (int q2 : buchi_->successors(q)) {
      if (buchi_->CompatibleWith(q2, letter)) it->second.push_back(q2);
    }
  }
  return it->second;
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
  pe.q2s = &BuchiSuccessors(q, letter);
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

  bool any_active = false;
  for (const ChildStage& st : from.stages) {
    if (st.kind == ChildStage::Kind::kActive ||
        st.kind == ChildStage::Kind::kActiveBottom) {
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
    // configuration, so the choice is a pure function of the state.
    const int num_services = static_cast<int>(task.services().size());
    heads_.resize(static_cast<size_t>(num_services));
    std::optional<InputBodies> input;  // set by the first body lookup
    for (int i = 0; i < num_services; ++i) {
      heads_[i] = &memo.GetInternal(
          {from.iso, from.cell, i},
          [&](EnumMemo::Internal* e) { FillInternal(cur(), i, &input, e); });
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
    // Emits every successor of service `i`. Pool ids are taken in the
    // order the unmemoized enumeration interned them, and only for what
    // it interned: the inserted TS-types once the service has a
    // successor, each retrieved TS-type up to the first infeasible
    // retrieve, and the target of each feasible successor.
    auto emit_service = [&](int i) {
      const EnumMemo::Internal& e = *heads_[i];
      if (!e.pre) return;
      const InternalService& svc = task.service(i);
      const EnumMemo::InternalBody& body = *e.body;
      pending->truncated = pending->truncated || body.truncated;
      // Each inserted TS-type is the per-relation projection of the
      // CURRENT state, so it is identical across every successor of
      // this service (the retrieved types vary per successor).
      insert_ts_.assign(e.insert_ts.size(), kNoTypeId);
      if (!body.successors.empty()) {
        for (int rel : svc.insert_rels) {
          insert_ts_[rel] = e.insert_ts[rel].Id(pool_);
        }
      }
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
            op.insert_ts = insert_ts_[eff.relation];
          }
          if (eff.retrieves) {
            op.retrieves = true;
            op.retrieve_input_bound = eff.retrieve_input_bound;
            op.retrieve_ts = eff.retrieve_ts.Id(pool_);
            if (eff.retrieve_input_bound) {
              // Read-only feasibility precheck (ib-bit ALLOCATION stays
              // in the commit): the retrieve can only succeed when the
              // (relation, type) bit is already in the state's set, or
              // when this same transition inserts the identical TS type
              // into the same relation. Skipping here saves the
              // letter/interning/Büchi work for successors the commit
              // would drop anyway. ib_index_ is only mutated by
              // commits, which never overlap prepares.
              auto it =
                  ib_index_.find(RelTypeKey(eff.relation, op.retrieve_ts));
              bool in_set = it != ib_index_.end() &&
                            std::find(from.ib_bits.begin(),
                                      from.ib_bits.end(),
                                      it->second) != from.ib_bits.end();
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
        const TypeId next_iso = s.step.iso.Id(pool_);
        const CellId next_cell = s.step.cell.Id(pool_);
        PendingEdge* pe = EmitPending(
            from.q, next_iso, next_cell, s.step.letter,
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
        op.insert_ts = e.insert_ts[rel].Id(pool_);
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
    if (from.stages[c].kind != ChildStage::Kind::kInit) continue;
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
    if (from.stages[c].kind != ChildStage::Kind::kActive) continue;
    const int ci = static_cast<int>(c);
    const int outcome = from.stages[c].outcome;
    const OutcomeKey& o = outcome_keys_[outcome];
    const EnumMemo::Return& e = memo.GetReturn(
        {from.iso, from.cell, ci, o.iso, o.cell},
        [&](EnumMemo::Return* out) {
          FillReturn(cur(), ci, outcomes_[outcome], out);
        });
    pending->truncated = pending->truncated || e.truncated;
    TaskId child_id = task.children()[c];
    for (const EnumMemo::Step& s : e.steps) {
      const TypeId next_iso = s.iso.Id(pool_);
      const CellId next_cell = s.cell.Id(pool_);
      PendingEdge* pe = EmitPending(from.q, next_iso, next_cell, s.letter,
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
  // Interning may grow `states_`, so the source state is read through
  // copies.
  from_stages_ = states_[state].stages;
  from_ib_ = states_[state].ib_bits;
  size_t max_edges = 0;
  for (const PendingEdge& pe : pending->edges) max_edges += pe.q2s->size();
  out->reserve(out->size() + max_edges);
  const size_t num_children = ctx_->task().children().size();
  int ample_committed = 0;
  for (size_t pi = 0; pi < pending->edges.size(); ++pi) {
    const PendingEdge& pe = pending->edges[pi];
    // Resolve artifact-relation bookkeeping to counter dimensions / ib
    // bits. Allocation order (ascending relation index per edge,
    // inserts before retrieves within a relation, pending-edge order
    // across successors) matches the sequential enumeration, so
    // dimension numbering is reproducible.
    delta_.clear();
    std::vector<int>& ib = probe_.ib_bits;
    ib = from_ib_;
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
    std::vector<ChildStage>& stages = probe_.stages;
    if (pe.fresh_stages) {
      stages.assign(num_children, ChildStage{});
    } else {
      stages = from_stages_;
    }
    if (!pe.fresh_stages && pe.stage_child >= 0) {
      int outcome = -1;
      Assignment beta = pe.child_beta;
      if (pe.stage_kind == ChildStage::Kind::kActive) {
        outcome = InternOutcome(pe.outcome_src);
      } else if (pe.stage_kind == ChildStage::Kind::kClosed) {
        beta = from_stages_[pe.stage_child].beta;
      }
      stages[pe.stage_child] = ChildStage{pe.stage_kind, outcome, beta};
    }
    probe_.iso = pe.next_iso;
    probe_.cell = pe.next_cell;
    probe_.service = pe.service;
    RecordKey key;
    key.service = pe.service;
    key.child_beta = pe.child_beta;
    key.child_key = pe.child_key;
    key.child_result_index = pe.child_result_index;
    for (int q2 : *pe.q2s) {
      probe_.q = q2;
      key.target = InternProbe();
      out->push_back(
          VassEdge{key.target, delta_, InternRecord(key, *pe.note)});
      if (pi < static_cast<size_t>(pending->ample_pending)) {
        ++ample_committed;
      }
    }
  }
  // Record the ample-prefix length for AmplePrefix. The ample choice
  // and its successor set are pure functions of the configuration.
  if (ample_prefix_.size() < states_.size()) {
    ample_prefix_.resize(states_.size(), 0);
  }
  ample_prefix_[static_cast<size_t>(state)] = ample_committed;
  prepared.release();
  spare_.reset(pending);
}

void TaskVass::ReleaseScratch() {
  // Swapping with empty containers frees their storage (clear() keeps
  // capacity and bucket arrays).
  decltype(buchi_successors_)().swap(buchi_successors_);
  decltype(child_batches_)().swap(child_batches_);
  spare_.reset();
  decltype(heads_)().swap(heads_);
  decltype(ample_)().swap(ample_);
  decltype(insert_ts_)().swap(insert_ts_);
  decltype(from_stages_)().swap(from_stages_);
  decltype(from_ib_)().swap(from_ib_);
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
  const State& s = states_[state];
  if (!buchi_->finite_accepting(s.q)) return false;
  for (const ChildStage& st : s.stages) {
    if (st.kind == ChildStage::Kind::kActiveBottom) return true;
  }
  return false;
}

bool TaskVass::IsBuchiAccepting(int state) const {
  return buchi_->accepting(states_[state].q);
}

ChildOutcome TaskVass::OutputOf(int state) const {
  const State& s = states_[state];
  ChildOutcome out;
  out.bottom = false;
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
