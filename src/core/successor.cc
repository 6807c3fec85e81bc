#include "core/successor.h"

#include <algorithm>
#include <optional>

#include "common/status.h"
#include "model/independence.h"

namespace has {

namespace {

/// Whether an atom belongs to the equality component (everything except
/// genuine arithmetic).
bool IsEqualityAtom(const Condition& atom) {
  return !(atom.kind() == CondKind::kArith && atom.UsesArithmetic());
}

/// Whether an LTL skeleton contains a Next operator anywhere. Ample
/// stutter steps repeat the current letter, which only X can observe —
/// F/G/U are derived without X (ltl/formula.h), so typical properties
/// pass.
bool ContainsNext(const LtlFormula* f) {
  if (f == nullptr) return false;
  if (f->kind() == LtlKind::kNext) return true;
  return ContainsNext(f->left().get()) || ContainsNext(f->right().get());
}

}  // namespace

TaskContext::TaskContext(const ArtifactSystem* system,
                         const HltlProperty* property, TaskId task,
                         const VerifierOptions& options, const Hcd* hcd)
    : system_(system),
      property_(property),
      task_(task),
      options_(&options),
      basis_(hcd != nullptr ? &hcd->basis(task) : nullptr),
      memo_(std::make_unique<EnumMemo>()) {
  const Task& t = system->task(task);
  for (int v : t.InputVars()) input_vars_.insert(v);
  for (const SetRelation& rel : t.set_relations()) {
    rel_vars_.emplace_back(rel.vars.begin(), rel.vars.end());
    set_vars_.insert(rel.vars.begin(), rel.vars.end());
  }
  CollectAtoms();
  ComputePor();
  if (basis_ != nullptr) {
    // Preserved polynomials: all of whose variables are numeric inputs.
    std::vector<ArithVar> numeric_inputs;
    for (int v : input_vars_) {
      if (t.vars().var(v).sort == VarSort::kNumeric) {
        numeric_inputs.push_back(v);
      }
    }
    preserved_polys_ = basis_->PolysOverVars(numeric_inputs);
  }
  output_vars_ = input_vars_;
  for (int v : t.ReturnVars()) output_vars_.insert(v);
  if (basis_ != nullptr) {
    std::vector<ArithVar> numeric_outputs;
    for (int v : output_vars_) {
      if (t.vars().var(v).sort == VarSort::kNumeric) {
        numeric_outputs.push_back(v);
      }
    }
    output_polys_ = basis_->PolysOverVars(numeric_outputs);
  }
}

TaskContext::~TaskContext() = default;

void TaskContext::CollectAtoms() {
  const Task& t = system_->task(task_);
  std::vector<const Condition*> raw;
  auto harvest = [&raw](const CondPtr& c) {
    if (c != nullptr) c->CollectAtoms(&raw);
  };
  for (const InternalService& s : t.services()) {
    harvest(s.pre);
    harvest(s.post);
  }
  harvest(t.closing_pre());
  for (TaskId c : t.children()) {
    harvest(system_->task(c).opening_pre());
  }
  if (property_ != nullptr) {
    for (int node : property_->NodesOfTask(task_)) {
      for (const HltlProp& p : property_->node(node).props) {
        if (p.kind == HltlProp::Kind::kCondition) harvest(p.condition);
      }
    }
  }
  if (task_ == system_->root()) {
    harvest(system_->global_pre());
  }

  std::vector<CondPtr> null_checks;
  auto add_null_check = [&](int var) {
    if (t.vars().var(var).sort == VarSort::kId) {
      null_checks.push_back(Condition::IsNull(var));
    }
  };
  for (const auto& [own, parent] : t.fin()) {
    (void)parent;
    add_null_check(own);
  }
  for (const auto& [parent, own] : t.fout()) {
    (void)parent;
    add_null_check(own);
  }
  for (int v : set_vars_) add_null_check(v);
  for (TaskId c : t.children()) {
    const Task& child = system_->task(c);
    for (const auto& [child_var, parent_var] : child.fin()) {
      (void)child_var;
      add_null_check(parent_var);
    }
    for (const auto& [parent_var, child_var] : child.fout()) {
      (void)child_var;
      add_null_check(parent_var);
    }
  }
  for (const CondPtr& c : null_checks) raw.push_back(c.get());

  // Deduplicate and keep equality-component atoms. Raw pointers from
  // CollectAtoms stay alive through the owning conditions; we rebuild
  // shared ownership for the null checks by retaining them.
  for (const Condition* atom : raw) {
    if (!IsEqualityAtom(*atom)) continue;
    bool seen = false;
    for (const CondPtr& kept : eq_atoms_) {
      if (kept->Equals(*atom)) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    // Clone the atom into owned form (atoms are leaves, cheap to
    // rebuild via MapVars identity).
    std::vector<int> identity(t.vars().size());
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<int>(i);
    }
    eq_atoms_.push_back(atom->MapVars(identity));
  }
}

void TaskContext::ComputePor() {
  const Task& t = system_->task(task_);
  bool x_free = true;
  if (property_ != nullptr) {
    for (int node : property_->NodesOfTask(task_)) {
      const HltlNode& n = property_->node(node);
      if (ContainsNext(n.skeleton.get())) x_free = false;
      for (const HltlProp& p : n.props) {
        if (p.kind == HltlProp::Kind::kService) {
          por_service_props_.push_back(p.service);
        }
      }
    }
  }
  por_service_ok_.assign(t.services().size(), 0);
  if (!x_free) return;
  for (size_t i = 0; i < t.services().size(); ++i) {
    // Insert-only services are the profitable ample candidates:
    // their identity stutter strictly grows the marking, so the
    // diagonal makes progress until ω-acceleration saturates it.
    // (Zero-delta retrieve-free services would be equally SOUND as
    // stutters, but measurably hurt: they flip the state's service
    // component without advancing any counter, adding nodes instead of
    // collapsing interleavings.)
    if (!CheckDeltaTargets(t, t.service(static_cast<int>(i))).insert_only()) {
      continue;
    }
    if (PorServiceIsProp(
            ServiceRef::Internal(task_, static_cast<int>(i)))) {
      continue;
    }
    por_service_ok_[i] = 1;
  }
}

bool TaskContext::PorServiceIsProp(const ServiceRef& s) const {
  return std::find(por_service_props_.begin(), por_service_props_.end(), s) !=
         por_service_props_.end();
}

LinearSystem TaskContext::NumericEqualities(const PartialIsoType& iso) const {
  LinearSystem out;
  const VarScope& scope = system_->task(task_).vars();
  // Pairwise equalities of numeric variables within a class.
  std::vector<int> numeric_elems;
  for (int e = 0; e < iso.num_elements(); ++e) {
    const IsoElement& el = iso.element(e);
    if (el.kind == IsoElement::Kind::kVar &&
        scope.var(el.var).sort == VarSort::kNumeric) {
      numeric_elems.push_back(e);
    }
  }
  for (size_t i = 0; i < numeric_elems.size(); ++i) {
    std::optional<Rational> tag = iso.ConstOf(numeric_elems[i]);
    if (tag.has_value()) {
      LinearExpr expr = LinearExpr::Var(iso.element(numeric_elems[i]).var);
      expr.AddConstant(-*tag);
      out.Add(std::move(expr), Relop::kEq);
    }
    for (size_t j = i + 1; j < numeric_elems.size(); ++j) {
      if (iso.Same(numeric_elems[i], numeric_elems[j])) {
        LinearExpr expr = LinearExpr::Var(iso.element(numeric_elems[i]).var);
        expr.AddTerm(iso.element(numeric_elems[j]).var, Rational(-1));
        out.Add(std::move(expr), Relop::kEq);
      }
    }
  }
  return out;
}

Truth TaskContext::EvalSym(const Condition& cond, const PartialIsoType& iso,
                           const Cell& cell) const {
  switch (cond.kind()) {
    case CondKind::kTrue:
      return Truth::kTrue;
    case CondKind::kFalse:
      return Truth::kFalse;
    case CondKind::kEq:
    case CondKind::kRel:
      return iso.EvalAtom(cond);
    case CondKind::kArith: {
      int value = 0;
      if (cond.constraint().expr.IsConstant()) {
        // Ground constraint: its constant's sign decides it.
        value = cond.constraint().expr.constant().sign();
      } else {
        if (!cond.UsesArithmetic()) return iso.EvalAtom(cond);
        if (basis_ == nullptr) return Truth::kUnknown;
        bool negated = false;
        int poly = basis_->Find(cond.constraint().expr, &negated);
        if (poly == -1 || cell.size() <= poly) return Truth::kUnknown;
        Sign sign = cell.sign(poly);
        if (sign == kSignAny) return Truth::kUnknown;
        value = negated ? -sign : sign;
      }
      switch (cond.constraint().op) {
        case Relop::kLt:
          return value < 0 ? Truth::kTrue : Truth::kFalse;
        case Relop::kLe:
          return value <= 0 ? Truth::kTrue : Truth::kFalse;
        case Relop::kEq:
          return value == 0 ? Truth::kTrue : Truth::kFalse;
      }
      return Truth::kUnknown;
    }
    case CondKind::kNot:
      return TruthNot(EvalSym(*cond.child(0), iso, cell));
    case CondKind::kAnd:
      return TruthAnd(EvalSym(*cond.child(0), iso, cell),
                      EvalSym(*cond.child(1), iso, cell));
    case CondKind::kOr:
      return TruthOr(EvalSym(*cond.child(0), iso, cell),
                     EvalSym(*cond.child(1), iso, cell));
  }
  return Truth::kUnknown;
}

TsType TaskContext::TsTypeOf(const PartialIsoType& iso, int rel) const {
  const std::set<int>& tuple = rel_vars_[static_cast<size_t>(rel)];
  std::set<int> keep = input_vars_;
  keep.insert(tuple.begin(), tuple.end());
  // Project returns a normalized type, which is the canonical TS-type.
  TsType out{iso.Project(keep, nav_depth()), true};
  for (int v : tuple) {
    // Locate the variable element in the projection.
    int elem = -1;
    for (int e = 0; e < out.type.num_elements(); ++e) {
      const IsoElement& el = out.type.element(e);
      if (el.kind == IsoElement::Kind::kVar && el.var == v) {
        elem = e;
        break;
      }
    }
    if (elem == -1 || (!out.type.IsNullTagged(elem) &&
                       !out.type.ClassTouchesVars(elem, input_vars_))) {
      out.input_bound = false;  // unconstrained, or not input-anchored
      break;
    }
  }
  return out;
}

SymbolicConfig TaskContext::InputBase(const SymbolicConfig& cur) const {
  SymbolicConfig base{cur.iso.Project(input_vars_, nav_depth()),
                      Cell(basis_ != nullptr ? basis_->size() : 0)};
  for (int p : preserved_polys_) base.cell.set_sign(p, cur.cell.sign(p));
  return base;
}

PartialIsoType TaskContext::OpeningIso(const PartialIsoType& input) const {
  PartialIsoType iso = input;
  const VarScope& scope = system_->task(task_).vars();
  for (int v = 0; v < scope.size(); ++v) {
    if (input_vars_.count(v) > 0) continue;
    int elem = iso.VarElement(v);
    bool ok = scope.var(v).sort == VarSort::kId
                  ? iso.AssertEq(elem, iso.NullElement())
                  : iso.AssertEq(elem, iso.ConstElement(Rational(0)));
    HAS_CHECK_MSG(ok, "opening initialization contradiction");
  }
  return iso;
}

const std::vector<Cell>& CellCompletions(const TaskContext& ctx, Cell partial,
                                         LinearSystem extra) {
  return ctx.memo().GetCompletions(
      std::move(partial), std::move(extra),
      [&](const Cell& cell, const LinearSystem& eqs,
          EnumMemo::Completions* out) {
        std::vector<int> todo;
        for (int p = 0; p < cell.size(); ++p) {
          if (cell.sign(p) == kSignAny) todo.push_back(p);
        }
        // CompleteDecisions counts every cell it reads as a branch and
        // has counted at least one before, so it stops within the first
        // max_branches + 1 cells.
        EnumerateCells(*ctx.basis(), cell, todo, eqs, [&](const Cell& c) {
          out->push_back(c);
          return out->size() <= ctx.max_branches();
        });
      });
}

namespace {

/// Shared decision DFS: refines a configuration until every equality
/// atom of the context is decided, then (in arithmetic mode) completes
/// the cell (CellCompletions), requiring `must_hold` (if any) to be
/// definitely true at the leaves. Each node owns the configuration it
/// refines: a decision's first branch refines a copy, its last branch
/// the node's own configuration in place, and a leaf hands it to `emit`.
template <typename Emit>
class DecisionSearch {
 public:
  DecisionSearch(const TaskContext& ctx, const CondPtr& must_hold,
                 bool* truncated, const Emit& emit)
      : ctx_(ctx), must_hold_(must_hold), truncated_(truncated), emit_(emit) {}

  void Run(SymbolicConfig& cur) {
    if (++branches_ > ctx_.max_branches()) {
      *truncated_ = true;
      return;
    }
    if (must_hold_ != nullptr &&
        ctx_.EvalSym(*must_hold_, cur) == Truth::kFalse) {
      return;
    }
    // Next undecided equality atom.
    for (const CondPtr& atom : ctx_.eq_atoms()) {
      if (cur.iso.EvalAtom(*atom) != Truth::kUnknown) continue;
      {
        SymbolicConfig branch = cur;
        if (branch.iso.DecideAtom(*atom, true)) Run(branch);
      }
      if (cur.iso.DecideAtom(*atom, false)) Run(cur);
      return;
    }
    // All equality atoms decided. Complete the cell (if arithmetic).
    if (ctx_.basis() == nullptr) {
      if (must_hold_ != nullptr &&
          ctx_.EvalSym(*must_hold_, cur) != Truth::kTrue) {
        return;
      }
      cur.iso.Normalize();
      emit_(std::move(cur));
      return;
    }
    Cell partial(ctx_.basis()->size());
    for (int p = 0; p < cur.cell.size() && p < partial.size(); ++p) {
      partial.set_sign(p, cur.cell.sign(p));
    }
    // The memo's lists never move, so the reference stays valid while
    // emit runs.
    const std::vector<Cell>& cells = CellCompletions(
        ctx_, std::move(partial), ctx_.NumericEqualities(cur.iso));
    // Every completion shares the normalized type; `must_hold` is
    // decided on the type as refined.
    std::optional<PartialIsoType> normalized;
    for (const Cell& cell : cells) {
      if (++branches_ > ctx_.max_branches()) {
        *truncated_ = true;
        return;
      }
      if (must_hold_ != nullptr &&
          ctx_.EvalSym(*must_hold_, cur.iso, cell) != Truth::kTrue) {
        continue;
      }
      if (!normalized.has_value()) {
        normalized.emplace(cur.iso);
        normalized->Normalize();
      }
      emit_(SymbolicConfig{*normalized, cell});
    }
  }

 private:
  const TaskContext& ctx_;
  const CondPtr& must_hold_;
  bool* truncated_;
  const Emit& emit_;
  size_t branches_ = 0;
};

template <typename Emit>
void CompleteDecisions(const TaskContext& ctx, const SymbolicConfig& seed,
                       const CondPtr& must_hold, bool* truncated,
                       const Emit& emit) {
  SymbolicConfig start = seed;
  DecisionSearch<Emit>(ctx, must_hold, truncated, emit).Run(start);
}

}  // namespace

std::vector<InternalSuccessor> EnumerateInternal(const TaskContext& ctx,
                                                 const SymbolicConfig& base,
                                                 const InternalService& svc,
                                                 bool* truncated) {
  std::vector<InternalSuccessor> out;
  // Per-relation op skeleton (ascending relation index); the retrieve's
  // TS-type varies per successor.
  std::vector<SetOpEffect> skeleton;
  for (int rel = 0; rel < ctx.num_set_relations(); ++rel) {
    const bool ins = svc.InsertsInto(rel);
    const bool ret = svc.RetrievesFrom(rel);
    if (!ins && !ret) continue;
    SetOpEffect op;
    op.relation = rel;
    op.inserts = ins;
    op.retrieves = ret;
    skeleton.push_back(std::move(op));
  }
  // The input projection is preserved exactly, everything else is fresh.
  CompleteDecisions(
      ctx, base, svc.post, truncated,
      [&](SymbolicConfig&& next) {
        InternalSuccessor s;
        s.set_ops = skeleton;
        for (SetOpEffect& op : s.set_ops) {
          if (!op.retrieves) continue;
          op.retrieve_ts = ctx.TsTypeOf(next.iso, op.relation);
        }
        s.next = std::move(next);
        out.push_back(std::move(s));
      });
  return out;
}

std::vector<SymbolicConfig> EnumerateOpening(const TaskContext& ctx,
                                             const PartialIsoType& input_iso,
                                             const Cell& input_cell,
                                             bool* truncated) {
  std::vector<SymbolicConfig> out;
  SymbolicConfig base{ctx.OpeningIso(input_iso),
                      Cell(ctx.basis() != nullptr ? ctx.basis()->size() : 0)};
  if (ctx.basis() != nullptr) {
    for (int p = 0; p < input_cell.size() && p < base.cell.size(); ++p) {
      base.cell.set_sign(p, input_cell.sign(p));
    }
  }
  CompleteDecisions(ctx, base, nullptr, truncated,
                    [&](SymbolicConfig&& next) {
                      out.push_back(std::move(next));
                    });
  return out;
}

PartialIsoType ChildInputIso(const TaskContext& parent_ctx,
                             const TaskContext& child_ctx,
                             const SymbolicConfig& parent_state) {
  (void)parent_ctx;  // symmetry with ChildInputCell
  const Task& child = child_ctx.task();
  std::set<int> passed;
  std::map<int, int> parent_to_child;
  for (const auto& [child_var, parent_var] : child.fin()) {
    passed.insert(parent_var);
    parent_to_child[parent_var] = child_var;
  }
  PartialIsoType proj =
      parent_state.iso.Project(passed, child_ctx.nav_depth());
  return proj.Rename(parent_to_child, &child.vars());
}

Cell ChildInputCell(const TaskContext& parent_ctx,
                    const TaskContext& child_ctx,
                    const SymbolicConfig& parent_state) {
  if (child_ctx.basis() == nullptr || parent_ctx.basis() == nullptr) {
    return Cell();
  }
  const Task& child = child_ctx.task();
  std::map<ArithVar, ArithVar> child_to_parent;
  std::vector<ArithVar> child_inputs;
  for (const auto& [child_var, parent_var] : child.fin()) {
    if (child.vars().var(child_var).sort == VarSort::kNumeric) {
      child_to_parent[child_var] = parent_var;
      child_inputs.push_back(child_var);
    }
  }
  Cell out(child_ctx.basis()->size());
  for (int p : child_ctx.basis()->PolysOverVars(child_inputs)) {
    LinearExpr renamed = child_ctx.basis()->poly(p).Rename(child_to_parent);
    bool negated = false;
    int parent_poly = parent_ctx.basis()->Find(renamed, &negated);
    if (parent_poly == -1 || parent_state.cell.size() <= parent_poly) {
      continue;
    }
    Sign sign = parent_state.cell.sign(parent_poly);
    if (sign == kSignAny) continue;
    out.set_sign(p, negated ? static_cast<Sign>(-sign) : sign);
  }
  return out;
}

std::vector<SymbolicConfig> ApplyChildReturn(
    const TaskContext& parent_ctx, const TaskContext& child_ctx,
    const SymbolicConfig& parent_state, const PartialIsoType& child_out_iso,
    const Cell& child_out_cell, bool* truncated) {
  const Task& child = child_ctx.task();
  const Task& parent = parent_ctx.task();

  // Child→parent variable map for inputs and (accepted) returns.
  std::map<int, int> child_to_parent;
  for (const auto& [child_var, parent_var] : child.fin()) {
    child_to_parent[child_var] = parent_var;
  }
  std::vector<int> overwritten;  // parent vars receiving child values
  for (const auto& [parent_var, child_var] : child.fout()) {
    bool is_id = parent.vars().var(parent_var).sort == VarSort::kId;
    // Only null parent ID variables accept returned IDs (Definition 8);
    // numeric targets are always overwritten.
    if (is_id && !parent_state.iso.VarIsNull(parent_var)) continue;
    // If the same parent variable also fed a child input, that input
    // mapping now refers to a dead (overwritten) value: drop it so two
    // child variables are never forced onto one parent variable.
    for (auto it = child_to_parent.begin(); it != child_to_parent.end();) {
      if (it->second == parent_var) {
        it = child_to_parent.erase(it);
      } else {
        ++it;
      }
    }
    child_to_parent[child_var] = parent_var;
    overwritten.push_back(parent_var);
  }

  SymbolicConfig base = parent_state;
  for (int v : overwritten) base.iso.ForgetVar(v);
  PartialIsoType renamed =
      child_out_iso.Rename(child_to_parent, &parent.vars());
  if (!base.iso.MergeFrom(renamed)) return {};

  if (parent_ctx.basis() != nullptr) {
    // Reset signs of polynomials touching overwritten numerics, then
    // force the child's output constraints through the renaming.
    std::set<int> touched(overwritten.begin(), overwritten.end());
    for (int p = 0; p < parent_ctx.basis()->size(); ++p) {
      for (ArithVar v : parent_ctx.basis()->poly(p).Vars()) {
        if (touched.count(v) > 0) {
          base.cell.set_sign(p, kSignAny);
          break;
        }
      }
    }
    if (child_ctx.basis() != nullptr && child_out_cell.size() > 0) {
      std::map<ArithVar, ArithVar> numeric_map;
      for (const auto& [cv, pv] : child_to_parent) {
        if (child.vars().var(cv).sort == VarSort::kNumeric) {
          numeric_map[cv] = pv;
        }
      }
      for (int p = 0; p < child_ctx.basis()->size(); ++p) {
        Sign sign = child_out_cell.sign(p);
        if (sign == kSignAny) continue;
        // Only polynomials entirely over mapped variables transfer.
        bool mapped = true;
        for (ArithVar v : child_ctx.basis()->poly(p).Vars()) {
          if (numeric_map.count(v) == 0) mapped = false;
        }
        if (!mapped) continue;
        LinearExpr renamed_poly =
            child_ctx.basis()->poly(p).Rename(numeric_map);
        bool negated = false;
        int parent_poly = parent_ctx.basis()->Find(renamed_poly, &negated);
        if (parent_poly == -1) continue;
        base.cell.set_sign(parent_poly,
                           negated ? static_cast<Sign>(-sign) : sign);
      }
    }
  }

  std::vector<SymbolicConfig> out;
  CompleteDecisions(parent_ctx, base, nullptr, truncated,
                    [&](SymbolicConfig&& next) {
                      out.push_back(std::move(next));
                    });
  return out;
}

void EnumMemo::Bind(const TypePool* pool) {
  if (pool_ == nullptr) pool_ = pool;
  HAS_CHECK_MSG(pool_ == pool, "an enumeration memo serves a single TypePool");
}

}  // namespace has
