#include "core/successor.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>
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
    LinkParent(*hcd);
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

  auto add_null_check = [&](int var) {
    if (t.vars().var(var).sort == VarSort::kId) {
      null_checks_.push_back(Condition::IsNull(var));
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
  if (basis_ != nullptr) {
    for (const Condition* atom : raw) {
      if (atom->kind() != CondKind::kArith || !atom->UsesArithmetic() ||
          atom->constraint().expr.IsConstant()) {
        continue;
      }
      ArithAtom a;
      a.atom = atom;
      a.poly = basis_->Find(atom->constraint().expr, &a.negated);
      arith_atoms_.push_back(a);
    }
    std::sort(arith_atoms_.begin(), arith_atoms_.end(),
              [](const ArithAtom& a, const ArithAtom& b) {
                return a.atom < b.atom;
              });
    arith_atoms_.erase(std::unique(arith_atoms_.begin(), arith_atoms_.end(),
                                   [](const ArithAtom& a, const ArithAtom& b) {
                                     return a.atom == b.atom;
                                   }),
                       arith_atoms_.end());
  }
  for (const CondPtr& c : null_checks_) raw.push_back(c.get());

  // Deduplicate and keep equality-component atoms. They stay pointers
  // into the conditions that own them: the system's and the property's,
  // which outlive this context, and null_checks_.
  for (const Condition* atom : raw) {
    if (!IsEqualityAtom(*atom)) continue;
    bool seen = false;
    for (const Condition* kept : eq_atoms_) {
      if (kept->Equals(*atom)) {
        seen = true;
        break;
      }
    }
    if (!seen) eq_atoms_.push_back(atom);
  }
}

void TaskContext::LinkParent(const Hcd& hcd) {
  const Task& child = task();
  if (child.is_root()) return;
  const Task& parent = system_->task(child.parent());
  const PolyBasis& parent_basis = hcd.basis(child.parent());
  parent_link_.parent_basis = &parent_basis;
  auto transfer = [&](int p, const std::map<ArithVar, ArithVar>& to_parent,
                      std::vector<PolyTransfer>* out) {
    PolyTransfer t;
    t.child_poly = p;
    t.parent_poly =
        parent_basis.Find(basis_->poly(p).Rename(to_parent), &t.negated);
    if (t.parent_poly != -1) out->push_back(t);
  };
  std::map<ArithVar, ArithVar> to_parent;
  std::vector<ArithVar> numeric_inputs;
  for (const auto& [child_var, parent_var] : child.fin()) {
    if (child.vars().var(child_var).sort == VarSort::kNumeric) {
      to_parent[child_var] = parent_var;
      numeric_inputs.push_back(child_var);
    }
  }
  for (int p : basis_->PolysOverVars(numeric_inputs)) {
    transfer(p, to_parent, &parent_link_.input);
  }
  // A return always overwrites its numeric targets (only ID targets
  // depend on the parent's state), and an input fed from an
  // overwritten variable no longer maps onto it.
  std::set<ArithVar> overwritten;
  for (const auto& [parent_var, child_var] : child.fout()) {
    if (parent.vars().var(parent_var).sort != VarSort::kNumeric) continue;
    for (auto it = to_parent.begin(); it != to_parent.end();) {
      it = it->second == parent_var ? to_parent.erase(it) : std::next(it);
    }
    to_parent[child_var] = parent_var;
    overwritten.insert(parent_var);
  }
  for (int p = 0; p < parent_basis.size(); ++p) {
    for (const auto& [v, c] : parent_basis.poly(p).coefs()) {
      if (overwritten.count(v) > 0) {
        parent_link_.return_resets.push_back(p);
        break;
      }
    }
  }
  for (int p = 0; p < basis_->size(); ++p) {
    bool mapped = true;
    for (const auto& [v, c] : basis_->poly(p).coefs()) {
      if (to_parent.count(v) == 0) mapped = false;
    }
    if (mapped) transfer(p, to_parent, &parent_link_.output);
  }
}

int TaskContext::ArithPoly(const Condition& atom, bool* negated) const {
  auto it = std::lower_bound(
      arith_atoms_.begin(), arith_atoms_.end(), &atom,
      [](const ArithAtom& a, const Condition* c) { return a.atom < c; });
  if (it != arith_atoms_.end() && it->atom == &atom) {
    *negated = it->negated;
    return it->poly;
  }
  return basis_->Find(atom.constraint().expr, negated);
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
        int poly = ArithPoly(cond, &negated);
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

  /// Refines `cur`, whose equality atoms before index `first` are all
  /// decided: deciding an atom only adds (dis)equalities and tags, so an
  /// atom once decided stays decided in every refinement.
  void Run(SymbolicConfig& cur, size_t first = 0) {
    if (++branches_ > ctx_.max_branches()) {
      *truncated_ = true;
      return;
    }
    if (must_hold_ != nullptr &&
        ctx_.EvalSym(*must_hold_, cur) == Truth::kFalse) {
      return;
    }
    // Next undecided equality atom.
    const std::vector<const Condition*>& atoms = ctx_.eq_atoms();
    for (size_t i = 0; i < first; ++i) {
      assert(cur.iso.EvalAtom(*atoms[i]) != Truth::kUnknown);
    }
    for (size_t i = first; i < atoms.size(); ++i) {
      const Condition& atom = *atoms[i];
      if (cur.iso.EvalAtom(atom) != Truth::kUnknown) continue;
      {
        SymbolicConfig branch = cur;
        if (branch.iso.DecideAtom(atom, true)) Run(branch, i + 1);
      }
      if (cur.iso.DecideAtom(atom, false)) Run(cur, i + 1);
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
  const TaskContext::ParentLink& link = child_ctx.parent_link();
  HAS_CHECK_MSG(link.parent_basis == parent_ctx.basis(),
                "a child's input cell is read off its own parent's basis");
  Cell out(child_ctx.basis()->size());
  for (const TaskContext::PolyTransfer& t : link.input) {
    if (parent_state.cell.size() <= t.parent_poly) continue;
    Sign sign = parent_state.cell.sign(t.parent_poly);
    if (sign == kSignAny) continue;
    out.set_sign(t.child_poly, t.negated ? static_cast<Sign>(-sign) : sign);
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
    const TaskContext::ParentLink& link = child_ctx.parent_link();
    HAS_CHECK_MSG(link.parent_basis == parent_ctx.basis(),
                  "a child returns into its own parent's basis");
    for (int p : link.return_resets) base.cell.set_sign(p, kSignAny);
    if (child_out_cell.size() > 0) {
      for (const TaskContext::PolyTransfer& t : link.output) {
        Sign sign = child_out_cell.sign(t.child_poly);
        if (sign == kSignAny) continue;
        base.cell.set_sign(t.parent_poly,
                           t.negated ? static_cast<Sign>(-sign) : sign);
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
