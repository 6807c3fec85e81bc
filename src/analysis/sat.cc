#include "analysis/sat.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "arith/fourier_motzkin.h"
#include "common/hashing.h"

namespace has {
namespace {

bool IsNumericTerm(const Term& t, const std::vector<VarSort>& sorts) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return true;
    case Term::Kind::kVar:
      return sorts[t.var] == VarSort::kNumeric;
    case Term::Kind::kNull:
      return false;
  }
  return false;
}

LinearExpr TermExpr(const Term& t) {
  return t.kind == Term::Kind::kConst ? LinearExpr::Constant(t.value)
                                      : LinearExpr::Var(t.var);
}

}  // namespace

SatOracle::SatOracle(int max_atoms) : max_atoms_(max_atoms) {
  // Room for the conditions and questions of a typical analysis pass,
  // so the tables rarely grow.
  constexpr size_t kConds = 64;
  for (IdIndex* index :
       {&seen_index_, &compiled_index_, &atom_index_, &question_index_}) {
    index->Reserve(kConds);
  }
  seen_.reserve(kConds);
  compiled_.reserve(kConds);
  atoms_.reserve(kConds);
  atom_mark_.reserve(kConds);
  answers_.reserve(kConds);
  question_ranges_.reserve(kConds);
  cond_atoms_.reserve(2 * kConds);
  question_store_.reserve(2 * kConds);
  nodes_.reserve(4 * kConds);
  sort_ranges_.push_back(0);
  question_ranges_.push_back(0);
}

int SatOracle::CompiledId(const CondPtr& c) {
  const size_t address_hash = std::hash<const void*>{}(c.get());
  const int seen = seen_index_.Find(address_hash, [&](int i) {
    return seen_[static_cast<size_t>(i)].first == c;
  });
  if (seen != -1) return seen_[static_cast<size_t>(seen)].second;
  const size_t hash = c->Hash();
  int id = compiled_index_.Find(hash, [&](int i) {
    return compiled_[static_cast<size_t>(i)].cond->Equals(*c);
  });
  if (id == -1) {
    Compiled entry;
    entry.cond = c.get();
    entry.atoms_begin = static_cast<uint32_t>(cond_atoms_.size());
    entry.root = static_cast<uint32_t>(nodes_.size());
    EmitNodes(*c);
    entry.atoms_end = static_cast<uint32_t>(cond_atoms_.size());
    id = static_cast<int>(compiled_.size());
    compiled_.push_back(entry);
    compiled_index_.Insert(hash, id);
  }
  seen_index_.Insert(address_hash, static_cast<int>(seen_.size()));
  seen_.emplace_back(c, id);
  return id;
}

void SatOracle::EmitNodes(const Condition& c) {
  const size_t at = nodes_.size();
  nodes_.push_back(Node{c.kind(), -1, 0});
  if (c.IsAtom()) {
    const size_t hash = c.Hash();
    int atom = atom_index_.Find(hash, [&](int i) {
      return atoms_[static_cast<size_t>(i)]->Equals(c);
    });
    if (atom == -1) {
      atom = static_cast<int>(atoms_.size());
      atoms_.push_back(&c);
      atom_mark_.push_back(kNoMark);
      atom_index_.Insert(hash, atom);
    }
    nodes_[at].atom = atom;
    // The condition's distinct atoms, in first-occurrence order.
    if (atom_mark_[atom] != compiled_.size()) {
      atom_mark_[atom] = compiled_.size();
      cond_atoms_.push_back(atom);
    }
  } else {
    for (int i = 0; i < c.num_children(); ++i) {
      EmitNodes(*c.child(i));
    }
  }
  nodes_[at].end = static_cast<uint32_t>(nodes_.size());
}

int SatOracle::SortsId(const std::vector<VarSort>& sorts) {
  size_t hash = sorts.size();
  for (VarSort s : sorts) HashMix(&hash, static_cast<int>(s));
  int id = sort_index_.Find(hash, [&](int i) {
    return std::equal(sorts.begin(), sorts.end(),
                      sort_store_.begin() + sort_ranges_[i],
                      sort_store_.begin() + sort_ranges_[i + 1]);
  });
  if (id == -1) {
    id = static_cast<int>(sort_ranges_.size() - 1);
    sort_store_.insert(sort_store_.end(), sorts.begin(), sorts.end());
    sort_ranges_.push_back(static_cast<uint32_t>(sort_store_.size()));
    sort_index_.Insert(hash, id);
  }
  return id;
}

SatOracle::Answer SatOracle::Ask(const CondPtr* first, const CondPtr* last,
                                 const std::vector<VarSort>& sorts) {
  ++calls_;
  question_.clear();
  question_.push_back(SortsId(sorts));
  for (const CondPtr* c = first; c != last; ++c) {
    if (*c != nullptr) question_.push_back(CompiledId(*c));
  }
  size_t hash = question_.size();
  for (int x : question_) HashMix(&hash, x);
  const int found = question_index_.Find(hash, [&](int i) {
    return std::equal(question_.begin(), question_.end(),
                      question_store_.begin() + question_ranges_[i],
                      question_store_.begin() + question_ranges_[i + 1]);
  });
  if (found != -1) {
    ++memo_hits_;
    return answers_[static_cast<size_t>(found)];
  }
  const Answer answer = Decide(sorts);
  const int id = static_cast<int>(answers_.size());
  question_store_.insert(question_store_.end(), question_.begin(),
                         question_.end());
  question_ranges_.push_back(static_cast<uint32_t>(question_store_.size()));
  answers_.push_back(answer);
  question_index_.Insert(hash, id);
  return answer;
}

SatOracle::Answer SatOracle::Decide(const std::vector<VarSort>& sorts) {
  // The call's distinct atoms in first-occurrence order over the
  // conjuncts; bit i of a truth assignment is the value of atom i.
  local_of_.resize(atoms_.size(), -1);
  call_atoms_.clear();
  for (size_t k = 1; k < question_.size(); ++k) {
    const Compiled& c = compiled_[static_cast<size_t>(question_[k])];
    for (uint32_t a = c.atoms_begin; a < c.atoms_end; ++a) {
      const int atom = cond_atoms_[a];
      if (local_of_[atom] != -1) continue;
      local_of_[atom] = static_cast<int>(call_atoms_.size());
      call_atoms_.push_back(CallAtom{atoms_[static_cast<size_t>(atom)], atom});
    }
  }
  Answer answer = Answer::kOverCap;
  if (static_cast<int>(call_atoms_.size()) <= max_atoms_) {
    // Union-find elements: variables [0, nvars), null at nvars, the
    // call's distinct constants after that.
    const int null_elem = static_cast<int>(sorts.size());
    consts_.clear();
    auto term_elem = [&](const Term& t) {
      switch (t.kind) {
        case Term::Kind::kVar:
          return t.var;
        case Term::Kind::kNull:
          return null_elem;
        case Term::Kind::kConst:
          break;
      }
      for (size_t i = 0; i < consts_.size(); ++i) {
        if (*consts_[i] == t.value) return null_elem + 1 + static_cast<int>(i);
      }
      consts_.push_back(&t.value);
      return null_elem + static_cast<int>(consts_.size());
    };
    for (CallAtom& a : call_atoms_) {
      if (a.atom->kind() != CondKind::kEq) continue;
      a.lhs = term_elem(a.atom->lhs());
      a.rhs = term_elem(a.atom->rhs());
      a.numeric = IsNumericTerm(a.atom->lhs(), sorts) &&
                  IsNumericTerm(a.atom->rhs(), sorts);
    }

    answer = Answer::kUnsat;
    const uint32_t limit = 1u << call_atoms_.size();
    for (uint32_t mask = 0; mask < limit && answer == Answer::kUnsat;
         ++mask) {
      bool holds = true;
      for (size_t k = 1; k < question_.size() && holds; ++k) {
        holds = Eval(compiled_[static_cast<size_t>(question_[k])].root, mask);
      }
      if (holds && TheoryConsistent(mask, sorts)) answer = Answer::kSat;
    }
  }
  for (const CallAtom& a : call_atoms_) local_of_[a.id] = -1;
  return answer;
}

bool SatOracle::Eval(uint32_t node, uint32_t mask) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case CondKind::kTrue:
      return true;
    case CondKind::kFalse:
      return false;
    case CondKind::kNot:
      return !Eval(node + 1, mask);
    case CondKind::kAnd:
      for (uint32_t c = node + 1; c < n.end; c = nodes_[c].end) {
        if (!Eval(c, mask)) return false;
      }
      return true;
    case CondKind::kOr:
      for (uint32_t c = node + 1; c < n.end; c = nodes_[c].end) {
        if (Eval(c, mask)) return true;
      }
      return false;
    default:
      return (mask >> local_of_[n.atom]) & 1u;
  }
}

bool SatOracle::TheoryConsistent(uint32_t mask,
                                 const std::vector<VarSort>& sorts) {
  const int null_elem = static_cast<int>(sorts.size());
  const int num_elems = null_elem + 1 + static_cast<int>(consts_.size());
  uf_.Reset(static_cast<size_t>(num_elems));
  disequal_.clear();
  pos_rels_.clear();
  bool arithmetic = false;  // an arithmetic atom or numeric disequality

  for (size_t i = 0; i < call_atoms_.size(); ++i) {
    const CallAtom& ca = call_atoms_[i];
    const Condition& a = *ca.atom;
    const bool value = (mask >> i) & 1u;
    switch (a.kind()) {
      case CondKind::kEq:
        if (value) {
          uf_.Union(ca.lhs, ca.rhs);
        } else {
          disequal_.emplace_back(ca.lhs, ca.rhs);
          arithmetic = arithmetic || ca.numeric;
        }
        break;
      case CondKind::kRel:
        // A positive atom forces all arguments non-null; a negative atom
        // constrains nothing we can use (the instance may simply lack the
        // tuple), so it is ignored — conservative toward SAT.
        if (value) {
          pos_rels_.push_back(&a);
          for (int v : a.args()) {
            if (sorts[v] == VarSort::kId) disequal_.emplace_back(v, null_elem);
          }
        }
        break;
      case CondKind::kArith:
        arithmetic = true;
        break;
      default:
        break;
    }
  }

  // Key-dependency closure: attribute 0 is the relation's key, so two
  // tuples of the same relation with equal keys are the same tuple —
  // merge the remaining argument columns. Fixpoint because merges can
  // enable further key equalities.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < pos_rels_.size(); ++i) {
      for (size_t j = i + 1; j < pos_rels_.size(); ++j) {
        const Condition& p = *pos_rels_[i];
        const Condition& q = *pos_rels_[j];
        if (p.relation() != q.relation()) continue;
        if (!uf_.Same(p.args()[0], q.args()[0])) continue;
        for (size_t k = 1; k < p.args().size(); ++k) {
          if (!uf_.Same(p.args()[k], q.args()[k])) {
            uf_.Union(p.args()[k], q.args()[k]);
            changed = true;
          }
        }
      }
    }
  }

  for (const auto& [a, b] : disequal_) {
    if (uf_.Same(a, b)) return false;
  }

  // Per-class sanity, in one pass over the elements grouped by root: a
  // class may hold at most one constant, never null together with a
  // constant or a numeric variable (numeric variables are never null).
  constexpr char kHasNull = 1;
  constexpr char kHasNumeric = 2;
  elems_.assign(static_cast<size_t>(num_elems), Elem{});
  for (int e = 0; e < num_elems; ++e) {
    const int root = uf_.Find(e);
    elems_[e].root = root;
    Elem& cls = elems_[root];
    if (e == null_elem) {
      cls.flags |= kHasNull;
    } else if (e > null_elem) {
      const int c = e - null_elem - 1;
      if (cls.konst != -1 && !(*consts_[cls.konst] == *consts_[c])) {
        return false;
      }
      cls.konst = c;
    } else if (sorts[e] == VarSort::kNumeric) {
      cls.flags |= kHasNumeric;
    }
  }
  for (int root = 0; root < num_elems; ++root) {
    const Elem& cls = elems_[root];
    if (cls.root == root && (cls.flags & kHasNull) != 0 &&
        (cls.konst != -1 || (cls.flags & kHasNumeric) != 0)) {
      return false;
    }
  }
  // Class equalities alone are always satisfiable.
  if (!arithmetic) return true;
  // All numeric members of a class are arithmetically equal (and equal
  // to its constant). Thread them per root in ascending order; the first
  // one stands for the class.
  for (int e = null_elem - 1; e >= 0; --e) {
    if (sorts[e] != VarSort::kNumeric) continue;
    Elem& cls = elems_[elems_[e].root];
    elems_[e].next = cls.head;
    cls.head = e;
  }
  return LinearSatisfiable(mask, num_elems);
}

bool SatOracle::LinearSatisfiable(uint32_t mask, int num_elems) {
  system_.mutable_constraints()->clear();
  arith_diseqs_.clear();
  for (size_t i = 0; i < call_atoms_.size(); ++i) {
    const CallAtom& ca = call_atoms_[i];
    const Condition& a = *ca.atom;
    const bool value = (mask >> i) & 1u;
    if (a.kind() == CondKind::kEq) {
      if (!value && ca.numeric) {
        arith_diseqs_.push_back(TermExpr(a.lhs()) - TermExpr(a.rhs()));
      }
      continue;
    }
    if (a.kind() != CondKind::kArith) continue;
    const LinearConstraint& lc = a.constraint();
    if (value) {
      system_.Add(lc);
      continue;
    }
    switch (lc.op) {
      case Relop::kLe:  // ¬(e ≤ 0) ⇔ -e < 0
        system_.Add(-lc.expr, Relop::kLt);
        break;
      case Relop::kLt:  // ¬(e < 0) ⇔ -e ≤ 0
        system_.Add(-lc.expr, Relop::kLe);
        break;
      case Relop::kEq:  // ¬(e = 0) ⇔ e ≠ 0
        arith_diseqs_.push_back(lc.expr);
        break;
    }
  }
  // Class equalities by ascending root, each member against the class's
  // constant or its first numeric member.
  for (int root = 0; root < num_elems; ++root) {
    const int c = elems_[root].konst;
    const int first = elems_[root].head;
    for (int e = first; e != -1; e = elems_[e].next) {
      if (c != -1) {
        system_.Add(LinearExpr::Var(e) - LinearExpr::Constant(*consts_[c]),
                    Relop::kEq);
      } else if (e != first) {
        system_.Add(LinearExpr::Var(e) - LinearExpr::Var(first), Relop::kEq);
      }
    }
  }
  return FourierMotzkin::IsSatisfiableWithDisequalities(system_,
                                                        arith_diseqs_);
}

bool MaybeSatisfiable(const std::vector<CondPtr>& conjuncts,
                      const std::vector<VarSort>& sorts, int max_atoms) {
  SatOracle oracle(max_atoms);
  return oracle.MaybeSatisfiable(conjuncts, sorts);
}

}  // namespace has
