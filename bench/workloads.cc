#include "workloads.h"

#include <algorithm>

#include "common/strings.h"

namespace has {
namespace bench {

DatabaseSchema AcyclicSchema(int size) {
  // A star/snowflake chain: R0 -> R1 -> ... -> R_{size-1}.
  DatabaseSchema schema;
  for (int i = 0; i < size; ++i) {
    schema.AddRelation(StrCat("R", i));
  }
  for (int i = 0; i + 1 < size; ++i) {
    schema.relation(i).AddForeignKey("next", i + 1);
  }
  schema.relation(size - 1).AddNumericAttribute("val");
  return schema;
}

DatabaseSchema LinearlyCyclicSchema(int size) {
  // One simple cycle R0 -> R1 -> ... -> R_{size-1} -> R0 (each relation
  // on exactly one cycle), plus a numeric attribute.
  DatabaseSchema schema;
  for (int i = 0; i < size; ++i) {
    schema.AddRelation(StrCat("R", i));
  }
  for (int i = 0; i < size; ++i) {
    schema.relation(i).AddForeignKey("next", (i + 1) % size);
  }
  schema.relation(0).AddNumericAttribute("val");
  return schema;
}

DatabaseSchema CyclicSchema(int size) {
  // Dense cycles: every relation references two others.
  DatabaseSchema schema;
  for (int i = 0; i < size; ++i) {
    schema.AddRelation(StrCat("R", i));
  }
  for (int i = 0; i < size; ++i) {
    schema.relation(i).AddForeignKey("a", (i + 1) % size);
    schema.relation(i).AddForeignKey("b", (i + 2) % size);
  }
  schema.relation(0).AddNumericAttribute("val");
  return schema;
}

namespace {

/// Shared chain builder for the post-Tables families: a depth-`depth`
/// task chain over `schema` where every task runs one relation-bound
/// work service PER entry of `service_rels` (the per-level branching
/// factor), an artifact relation over `set_width` ID variables when
/// `with_sets`, and the same child-input/output plumbing and
/// hierarchical property as the Tables 1–2 families. Work service si
/// anchors set variable min(si, set_width-1) in its relation atom, so
/// every component of the artifact tuple is relation-bound by some
/// service.
Workload ChainWorkload(DatabaseSchema schema, std::string name, int depth,
                       const std::vector<RelationId>& service_rels,
                       bool with_sets, int set_width = 1) {
  Workload w;
  w.system.schema() = std::move(schema);
  w.name = std::move(name);

  TaskId prev = kNoTask;
  for (int level = 0; level < depth; ++level) {
    TaskId t = w.system.AddTask(StrCat("T", level), prev);
    Task& task = w.system.task(t);
    int x = task.vars().AddVar("x", VarSort::kId);
    int amount = task.vars().AddVar("amount", VarSort::kNumeric);
    // The artifact tuple s̄_T: x plus set_width-1 further ID variables.
    std::vector<int> set_tuple{x};
    for (int k = 1; k < set_width; ++k) {
      set_tuple.push_back(task.vars().AddVar(StrCat("s", k), VarSort::kId));
    }
    if (level > 0) {
      task.AddInput(x, /*parent x=*/0);
      task.AddOutput(/*parent amount=*/1, amount);
      task.SetOpeningPre(Condition::Not(Condition::IsNull(0)));
      LinearExpr close_e = LinearExpr::Var(amount);
      close_e.AddConstant(Rational(-1));
      task.SetClosingPre(
          Condition::Arith(LinearConstraint{close_e, Relop::kEq}));
    }
    for (size_t si = 0; si < service_rels.size(); ++si) {
      RelationId rel = service_rels[si];
      InternalService svc;
      svc.name = StrCat("work", si);
      svc.pre = Condition::True();
      std::vector<int> args{
          set_tuple[std::min(si, set_tuple.size() - 1)]};
      const Relation& r = w.system.schema().relation(rel);
      for (int a = 1; a < r.arity(); ++a) {
        if (r.attr(a).kind == AttrKind::kNumeric) {
          args.push_back(task.vars().AddVar(StrCat("n", si, "_", a),
                                            VarSort::kNumeric));
        } else {
          args.push_back(task.vars().AddVar(StrCat("f", si, "_", a),
                                            VarSort::kId));
        }
      }
      LinearExpr post_e = LinearExpr::Var(amount);
      post_e.AddConstant(Rational(-1));
      svc.post = Condition::And(
          Condition::Rel(rel, args),
          Condition::Arith(LinearConstraint{post_e, Relop::kEq}));
      task.AddInternalService(std::move(svc));
    }
    if (with_sets) {
      auto all_non_null = [&set_tuple]() {
        CondPtr cond = Condition::Not(Condition::IsNull(set_tuple[0]));
        for (size_t k = 1; k < set_tuple.size(); ++k) {
          cond = Condition::And(
              std::move(cond),
              Condition::Not(Condition::IsNull(set_tuple[k])));
        }
        return cond;
      };
      task.DeclareSet(set_tuple);
      InternalService store;
      store.name = "store";
      store.pre = all_non_null();
      store.post = Condition::True();
      store.MarkInsert();
      task.AddInternalService(std::move(store));
      InternalService load;
      load.name = "load";
      load.pre = Condition::True();
      load.post = all_non_null();
      load.MarkRetrieve();
      task.AddInternalService(std::move(load));
    }
    prev = t;
  }

  for (int level = 0; level < depth; ++level) {
    HltlNode node;
    node.task = level;
    if (level < depth - 1) {
      node.props.push_back(HltlProp::Child(level + 1));
    } else {
      LinearExpr e = LinearExpr::Var(1);  // amount
      e.AddConstant(Rational(-1));
      node.props.push_back(HltlProp::Cond(
          Condition::Arith(LinearConstraint{std::move(e), Relop::kEq})));
    }
    LtlPtr body = LtlFormula::Eventually(LtlFormula::Prop(0));
    if (level == 0) {
      body = LtlFormula::Always(LtlFormula::Not(LtlFormula::Prop(0)));
    }
    node.skeleton = std::move(body);
    w.property.AddNode(std::move(node));
  }
  return w;
}

}  // namespace

Workload MakeDeepHierarchy(int depth, int size) {
  if (size < 2) size = 2;
  std::vector<RelationId> rels{0, 1};
  return ChainWorkload(AcyclicSchema(size),
                       StrCat("deep/h", depth, "/n", size), depth, rels,
                       /*with_sets=*/true);
}

Workload MakeAdversarialCyclic(int size, int depth) {
  if (size < 3) size = 3;
  std::vector<RelationId> rels{0, 1};
  return ChainWorkload(CyclicSchema(size),
                       StrCat("adversarial-cyclic/n", size, "/h", depth),
                       depth, rels,
                       /*with_sets=*/true);
}

Workload MakeMultiSet(int size, int depth, int set_width) {
  if (set_width < 2) set_width = 2;
  // One relation per set variable so each tuple component navigates a
  // different part of the schema.
  if (size < set_width) size = set_width;
  std::vector<RelationId> rels;
  for (int k = 0; k < set_width; ++k) rels.push_back(k);
  return ChainWorkload(AcyclicSchema(size),
                       StrCat("multiset/w", set_width, "/n", size, "/h",
                              depth),
                       depth, rels,
                       /*with_sets=*/true, set_width);
}

Workload MakeMultiRelation(int size, int depth, int num_rels) {
  if (num_rels < 1) num_rels = 1;
  if (size < num_rels) size = num_rels;
  Workload w;
  w.system.schema() = AcyclicSchema(size);
  w.name = StrCat("multirel/k", num_rels, "/n", size, "/h", depth);

  TaskId prev = kNoTask;
  for (int level = 0; level < depth; ++level) {
    TaskId t = w.system.AddTask(StrCat("T", level), prev);
    Task& task = w.system.task(t);
    int x = task.vars().AddVar("x", VarSort::kId);
    int amount = task.vars().AddVar("amount", VarSort::kNumeric);
    if (level > 0) {
      task.AddInput(x, /*parent x=*/0);
      task.AddOutput(/*parent amount=*/1, amount);
      task.SetOpeningPre(Condition::Not(Condition::IsNull(0)));
      LinearExpr close_e = LinearExpr::Var(amount);
      close_e.AddConstant(Rational(-1));
      task.SetClosingPre(
          Condition::Arith(LinearConstraint{close_e, Relop::kEq}));
    }
    // The per-level work service drives the amount flag the hierarchy
    // property watches.
    {
      InternalService work;
      work.name = "work";
      work.pre = Condition::True();
      LinearExpr post_e = LinearExpr::Var(amount);
      post_e.AddConstant(Rational(-1));
      work.post = Condition::And(
          Condition::Rel(0, {x, task.vars().AddVar("f0", VarSort::kId)}),
          Condition::Arith(LinearConstraint{post_e, Relop::kEq}));
      task.AddInternalService(std::move(work));
    }
    // One artifact relation A{j} per j, each over its own ID variable
    // anchored in its own schema relation, with its own insert and
    // retrieve service.
    std::vector<int> svars;
    for (int j = 0; j < num_rels; ++j) {
      int sj = task.vars().AddVar(StrCat("s", j), VarSort::kId);
      svars.push_back(sj);
      int rel = task.AddSetRelation(StrCat("A", j), {sj});
      // The tuples are deliberately NOT schema-anchored: the per-
      // relation TS-type projections are then structurally identical
      // across relations and normalize to the SAME pooled TypeId —
      // exercising the (relation, TypeId) dimension keying that keeps
      // the relations' counter groups apart.
      InternalService store;
      store.name = StrCat("store", j);
      store.pre = Condition::Not(Condition::IsNull(sj));
      store.post = Condition::True();
      store.MarkInsert(rel);
      task.AddInternalService(std::move(store));
      InternalService load;
      load.name = StrCat("load", j);
      load.pre = Condition::True();
      load.post = Condition::Not(Condition::IsNull(sj));
      load.MarkRetrieve(rel);
      task.AddInternalService(std::move(load));
    }
    // Cross-relation delta: ONE service moving a tuple from A0 to A1
    // (-A0(s̄_A0) and +A1(s̄_A1) in the same δ) — the path single-
    // relation workloads can never exercise.
    if (num_rels >= 2) {
      InternalService rotate;
      rotate.name = "rotate";
      rotate.pre = Condition::Not(Condition::IsNull(svars[1]));
      rotate.post = Condition::Not(Condition::IsNull(svars[0]));
      rotate.MarkRetrieve(0);
      rotate.MarkInsert(1);
      task.AddInternalService(std::move(rotate));
    }
    prev = t;
  }

  for (int level = 0; level < depth; ++level) {
    HltlNode node;
    node.task = level;
    if (level < depth - 1) {
      node.props.push_back(HltlProp::Child(level + 1));
    } else {
      LinearExpr e = LinearExpr::Var(1);  // amount
      e.AddConstant(Rational(-1));
      node.props.push_back(HltlProp::Cond(
          Condition::Arith(LinearConstraint{std::move(e), Relop::kEq})));
    }
    LtlPtr body = LtlFormula::Eventually(LtlFormula::Prop(0));
    if (level == 0) {
      body = LtlFormula::Always(LtlFormula::Not(LtlFormula::Prop(0)));
    }
    node.skeleton = std::move(body);
    w.property.AddNode(std::move(node));
  }
  return w;
}

Workload MakeSlicedMultiRelation(int size, int depth, int num_rels) {
  Workload w = MakeMultiRelation(size, depth, num_rels);
  w.name = StrCat("sliced_", w.name);
  for (TaskId t = 0; t < w.system.num_tasks(); ++t) {
    Task& task = w.system.task(t);
    // Insert-only audit trail nothing ever retrieves: its tuple
    // variable appears in no condition, so relation AND variable are
    // invisible to the property and both get sliced. The logging
    // service itself stays (it is live) with the insert stripped.
    int audit_var = task.vars().AddVar("audit_s", VarSort::kId);
    int audit_rel = task.AddSetRelation("Audit", {audit_var});
    {
      InternalService log;
      log.name = "audit_log";
      log.pre = Condition::True();
      log.post = Condition::True();
      log.MarkInsert(audit_rel);
      task.AddInternalService(std::move(log));
    }
    // Never-mentioned variables and a statically dead service: pure
    // slice fodder the slice-off rows pay dimensions and successor
    // work for.
    task.vars().AddVar("junk_id", VarSort::kId);
    task.vars().AddVar("junk_num", VarSort::kNumeric);
    {
      InternalService dead;
      dead.name = "dead";
      LinearExpr lt = LinearExpr::Var(1);  // amount < 0
      LinearExpr gt = -LinearExpr::Var(1);  // amount > 0
      dead.pre = Condition::And(
          Condition::Arith(LinearConstraint{std::move(lt), Relop::kLt}),
          Condition::Arith(LinearConstraint{std::move(gt), Relop::kLt}));
      dead.post = Condition::True();
      task.AddInternalService(std::move(dead));
    }
  }
  return w;
}

Workload MakeCommutingServices(int width, int depth) {
  if (width < 1) width = 1;
  if (depth < 1) depth = 1;
  Workload w;
  w.system.schema() = AcyclicSchema(std::max(width, 2));
  w.name = StrCat("commuting/w", width, "/h", depth);

  TaskId prev = kNoTask;
  for (int level = 0; level < depth; ++level) {
    TaskId t = w.system.AddTask(StrCat("T", level), prev);
    Task& task = w.system.task(t);
    int x = task.vars().AddVar("x", VarSort::kId);
    int amount = task.vars().AddVar("amount", VarSort::kNumeric);
    if (level > 0) {
      task.AddInput(x, /*parent x=*/0);
      task.AddOutput(/*parent amount=*/1, amount);
      task.SetOpeningPre(Condition::Not(Condition::IsNull(0)));
      LinearExpr close_e = LinearExpr::Var(amount);
      close_e.AddConstant(Rational(-1));
      task.SetClosingPre(
          Condition::Arith(LinearConstraint{close_e, Relop::kEq}));
    }
    // The work service drives the amount flag the property watches; it
    // inserts nothing, so it is never ample and keeps every state's
    // expansion honest.
    {
      InternalService work;
      work.name = "work";
      work.pre = Condition::True();
      LinearExpr post_e = LinearExpr::Var(amount);
      post_e.AddConstant(Rational(-1));
      work.post = Condition::And(
          Condition::Rel(0, {x, task.vars().AddVar("f0", VarSort::kId)}),
          Condition::Arith(LinearConstraint{post_e, Relop::kEq}));
      task.AddInternalService(std::move(work));
    }
    // `width` insert-only stores over pairwise-disjoint relations and
    // variables: every pair commutes, and each store's post-condition
    // (True) holds everywhere, so each is a valid ample choice at any
    // state where it is enabled.
    for (int j = 0; j < width; ++j) {
      int sj = task.vars().AddVar(StrCat("s", j), VarSort::kId);
      int rel = task.AddSetRelation(StrCat("A", j), {sj});
      InternalService store;
      store.name = StrCat("store", j);
      store.pre = Condition::Not(Condition::IsNull(sj));
      store.post = Condition::True();
      store.MarkInsert(rel);
      task.AddInternalService(std::move(store));
    }
    prev = t;
  }

  for (int level = 0; level < depth; ++level) {
    HltlNode node;
    node.task = level;
    if (level < depth - 1) {
      node.props.push_back(HltlProp::Child(level + 1));
    } else {
      LinearExpr e = LinearExpr::Var(1);  // amount
      e.AddConstant(Rational(-1));
      node.props.push_back(HltlProp::Cond(
          Condition::Arith(LinearConstraint{std::move(e), Relop::kEq})));
    }
    LtlPtr body = LtlFormula::Eventually(LtlFormula::Prop(0));
    if (level == 0) {
      body = LtlFormula::Always(LtlFormula::Not(LtlFormula::Prop(0)));
    }
    node.skeleton = std::move(body);
    w.property.AddNode(std::move(node));
  }
  return w;
}

Workload WithHoldingProperty(Workload w) {
  HltlNode node;
  node.task = 0;
  node.props.push_back(HltlProp::Service(ServiceRef::Closing(1)));
  LinearExpr e = LinearExpr::Var(1);  // amount
  e.AddConstant(Rational(-1));
  node.props.push_back(HltlProp::Cond(
      Condition::Arith(LinearConstraint{std::move(e), Relop::kEq})));
  node.skeleton = LtlFormula::Always(
      LtlFormula::Implies(LtlFormula::Prop(0), LtlFormula::Prop(1)));
  w.property = HltlProperty();
  w.property.AddNode(std::move(node));
  w.name += "/holds";
  return w;
}

Workload MakeWorkload(SchemaClass schema_class, int size, int depth,
                      bool with_sets, bool with_arith) {
  Workload w;
  switch (schema_class) {
    case SchemaClass::kAcyclic:
      w.system.schema() = AcyclicSchema(size);
      break;
    case SchemaClass::kLinearlyCyclic:
      w.system.schema() = LinearlyCyclicSchema(size);
      break;
    case SchemaClass::kCyclic:
      w.system.schema() = CyclicSchema(size);
      break;
  }
  w.name = StrCat(SchemaClassName(schema_class), "/n", size, "/h", depth,
                  with_sets ? "/sets" : "", with_arith ? "/arith" : "");

  // A chain of tasks T0 (root) ⊃ T1 ⊃ ... ⊃ T_{depth-1}. Each task owns
  // an ID variable x navigated through R0 and a numeric amount; child
  // tasks receive x and report a numeric flag back.
  TaskId prev = kNoTask;
  for (int level = 0; level < depth; ++level) {
    TaskId t = w.system.AddTask(StrCat("T", level), prev);
    Task& task = w.system.task(t);
    int x = task.vars().AddVar("x", VarSort::kId);
    int amount = task.vars().AddVar("amount", VarSort::kNumeric);
    if (level > 0) {
      task.AddInput(x, /*parent x=*/0);
      task.AddOutput(/*parent amount=*/1, amount);
      task.SetOpeningPre(Condition::Not(Condition::IsNull(0)));
      CondPtr close_cond;
      if (with_arith) {
        // amount >= 1, i.e. 1 - amount <= 0.
        LinearExpr e = LinearExpr::Constant(Rational(1));
        e.AddTerm(amount, Rational(-1));
        close_cond = Condition::Arith(LinearConstraint{e, Relop::kLe});
      } else {
        LinearExpr e = LinearExpr::Var(amount);
        e.AddConstant(Rational(-1));
        close_cond = Condition::Arith(LinearConstraint{e, Relop::kEq});
      }
      task.SetClosingPre(close_cond);
    }
    // Work service: bind x to a tuple of R0 and update amount.
    {
      InternalService svc;
      svc.name = "work";
      svc.pre = Condition::True();
      std::vector<int> args{x};
      const Relation& r0 = w.system.schema().relation(0);
      // Extra variables for the relation atom's non-ID attributes.
      for (int a = 1; a < r0.arity(); ++a) {
        if (r0.attr(a).kind == AttrKind::kNumeric) {
          args.push_back(task.vars().AddVar(StrCat("n", a),
                                            VarSort::kNumeric));
        } else {
          args.push_back(task.vars().AddVar(StrCat("f", a), VarSort::kId));
        }
      }
      CondPtr post = Condition::Rel(0, args);
      if (with_arith) {
        LinearExpr e = LinearExpr::Constant(Rational(1));
        e.AddTerm(amount, Rational(-1));
        post = Condition::And(
            post, Condition::Arith(LinearConstraint{e, Relop::kLe}));
      } else {
        LinearExpr e = LinearExpr::Var(amount);
        e.AddConstant(Rational(-1));
        post = Condition::And(
            post, Condition::Arith(LinearConstraint{e, Relop::kEq}));
      }
      svc.post = std::move(post);
      task.AddInternalService(std::move(svc));
    }
    if (with_sets) {
      task.DeclareSet({x});
      InternalService store;
      store.name = "store";
      store.pre = Condition::Not(Condition::IsNull(x));
      store.post = Condition::True();
      store.MarkInsert();
      task.AddInternalService(std::move(store));
      InternalService load;
      load.name = "load";
      load.pre = Condition::True();
      load.post = Condition::Not(Condition::IsNull(x));
      load.MarkRetrieve();
      task.AddInternalService(std::move(load));
    }
    prev = t;
  }

  // Property: a nested [·]@T chain of depth `depth` exercising the
  // hierarchical machinery. Node `level` is over task `level` and
  // (below the root) claims "eventually the child's subrun / the amount
  // flag". Nodes are added root-first so node indices equal task ids.
  auto amount_atom = [&]() {
    LinearExpr e = LinearExpr::Var(1);  // amount
    e.AddConstant(Rational(-1));
    return HltlProp::Cond(Condition::Arith(LinearConstraint{
        std::move(e), with_arith ? Relop::kLe : Relop::kEq}));
  };
  for (int level = 0; level < depth; ++level) {
    HltlNode node;
    node.task = level;
    if (level < depth - 1) {
      node.props.push_back(HltlProp::Child(level + 1));
    } else {
      node.props.push_back(amount_atom());
    }
    LtlPtr body = LtlFormula::Eventually(LtlFormula::Prop(0));
    if (level == 0) {
      // Root claim: the chain of child obligations never discharges.
      // Its negation (what the verifier searches for) forces the
      // exploration to recurse through every level of the hierarchy.
      body = LtlFormula::Always(LtlFormula::Not(LtlFormula::Prop(0)));
    }
    node.skeleton = std::move(body);
    w.property.AddNode(std::move(node));
  }
  return w;
}

}  // namespace bench
}  // namespace has
