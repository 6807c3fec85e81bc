#include "spec/parser.h"

#include "common/strings.h"
#include "spec/binder.h"
#include "spec/lexer.h"

namespace has {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ParsedSpec> Parse() {
    ParsedSpec spec;
    locs_ = &spec.locations;
    HAS_RETURN_IF_ERROR(ExpectIdent("system"));
    HAS_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    // Pre-scan relation names for forward references.
    for (size_t i = pos_; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i].kind == TokKind::kIdent &&
          tokens_[i].text == "relation" &&
          tokens_[i + 1].kind == TokKind::kIdent) {
        spec.system.schema().AddRelation(tokens_[i + 1].text);
      }
    }
    while (PeekIdent("relation")) {
      HAS_RETURN_IF_ERROR(ParseRelation(&spec.system));
    }
    if (!PeekIdent("task")) {
      return Error("expected the root task");
    }
    HAS_RETURN_IF_ERROR(ParseTask(&spec.system, kNoTask));
    HAS_RETURN_IF_ERROR(Expect(TokKind::kRBrace));
    while (PeekIdent("property")) {
      HAS_RETURN_IF_ERROR(ParseProperty(&spec));
    }
    if (Peek().kind != TokKind::kEnd) {
      return Error("trailing input after properties");
    }
    return spec;
  }

  /// Condition-only entry point (testing aid).
  StatusOr<CondPtr> ParseLoneCondition(const VarScope& scope,
                                       const DatabaseSchema& schema) {
    scope_ = &scope;
    schema_ = &schema;
    HAS_ASSIGN_OR_RETURN(CondPtr cond, ParseCond());
    if (Peek().kind != TokKind::kEnd) return Error("trailing input");
    return cond;
  }

 private:
  // --- token plumbing -----------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool PeekIdent(const std::string& word, int ahead = 0) const {
    return Peek(ahead).kind == TokKind::kIdent && Peek(ahead).text == word;
  }
  bool ConsumeIdent(const std::string& word) {
    if (PeekIdent(word)) {
      Next();
      return true;
    }
    return false;
  }
  bool Consume(TokKind kind) {
    if (Peek().kind == kind) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(TokKind kind) {
    if (!Consume(kind)) {
      return Error(StrCat("unexpected token '", Peek().text, "'"));
    }
    return Status::Ok();
  }
  Status ExpectIdent(const std::string& word) {
    if (!ConsumeIdent(word)) {
      return Error(StrCat("expected '", word, "', got '", Peek().text, "'"));
    }
    return Status::Ok();
  }
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrCat("line ", Peek().line, ": ", message));
  }

  // --- nesting ------------------------------------------------------------
  /// Opens one more level of nesting (see kMaxSpecNesting). Errors
  /// abandon the whole parse, so only successful paths close levels.
  Status Enter() {
    if (depth_ == kMaxSpecNesting) {
      return Error(StrCat("nesting deeper than ", kMaxSpecNesting));
    }
    ++depth_;
    return Status::Ok();
  }
  void Leave() { --depth_; }

  // --- schema -------------------------------------------------------------
  Status ParseRelation(ArtifactSystem* system) {
    HAS_RETURN_IF_ERROR(ExpectIdent("relation"));
    if (Peek().kind != TokKind::kIdent) return Error("relation name");
    std::string name = Next().text;
    std::optional<RelationId> rid = system->schema().FindRelation(name);
    if (!rid.has_value()) return Error("relation pre-scan failure");
    Relation& rel = system->schema().relation(*rid);
    HAS_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    while (!Consume(TokKind::kRBrace)) {
      if (Peek().kind != TokKind::kIdent) return Error("attribute name");
      std::string attr = Next().text;
      if (Consume(TokKind::kColon)) {
        HAS_RETURN_IF_ERROR(ExpectIdent("num"));
        rel.AddNumericAttribute(attr);
      } else if (Consume(TokKind::kArrow)) {
        if (Peek().kind != TokKind::kIdent) return Error("target relation");
        std::string target = Next().text;
        std::optional<RelationId> tid =
            system->schema().FindRelation(target);
        if (!tid.has_value()) {
          return Error(StrCat("unknown relation ", target));
        }
        rel.AddForeignKey(attr, *tid);
      } else {
        return Error("expected ': num' or '-> Relation'");
      }
      HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
    }
    return Status::Ok();
  }

  // --- tasks ----------------------------------------------------------------
  /// A service set-update awaiting relation-name resolution: `set`
  /// blocks may appear anywhere in the task body, so `insert into X;`
  /// is resolved once the body is fully parsed.
  struct PendingSetOp {
    int service = -1;       ///< index into the task's services
    std::string relation;   ///< empty for the bare insert/retrieve sugar
    bool is_insert = false;
    int line = 0;
  };

  SourceLoc LocOf(const Token& tok) const {
    return SourceLoc{tok.line, tok.column};
  }

  Status ParseTask(ArtifactSystem* system, TaskId parent) {
    HAS_RETURN_IF_ERROR(ExpectIdent("task"));
    if (Peek().kind != TokKind::kIdent) return Error("task name");
    const Token name_tok = Next();
    std::string name = name_tok.text;
    TaskId id = system->AddTask(name, parent);
    locs_->SetTask(name, LocOf(name_tok));
    HAS_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    schema_ = &system->schema();
    std::vector<PendingSetOp> pending_set_ops;
    while (!Consume(TokKind::kRBrace)) {
      // Re-fetch on every iteration: nested AddTask calls may
      // reallocate the task vector and invalidate references.
      Task& task = system->task(id);
      if (PeekIdent("ids") || PeekIdent("nums")) {
        bool is_id = Next().text == "ids";
        HAS_RETURN_IF_ERROR(Expect(TokKind::kColon));
        while (Peek().kind == TokKind::kIdent) {
          const Token var_tok = Next();
          task.vars().AddVar(var_tok.text,
                             is_id ? VarSort::kId : VarSort::kNumeric);
          locs_->SetVar(name, var_tok.text, LocOf(var_tok));
          if (!Consume(TokKind::kComma)) break;
        }
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("set")) {
        SourceLoc rel_loc = LocOf(Peek());
        Next();
        // Named form `set Name (x̄);` or the single-relation sugar
        // `set (x̄);` (relation name "S").
        std::string rel_name = kDefaultSetName;
        if (Peek().kind == TokKind::kIdent) {
          rel_loc = LocOf(Peek());
          rel_name = Next().text;
        }
        locs_->SetRelation(name, rel_name, rel_loc);
        if (task.FindSetRelation(rel_name) >= 0) {
          return Error(StrCat("artifact relation ", rel_name,
                              " declared twice"));
        }
        HAS_RETURN_IF_ERROR(Expect(TokKind::kLParen));
        std::vector<int> set_vars;
        while (Peek().kind == TokKind::kIdent) {
          int v = task.vars().Find(Next().text);
          if (v < 0) return Error("unknown set variable");
          set_vars.push_back(v);
          if (!Consume(TokKind::kComma)) break;
        }
        HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
        task.AddSetRelation(std::move(rel_name), std::move(set_vars));
      } else if (PeekIdent("input")) {
        Next();
        HAS_RETURN_IF_ERROR(Expect(TokKind::kColon));
        while (Peek().kind == TokKind::kIdent) {
          int own = task.vars().Find(Next().text);
          if (own < 0) return Error("unknown input variable");
          int parent_var = -1;
          if (Consume(TokKind::kLArrow)) {
            if (parent == kNoTask) {
              return Error("root inputs take no source");
            }
            if (Peek().kind != TokKind::kIdent) {
              return Error("parent variable");
            }
            parent_var = system->task(parent).vars().Find(Next().text);
            if (parent_var < 0) return Error("unknown parent variable");
          } else if (parent != kNoTask) {
            // Default: same-named parent variable (the paper's example
            // convention).
            parent_var =
                system->task(parent).vars().Find(
                    task.vars().var(own).name);
            if (parent_var < 0) {
              return Error("no same-named parent variable for input");
            }
          }
          task.AddInput(own, parent_var);
          if (!Consume(TokKind::kComma)) break;
        }
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("output")) {
        Next();
        HAS_RETURN_IF_ERROR(Expect(TokKind::kColon));
        if (parent == kNoTask) return Error("root task has no output");
        while (Peek().kind == TokKind::kIdent) {
          int own = task.vars().Find(Next().text);
          if (own < 0) return Error("unknown output variable");
          HAS_RETURN_IF_ERROR(Expect(TokKind::kArrow));
          if (Peek().kind != TokKind::kIdent) {
            return Error("parent variable");
          }
          int parent_var = system->task(parent).vars().Find(Next().text);
          if (parent_var < 0) return Error("unknown parent variable");
          task.AddOutput(parent_var, own);
          if (!Consume(TokKind::kComma)) break;
        }
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("open")) {
        Next();
        HAS_RETURN_IF_ERROR(ExpectIdent("when"));
        if (parent == kNoTask) {
          return Error("the root task has no opening condition");
        }
        scope_ = &system->task(parent).vars();
        HAS_ASSIGN_OR_RETURN(CondPtr cond, ParseCond());
        task.SetOpeningPre(std::move(cond));
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("close")) {
        Next();
        HAS_RETURN_IF_ERROR(ExpectIdent("when"));
        scope_ = &task.vars();
        HAS_ASSIGN_OR_RETURN(CondPtr cond, ParseCond());
        task.SetClosingPre(std::move(cond));
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("init")) {
        // Global pre-condition Π (root only): init when <cond>;
        Next();
        HAS_RETURN_IF_ERROR(ExpectIdent("when"));
        if (parent != kNoTask) {
          return Error("Π can only appear on the root task");
        }
        scope_ = &task.vars();
        HAS_ASSIGN_OR_RETURN(CondPtr cond, ParseCond());
        system->SetGlobalPre(std::move(cond));
        HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
      } else if (PeekIdent("service")) {
        Next();
        if (Peek().kind != TokKind::kIdent) return Error("service name");
        InternalService svc;
        locs_->SetService(name, Peek().text, LocOf(Peek()));
        svc.name = Next().text;
        svc.pre = Condition::True();
        svc.post = Condition::True();
        HAS_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
        scope_ = &task.vars();
        while (!Consume(TokKind::kRBrace)) {
          if (ConsumeIdent("pre")) {
            HAS_RETURN_IF_ERROR(Expect(TokKind::kColon));
            HAS_ASSIGN_OR_RETURN(svc.pre, ParseCond());
            HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
          } else if (ConsumeIdent("post")) {
            HAS_RETURN_IF_ERROR(Expect(TokKind::kColon));
            HAS_ASSIGN_OR_RETURN(svc.post, ParseCond());
            HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
          } else if (PeekIdent("insert") || PeekIdent("retrieve")) {
            PendingSetOp op;
            op.is_insert = Next().text == "insert";
            op.line = Peek().line;
            // `insert into X;` / `retrieve from X;`, or the bare
            // single-relation sugar `insert;` / `retrieve;`.
            if (ConsumeIdent(op.is_insert ? "into" : "from")) {
              if (Peek().kind != TokKind::kIdent) {
                return Error("artifact relation name");
              }
              op.relation = Next().text;
            }
            HAS_RETURN_IF_ERROR(Expect(TokKind::kSemi));
            op.service = static_cast<int>(task.services().size());
            pending_set_ops.push_back(std::move(op));
          } else {
            return Error("expected pre/post/insert/retrieve");
          }
        }
        task.AddInternalService(std::move(svc));
      } else if (PeekIdent("task")) {
        HAS_RETURN_IF_ERROR(Enter());
        HAS_RETURN_IF_ERROR(ParseTask(system, id));
        Leave();
      } else {
        return Error(StrCat("unexpected '", Peek().text, "' in task body"));
      }
    }
    // Resolve the deferred set updates now that every `set` block of
    // the body has been seen.
    Task& task = system->task(id);
    for (const PendingSetOp& op : pending_set_ops) {
      int rel;
      if (op.relation.empty()) {
        if (task.num_set_relations() != 1) {
          return Status::InvalidArgument(StrCat(
              "line ", op.line, ": bare ", op.is_insert ? "insert" : "retrieve",
              task.num_set_relations() == 0
                  ? " in a task without an artifact relation"
                  : StrCat(" is ambiguous among ", task.num_set_relations(),
                           " relations; use '",
                           op.is_insert ? "insert into" : "retrieve from",
                           " <name>'")));
        }
        rel = 0;
      } else {
        rel = task.FindSetRelation(op.relation);
        if (rel < 0) {
          return Status::InvalidArgument(
              StrCat("line ", op.line, ": unknown artifact relation ",
                     op.relation, " in task ", task.name()));
        }
      }
      InternalService& svc = task.mutable_service(op.service);
      if (op.is_insert) {
        svc.MarkInsert(rel);
      } else {
        svc.MarkRetrieve(rel);
      }
    }
    return Status::Ok();
  }

  // --- conditions ----------------------------------------------------------
  StatusOr<CondPtr> ParseCond() { return ParseOr(); }

  // A chain `a || b || c` builds a left-deep tree, so each operator
  // opens a level until the chain ends (likewise for && and the HLTL
  // chains).
  StatusOr<CondPtr> ParseOr() {
    const int depth = depth_;
    HAS_ASSIGN_OR_RETURN(CondPtr lhs, ParseAnd());
    while (Consume(TokKind::kOr)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(CondPtr rhs, ParseAnd());
      lhs = Condition::Or(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  StatusOr<CondPtr> ParseAnd() {
    const int depth = depth_;
    HAS_ASSIGN_OR_RETURN(CondPtr lhs, ParseNot());
    while (Consume(TokKind::kAnd)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(CondPtr rhs, ParseNot());
      lhs = Condition::And(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  StatusOr<CondPtr> ParseNot() {
    if (Consume(TokKind::kNot)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(CondPtr inner, ParseNot());
      Leave();
      return Condition::Not(std::move(inner));
    }
    if (Consume(TokKind::kLParen)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(CondPtr inner, ParseCond());
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      Leave();
      return inner;
    }
    return ParseAtom();
  }

  StatusOr<CondPtr> ParseAtom() {
    if (ConsumeIdent("true")) return Condition::True();
    if (ConsumeIdent("false")) return Condition::False();
    // Relation atom: IDENT '(' args ')'.
    if (Peek().kind == TokKind::kIdent &&
        Peek(1).kind == TokKind::kLParen &&
        schema_->FindRelation(Peek().text).has_value()) {
      RelationId rel = *schema_->FindRelation(Next().text);
      HAS_RETURN_IF_ERROR(Expect(TokKind::kLParen));
      std::vector<int> args;
      while (Peek().kind == TokKind::kIdent) {
        int v = scope_->Find(Next().text);
        if (v < 0) return Error("unknown variable in relation atom");
        args.push_back(v);
        if (!Consume(TokKind::kComma)) break;
      }
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      return Condition::Rel(rel, std::move(args));
    }
    // Comparison.
    HAS_ASSIGN_OR_RETURN(BoundTerm lhs, ParseSum());
    TokKind op = Peek().kind;
    switch (op) {
      case TokKind::kEq:
      case TokKind::kNe:
      case TokKind::kLt:
      case TokKind::kLe:
      case TokKind::kGt:
      case TokKind::kGe:
        Next();
        break;
      default:
        return Error("expected comparison operator");
    }
    HAS_ASSIGN_OR_RETURN(BoundTerm rhs, ParseSum());
    return BuildComparisonImpl(lhs, rhs, static_cast<int>(op), *scope_);
  }

  StatusOr<BoundTerm> ParseSum() {
    HAS_ASSIGN_OR_RETURN(BoundTerm lhs, ParseProduct());
    while (Peek().kind == TokKind::kPlus || Peek().kind == TokKind::kMinus) {
      bool minus = Next().kind == TokKind::kMinus;
      HAS_ASSIGN_OR_RETURN(BoundTerm rhs, ParseProduct());
      lhs = CombineTerms(lhs, rhs, minus);
    }
    return lhs;
  }

  StatusOr<BoundTerm> ParseProduct() {
    if (Consume(TokKind::kMinus)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(BoundTerm inner, ParseProduct());
      Leave();
      return NegateTerm(inner);
    }
    if (ConsumeIdent("null")) return BoundTerm::MakeNull();
    if (Peek().kind == TokKind::kNumber) {
      HAS_ASSIGN_OR_RETURN(Rational value, ParseRationalLiteral(Next().text));
      if (Consume(TokKind::kStar)) {
        if (Peek().kind != TokKind::kIdent) {
          return Error("expected variable after '*'");
        }
        int v = scope_->Find(Next().text);
        if (v < 0) return Error("unknown variable");
        return BoundTerm::MakeScaledVar(v, value);
      }
      return BoundTerm::MakeConst(value);
    }
    if (Peek().kind == TokKind::kIdent) {
      int v = scope_->Find(Next().text);
      if (v < 0) {
        return Error(StrCat("unknown variable '", tokens_[pos_ - 1].text,
                            "'"));
      }
      return BoundTerm::MakeVar(v);
    }
    return Error("expected a term");
  }

  // --- properties -----------------------------------------------------------
  Status ParseProperty(ParsedSpec* spec) {
    HAS_RETURN_IF_ERROR(ExpectIdent("property"));
    if (Peek().kind != TokKind::kIdent) return Error("property name");
    if (spec->FindProperty(Peek().text) != nullptr) {
      return Error(StrCat("duplicate property ", Peek().text));
    }
    locs_->SetProperty(Peek().text, LocOf(Peek()));
    const int line = Peek().line;
    std::string name = Next().text;
    HAS_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    HltlProperty property;
    // Reserve node 0 for the root formula, then parse it.
    HltlNode placeholder;
    placeholder.task = spec->system.root();
    placeholder.skeleton = LtlFormula::True();
    property.AddNode(std::move(placeholder));
    system_for_property_ = &spec->system;
    property_ = &property;
    current_task_ = spec->system.root();
    current_props_ = {};
    HAS_ASSIGN_OR_RETURN(LtlPtr skeleton, ParseHltlImplies());
    property.mutable_node(0).skeleton = std::move(skeleton);
    property.mutable_node(0).props = std::move(current_props_);
    HAS_RETURN_IF_ERROR(Expect(TokKind::kRBrace));
    // The grammar admits properties Verify must reject (say [φ]@T for a
    // T that is not a child), so they are input errors here.
    Status valid = property.Validate(spec->system);
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrCat("line ", line, ": property ", name, ": ", valid.message()));
    }
    spec->properties.emplace_back(std::move(name), std::move(property));
    return Status::Ok();
  }

  StatusOr<LtlPtr> ParseHltlImplies() {
    HAS_ASSIGN_OR_RETURN(LtlPtr lhs, ParseHltlOr());
    if (Consume(TokKind::kArrow)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr rhs, ParseHltlImplies());
      Leave();
      return LtlFormula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<LtlPtr> ParseHltlOr() {
    const int depth = depth_;
    HAS_ASSIGN_OR_RETURN(LtlPtr lhs, ParseHltlAnd());
    while (Consume(TokKind::kOr)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr rhs, ParseHltlAnd());
      lhs = LtlFormula::Or(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  StatusOr<LtlPtr> ParseHltlAnd() {
    const int depth = depth_;
    HAS_ASSIGN_OR_RETURN(LtlPtr lhs, ParseHltlUntil());
    while (Consume(TokKind::kAnd)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr rhs, ParseHltlUntil());
      lhs = LtlFormula::And(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  StatusOr<LtlPtr> ParseHltlUntil() {
    const int depth = depth_;
    HAS_ASSIGN_OR_RETURN(LtlPtr lhs, ParseHltlUnary());
    while (PeekIdent("U")) {
      Next();
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr rhs, ParseHltlUnary());
      lhs = LtlFormula::Until(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  StatusOr<LtlPtr> ParseHltlUnary() {
    using Unary = LtlPtr (*)(LtlPtr);
    Unary op = nullptr;
    if (Consume(TokKind::kNot)) {
      op = &LtlFormula::Not;
    } else if (ConsumeIdent("G")) {
      op = &LtlFormula::Always;
    } else if (ConsumeIdent("F")) {
      op = &LtlFormula::Eventually;
    } else if (ConsumeIdent("X")) {
      op = &LtlFormula::Next;
    } else {
      return ParseHltlPrimary();
    }
    HAS_RETURN_IF_ERROR(Enter());
    HAS_ASSIGN_OR_RETURN(LtlPtr inner, ParseHltlUnary());
    Leave();
    return op(std::move(inner));
  }

  StatusOr<LtlPtr> ParseHltlPrimary() {
    if (ConsumeIdent("true")) return LtlFormula::True();
    if (ConsumeIdent("false")) return LtlFormula::False();
    if (Consume(TokKind::kLParen)) {
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr inner, ParseHltlImplies());
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      Leave();
      return inner;
    }
    if (Consume(TokKind::kLBrace)) {
      // Embedded condition over the current task's scope.
      scope_ = &system_for_property_->task(current_task_).vars();
      schema_ = &system_for_property_->schema();
      HAS_ASSIGN_OR_RETURN(CondPtr cond, ParseCond());
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRBrace));
      current_props_.push_back(HltlProp::Cond(std::move(cond)));
      return LtlFormula::Prop(static_cast<int>(current_props_.size() - 1));
    }
    if (PeekIdent("open") || PeekIdent("close")) {
      bool opening = Next().text == "open";
      HAS_RETURN_IF_ERROR(Expect(TokKind::kLParen));
      if (Peek().kind != TokKind::kIdent) return Error("task name");
      TaskId t = system_for_property_->FindTask(Next().text);
      if (t == kNoTask) return Error("unknown task");
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      current_props_.push_back(HltlProp::Service(
          opening ? ServiceRef::Opening(t) : ServiceRef::Closing(t)));
      return LtlFormula::Prop(static_cast<int>(current_props_.size() - 1));
    }
    if (PeekIdent("svc")) {
      Next();
      HAS_RETURN_IF_ERROR(Expect(TokKind::kLParen));
      if (Peek().kind != TokKind::kIdent) return Error("service name");
      std::string svc_name = Next().text;
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      // Resolve within the current task's internal services.
      const Task& task = system_for_property_->task(current_task_);
      int index = -1;
      for (size_t i = 0; i < task.services().size(); ++i) {
        if (task.services()[i].name == svc_name) {
          index = static_cast<int>(i);
        }
      }
      if (index < 0) {
        return Error(StrCat("unknown service ", svc_name, " in task ",
                            task.name()));
      }
      current_props_.push_back(
          HltlProp::Service(ServiceRef::Internal(current_task_, index)));
      return LtlFormula::Prop(static_cast<int>(current_props_.size() - 1));
    }
    if (Consume(TokKind::kLBracket)) {
      // Child formula [φ]@Task.
      std::vector<HltlProp> saved_props = std::move(current_props_);
      TaskId saved_task = current_task_;
      // Find the task name after the matching bracket... the name
      // follows ']@'; parse the body first with the child scope, so we
      // must locate the task name by scanning ahead for the matching
      // bracket.
      int depth = 1;
      size_t scan = pos_;
      while (scan < tokens_.size() && depth > 0) {
        if (tokens_[scan].kind == TokKind::kLBracket) ++depth;
        if (tokens_[scan].kind == TokKind::kRBracket) --depth;
        ++scan;
      }
      if (depth != 0 || scan >= tokens_.size() ||
          tokens_[scan].kind != TokKind::kAt ||
          tokens_[scan + 1].kind != TokKind::kIdent) {
        return Error("expected [φ]@Task");
      }
      TaskId child = system_for_property_->FindTask(tokens_[scan + 1].text);
      if (child == kNoTask) return Error("unknown task in [φ]@Task");
      current_task_ = child;
      current_props_ = {};
      HAS_RETURN_IF_ERROR(Enter());
      HAS_ASSIGN_OR_RETURN(LtlPtr body, ParseHltlImplies());
      Leave();
      HAS_RETURN_IF_ERROR(Expect(TokKind::kRBracket));
      HAS_RETURN_IF_ERROR(Expect(TokKind::kAt));
      HAS_RETURN_IF_ERROR(Expect(TokKind::kIdent));  // the task name
      HltlNode node;
      node.task = child;
      node.skeleton = std::move(body);
      node.props = std::move(current_props_);
      int node_index = property_->AddNode(std::move(node));
      current_props_ = std::move(saved_props);
      current_task_ = saved_task;
      current_props_.push_back(HltlProp::Child(node_index));
      return LtlFormula::Prop(static_cast<int>(current_props_.size() - 1));
    }
    return Error(StrCat("unexpected '", Peek().text, "' in property"));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< open nesting levels (Enter)
  SpecLocations* locs_ = nullptr;
  const VarScope* scope_ = nullptr;
  const DatabaseSchema* schema_ = nullptr;
  // Property-parsing state.
  ArtifactSystem* system_for_property_ = nullptr;
  HltlProperty* property_ = nullptr;
  TaskId current_task_ = kNoTask;
  std::vector<HltlProp> current_props_;
};

}  // namespace

StatusOr<ParsedSpec> ParseSpec(const std::string& source) {
  HAS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

StatusOr<ParsedSpec> ParseSpec(const std::string& source,
                               const std::string& filename) {
  HAS_ASSIGN_OR_RETURN(ParsedSpec spec, ParseSpec(source));
  spec.locations.set_file(filename);
  return spec;
}

StatusOr<CondPtr> ParseCondition(const std::string& source,
                                 const VarScope& scope,
                                 const DatabaseSchema& schema) {
  HAS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.ParseLoneCondition(scope, schema);
}

}  // namespace has
