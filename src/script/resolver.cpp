#include "script/resolver.hpp"

#include <string>
#include <utility>
#include <vector>

#include "script/value.hpp"

namespace vp::script {
namespace {

// ------------------------------------------------------ constant fold

bool IsLiteral(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber:
    case ExprKind::kString:
    case ExprKind::kBool:
    case ExprKind::kNull:
    case ExprKind::kUndefined:
      return true;
    default:
      return false;
  }
}

Value LiteralValue(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber: return Value(e.number);
    case ExprKind::kString: return Value(e.string_value);
    case ExprKind::kBool: return Value(e.bool_value);
    case ExprKind::kNull: return Value(nullptr);
    default: return Value::Undefined();
  }
}

void ReplaceWithLiteral(Expr& e, const Value& v) {
  const int line = e.line;
  e = Expr{};
  e.line = line;
  switch (v.type()) {
    case ValueType::kNumber:
      e.kind = ExprKind::kNumber;
      e.number = v.AsNumber();
      break;
    case ValueType::kString:
      e.kind = ExprKind::kString;
      e.string_value = v.AsString();
      break;
    case ValueType::kBool:
      e.kind = ExprKind::kBool;
      e.bool_value = v.AsBool();
      break;
    case ValueType::kNull:
      e.kind = ExprKind::kNull;
      break;
    default:
      e.kind = ExprKind::kUndefined;
      break;
  }
}

void ReplaceWithChild(Expr& e, ExprPtr child) {
  ExprPtr saved = std::move(child);  // keep the node alive across the move
  e = std::move(*saved);
}

// ------------------------------------------------------------ walk

void FoldExpr(Expr& e);

void FoldStmts(std::vector<StmtPtr>& stmts);

void FoldStmt(Stmt& s) {
  if (s.expr) FoldExpr(*s.expr);
  if (s.init) FoldStmt(*s.init);
  if (s.condition) FoldExpr(*s.condition);
  if (s.step) FoldExpr(*s.step);
  FoldStmts(s.then_branch);
  FoldStmts(s.else_branch);
  FoldStmts(s.body);
  for (auto& c : s.cases) {
    if (c.test) FoldExpr(*c.test);
    FoldStmts(c.body);
  }
}

void FoldStmts(std::vector<StmtPtr>& stmts) {
  for (auto& s : stmts) FoldStmt(*s);
}

void FoldUnary(Expr& e) {
  if (!IsLiteral(*e.a)) return;
  const Value v = LiteralValue(*e.a);
  switch (e.op_code) {
    case OpCode::kNeg: ReplaceWithLiteral(e, Value(-v.ToNumber())); break;
    case OpCode::kPos: ReplaceWithLiteral(e, Value(v.ToNumber())); break;
    case OpCode::kNot: ReplaceWithLiteral(e, Value(!v.Truthy())); break;
    default: break;  // typeof et al.: compiled as written
  }
}

void FoldBinary(Expr& e) {
  if (!IsLiteral(*e.a) || !IsLiteral(*e.b)) return;
  auto r = EvalBinaryOp(e.op_code, LiteralValue(*e.a), LiteralValue(*e.b));
  if (!r.ok()) return;  // not a foldable operator
  ReplaceWithLiteral(e, *r);
}

void FoldLogical(Expr& e) {
  if (!IsLiteral(*e.a)) return;
  const bool truthy = LiteralValue(*e.a).Truthy();
  if (e.op_code == OpCode::kAndAnd) {
    ReplaceWithChild(e, truthy ? std::move(e.b) : std::move(e.a));
  } else if (e.op_code == OpCode::kOrOr) {
    ReplaceWithChild(e, truthy ? std::move(e.a) : std::move(e.b));
  }
}

void FoldExpr(Expr& e) {
  for (auto& el : e.elements) FoldExpr(*el);
  for (auto& p : e.properties) FoldExpr(*p.value);
  FoldStmts(e.body);
  if (e.a) FoldExpr(*e.a);
  if (e.b) FoldExpr(*e.b);
  if (e.c) FoldExpr(*e.c);
  switch (e.kind) {
    case ExprKind::kUnary:
      FoldUnary(e);
      break;
    case ExprKind::kBinary:
      FoldBinary(e);
      break;
    case ExprKind::kLogical:
      FoldLogical(e);
      break;
    case ExprKind::kConditional:
      if (IsLiteral(*e.a)) {
        ReplaceWithChild(e, LiteralValue(*e.a).Truthy() ? std::move(e.b)
                                                        : std::move(e.c));
      }
      break;
    default:
      break;
  }
}

}  // namespace

void ResolveProgram(Program& program) { FoldStmts(program.statements); }

}  // namespace vp::script
