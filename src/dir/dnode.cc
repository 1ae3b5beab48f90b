#include "dir/dnode.h"

#include <functional>
#include <optional>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/scalar_ops.h"

namespace eqsql::dir {

std::string_view DOpToString(DOp op) {
  switch (op) {
    case DOp::kConst: return "const";
    case DOp::kRegionInput: return "input";
    case DOp::kTupleAttr: return "attr";
    case DOp::kTupleRef: return "tuple";
    case DOp::kAccParam: return "acc";
    case DOp::kQuery: return "Q";
    case DOp::kOpaque: return "opaque";
    case DOp::kAdd: return "+";
    case DOp::kSub: return "-";
    case DOp::kMul: return "*";
    case DOp::kDiv: return "/";
    case DOp::kMod: return "%";
    case DOp::kEq: return "==";
    case DOp::kNe: return "!=";
    case DOp::kLt: return "<";
    case DOp::kLe: return "<=";
    case DOp::kGt: return ">";
    case DOp::kGe: return ">=";
    case DOp::kAnd: return "and";
    case DOp::kOr: return "or";
    case DOp::kNot: return "not";
    case DOp::kNeg: return "neg";
    case DOp::kConcat: return "concat";
    case DOp::kMax: return "max";
    case DOp::kMin: return "min";
    case DOp::kCoalesce: return "coalesce";
    case DOp::kScalar: return "scalar";
    case DOp::kCond: return "?";
    case DOp::kEmptyList: return "[]";
    case DOp::kEmptySet: return "{}";
    case DOp::kAppend: return "append";
    case DOp::kInsert: return "insert";
    case DOp::kTuple: return "tuplecons";
    case DOp::kLoop: return "Loop";
    case DOp::kFold: return "fold";
  }
  return "?";
}

std::string DNode::ToString() const {
  switch (op_) {
    case DOp::kConst:
      return value_.ToString();
    case DOp::kRegionInput:
      return name_ + "0";
    case DOp::kTupleAttr:
      return name_ + "." + attr_;
    case DOp::kTupleRef:
      return name_;
    case DOp::kAccParam:
      return "<" + name_ + ">";
    case DOp::kQuery: {
      std::string out = "Q(" + query_->ToString();
      for (const DNodePtr& p : children_) out += "; " + p->ToString();
      return out + ")";
    }
    case DOp::kOpaque:
      return "opaque(" + name_ + ")";
    case DOp::kEmptyList:
      return "[]";
    case DOp::kEmptySet:
      return "{}";
    case DOp::kFold: {
      return "fold[" + children_[0]->ToString() + ", " +
             children_[1]->ToString() + ", " + children_[2]->ToString() + "]";
    }
    case DOp::kLoop:
      return "Loop[" + children_[0]->ToString() + ", " +
             children_[1]->ToString() + "]";
    default: {
      std::vector<std::string> parts;
      for (const DNodePtr& c : children_) parts.push_back(c->ToString());
      return std::string(DOpToString(op_)) + "[" + StrJoin(parts, ", ") + "]";
    }
  }
}

size_t DagContext::ComputeHash(const DNode& node) {
  size_t seed = static_cast<size_t>(node.op()) * 0x9e3779b9;
  HashCombine(seed, catalog::ValueHash()(node.value()));
  HashCombine(seed, node.name());
  HashCombine(seed, node.attr());
  HashCombine(seed, node.tuple_var());
  if (node.query() != nullptr) HashCombine(seed, node.query()->Hash());
  for (const DNodePtr& c : node.children()) {
    HashCombine(seed, reinterpret_cast<uintptr_t>(c.get()));
  }
  return seed;
}

bool DagContext::StructurallyEqual(const DNode& a, const DNode& b) {
  if (a.op() != b.op() || a.name() != b.name() || a.attr() != b.attr() ||
      a.tuple_var() != b.tuple_var()) {
    return false;
  }
  if (!(a.value() == b.value()) || a.value().type() != b.value().type()) {
    return false;
  }
  if ((a.query() == nullptr) != (b.query() == nullptr)) return false;
  if (a.query() != nullptr && !a.query()->Equals(*b.query())) return false;
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    // Children are interned: pointer equality is structural equality.
    if (a.child(i).get() != b.child(i).get()) return false;
  }
  return true;
}

DNodePtr DagContext::Intern(std::shared_ptr<DNode> node) {
  node->hash_ = ComputeHash(*node);
  auto& bucket = nodes_[node->hash_];
  for (const DNodePtr& existing : bucket) {
    if (StructurallyEqual(*existing, *node)) return existing;
  }
  bucket.push_back(node);
  return node;
}

DNodePtr DagContext::Const(catalog::Value v) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kConst;
  n->value_ = std::move(v);
  return Intern(std::move(n));
}

DNodePtr DagContext::RegionInput(const std::string& var) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kRegionInput;
  n->name_ = var;
  return Intern(std::move(n));
}

DNodePtr DagContext::TupleAttr(const std::string& tuple_var,
                               const std::string& attr) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kTupleAttr;
  n->name_ = tuple_var;
  n->attr_ = attr;
  return Intern(std::move(n));
}

DNodePtr DagContext::TupleRef(const std::string& tuple_var) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kTupleRef;
  n->name_ = tuple_var;
  return Intern(std::move(n));
}

DNodePtr DagContext::AccParam(const std::string& var) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kAccParam;
  n->name_ = var;
  return Intern(std::move(n));
}

DNodePtr DagContext::Query(ra::RaNodePtr query, std::vector<DNodePtr> params) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kQuery;
  n->query_ = std::move(query);
  n->children_ = std::move(params);
  return Intern(std::move(n));
}

DNodePtr DagContext::Opaque(const std::string& reason) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kOpaque;
  n->name_ = reason;
  return Intern(std::move(n));
}

namespace {

/// Maps foldable scalar DOps to the exec-layer ScalarOp.
std::optional<ra::ScalarOp> ToScalarOp(DOp op) {
  switch (op) {
    case DOp::kAdd: return ra::ScalarOp::kAdd;
    case DOp::kSub: return ra::ScalarOp::kSub;
    case DOp::kMul: return ra::ScalarOp::kMul;
    case DOp::kDiv: return ra::ScalarOp::kDiv;
    case DOp::kMod: return ra::ScalarOp::kMod;
    case DOp::kEq: return ra::ScalarOp::kEq;
    case DOp::kNe: return ra::ScalarOp::kNe;
    case DOp::kLt: return ra::ScalarOp::kLt;
    case DOp::kLe: return ra::ScalarOp::kLe;
    case DOp::kGt: return ra::ScalarOp::kGt;
    case DOp::kGe: return ra::ScalarOp::kGe;
    default: return std::nullopt;
  }
}

}  // namespace

DNodePtr DagContext::Unary(DOp op, DNodePtr operand) {
  if (operand->op() == DOp::kConst) {
    const catalog::Value& v = operand->value();
    if (op == DOp::kNot && (v.is_bool() || v.is_null())) {
      return Const(*exec::EvalNot(v));
    }
    if (op == DOp::kNeg && v.is_numeric()) {
      return Const(v.is_int() ? catalog::Value::Int(-v.AsInt())
                              : catalog::Value::Double(-v.AsDouble()));
    }
  }
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = op;
  n->children_.push_back(std::move(operand));
  return Intern(std::move(n));
}

DNodePtr DagContext::Binary(DOp op, DNodePtr lhs, DNodePtr rhs) {
  // Constant folding (classical ee-DAG simplification): resolves the
  // paper's Figure 5 chain x=10; y=x+5; ... down to constants.
  if (lhs->op() == DOp::kConst && rhs->op() == DOp::kConst) {
    const catalog::Value& a = lhs->value();
    const catalog::Value& b = rhs->value();
    std::optional<ra::ScalarOp> sop = ToScalarOp(op);
    if (sop.has_value()) {
      Result<catalog::Value> folded =
          ra::IsComparisonOp(*sop) ? exec::EvalComparison(*sop, a, b)
                                   : exec::EvalArithmetic(*sop, a, b);
      if (folded.ok()) return Const(std::move(*folded));
    } else if (op == DOp::kAnd || op == DOp::kOr) {
      // A non-boolean operand stays unfolded: evaluation raises it.
      Result<catalog::Value> folded =
          op == DOp::kAnd ? exec::EvalAnd(a, b) : exec::EvalOr(a, b);
      if (folded.ok()) return Const(std::move(*folded));
    } else if (op == DOp::kConcat) {
      Result<catalog::Value> folded = exec::EvalConcat(a, b);
      if (folded.ok()) return Const(std::move(*folded));
    } else if (op == DOp::kMax || op == DOp::kMin) {
      Result<catalog::Value> folded =
          exec::EvalGreatestLeast(op == DOp::kMax, {a, b});
      if (folded.ok()) return Const(std::move(*folded));
    }
  }
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = op;
  n->children_ = {std::move(lhs), std::move(rhs)};
  return Intern(std::move(n));
}

DNodePtr DagContext::Nary(DOp op, std::vector<DNodePtr> children) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = op;
  n->children_ = std::move(children);
  return Intern(std::move(n));
}

DNodePtr DagContext::Cond(DNodePtr cond, DNodePtr then_v, DNodePtr else_v) {
  // Constant condition: select the branch directly.
  if (cond->op() == DOp::kConst && cond->value().is_bool()) {
    return cond->value().AsBool() ? then_v : else_v;
  }
  // Normalization: "if (expr OP v) then v = expr" becomes min/max
  // (paper Sec. 4.2). Pattern: cond compares then_v against else_v.
  if (cond->children().size() == 2) {
    const DNodePtr& a = cond->child(0);
    const DNodePtr& b = cond->child(1);
    auto is_pair = [&](const DNodePtr& x, const DNodePtr& y) {
      return (a.get() == x.get() && b.get() == y.get());
    };
    switch (cond->op()) {
      case DOp::kGt:
      case DOp::kGe:
        // ?[then > else, then, else] == max
        if (is_pair(then_v, else_v)) return Binary(DOp::kMax, then_v, else_v);
        // ?[else > then, then, else] == min
        if (is_pair(else_v, then_v)) return Binary(DOp::kMin, then_v, else_v);
        break;
      case DOp::kLt:
      case DOp::kLe:
        if (is_pair(then_v, else_v)) return Binary(DOp::kMin, then_v, else_v);
        if (is_pair(else_v, then_v)) return Binary(DOp::kMax, then_v, else_v);
        break;
      default:
        break;
    }
  }
  // Boolean-flag normalization (App. B existence checks).
  if (then_v->op() == DOp::kConst && then_v->value().is_bool()) {
    if (then_v->value().AsBool()) {
      // ?[c, true, v] == or[v, c]
      return Binary(DOp::kOr, else_v, cond);
    }
    // ?[c, false, v] == and[v, not c]
    return Binary(DOp::kAnd, else_v, Unary(DOp::kNot, cond));
  }
  if (then_v.get() == else_v.get()) return then_v;
  return Nary(DOp::kCond, {std::move(cond), std::move(then_v),
                           std::move(else_v)});
}

DNodePtr DagContext::EmptyList() {
  return Nary(DOp::kEmptyList, {});
}

DNodePtr DagContext::EmptySet() { return Nary(DOp::kEmptySet, {}); }

DNodePtr DagContext::Append(DNodePtr list, DNodePtr elem) {
  return Binary(DOp::kAppend, std::move(list), std::move(elem));
}

DNodePtr DagContext::Insert(DNodePtr set, DNodePtr elem) {
  return Binary(DOp::kInsert, std::move(set), std::move(elem));
}

DNodePtr DagContext::Tuple(std::vector<DNodePtr> elems) {
  return Nary(DOp::kTuple, std::move(elems));
}

DNodePtr DagContext::Loop(DNodePtr query, DNodePtr body,
                          const std::string& tuple_var) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kLoop;
  n->children_ = {std::move(query), std::move(body)};
  n->tuple_var_ = tuple_var;
  return Intern(std::move(n));
}

DNodePtr DagContext::Fold(DNodePtr fn, DNodePtr init, DNodePtr query,
                          const std::string& tuple_var) {
  auto n = std::shared_ptr<DNode>(new DNode());
  n->op_ = DOp::kFold;
  n->children_ = {std::move(fn), std::move(init), std::move(query)};
  n->tuple_var_ = tuple_var;
  return Intern(std::move(n));
}

namespace {

/// Generic memoized bottom-up rewrite. `leaf` maps a leaf (or any node)
/// to its replacement, or returns null to keep rebuilding children.
DNodePtr RewriteDag(
    DagContext* ctx, const DNodePtr& node,
    std::unordered_map<const DNode*, DNodePtr>* memo,
    const std::function<DNodePtr(const DNodePtr&)>& replace_leaf) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  DNodePtr replaced = replace_leaf(node);
  if (replaced != nullptr) {
    memo->emplace(node.get(), replaced);
    return replaced;
  }
  if (node->children().empty()) {
    memo->emplace(node.get(), node);
    return node;
  }
  std::vector<DNodePtr> kids;
  kids.reserve(node->children().size());
  bool changed = false;
  for (const DNodePtr& c : node->children()) {
    DNodePtr nc = RewriteDag(ctx, c, memo, replace_leaf);
    changed |= (nc.get() != c.get());
    kids.push_back(std::move(nc));
  }
  DNodePtr result;
  if (!changed) {
    result = node;
  } else {
    switch (node->op()) {
      case DOp::kQuery:
        result = ctx->Query(node->query(), std::move(kids));
        break;
      case DOp::kLoop:
        result = ctx->Loop(kids[0], kids[1], node->tuple_var());
        break;
      case DOp::kFold:
        result = ctx->Fold(kids[0], kids[1], kids[2], node->tuple_var());
        break;
      case DOp::kCond:
        result = ctx->Cond(kids[0], kids[1], kids[2]);
        break;
      default:
        result = ctx->Nary(node->op(), std::move(kids));
        break;
    }
  }
  memo->emplace(node.get(), result);
  return result;
}

}  // namespace

DNodePtr DagContext::SubstituteInputs(const DNodePtr& node,
                                      const std::map<std::string, DNodePtr>& map) {
  if (map.empty()) return node;
  std::unordered_map<const DNode*, DNodePtr> memo;
  return RewriteDag(this, node, &memo, [&](const DNodePtr& n) -> DNodePtr {
    if (n->op() == DOp::kRegionInput) {
      auto it = map.find(n->name());
      if (it != map.end()) return it->second;
    }
    return nullptr;
  });
}

DNodePtr DagContext::InputToAccParam(const DNodePtr& node,
                                     const std::string& var) {
  std::unordered_map<const DNode*, DNodePtr> memo;
  return RewriteDag(this, node, &memo, [&](const DNodePtr& n) -> DNodePtr {
    if (n->op() == DOp::kRegionInput && n->name() == var) {
      return AccParam(var);
    }
    return nullptr;
  });
}

DNodePtr DagContext::SubstituteAccParam(const DNodePtr& node,
                                        const std::string& var,
                                        DNodePtr replacement) {
  std::unordered_map<const DNode*, DNodePtr> memo;
  return RewriteDag(this, node, &memo, [&](const DNodePtr& n) -> DNodePtr {
    if (n->op() == DOp::kAccParam && n->name() == var) return replacement;
    return nullptr;
  });
}

bool DagContext::Contains(const DNodePtr& node,
                          const std::function<bool(const DNode&)>& pred) {
  if (pred(*node)) return true;
  for (const DNodePtr& c : node->children()) {
    if (Contains(c, pred)) return true;
  }
  return false;
}

}  // namespace eqsql::dir
