#include "ra/ra_node.h"

#include <algorithm>

#include "common/hash.h"
#include "common/strings.h"

namespace eqsql::ra {

std::string_view RaOpToString(RaOp op) {
  switch (op) {
    case RaOp::kScan: return "Scan";
    case RaOp::kSelect: return "Select";
    case RaOp::kProject: return "Project";
    case RaOp::kJoin: return "Join";
    case RaOp::kLeftOuterJoin: return "LeftOuterJoin";
    case RaOp::kOuterApply: return "OuterApply";
    case RaOp::kGroupBy: return "GroupBy";
    case RaOp::kSort: return "Sort";
    case RaOp::kDedup: return "Dedup";
    case RaOp::kLimit: return "Limit";
  }
  return "?";
}

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kCountStar: return "COUNT(*)";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

RaNodePtr RaNode::Scan(std::string table, std::string alias) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kScan;
  n->alias_ = alias.empty() ? table : std::move(alias);
  n->table_name_ = std::move(table);
  return n;
}

RaNodePtr RaNode::Select(RaNodePtr child, ScalarExprPtr pred) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kSelect;
  n->children_.push_back(std::move(child));
  n->predicate_ = std::move(pred);
  return n;
}

RaNodePtr RaNode::Project(RaNodePtr child, std::vector<ProjectItem> items) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kProject;
  n->children_.push_back(std::move(child));
  n->projects_ = std::move(items);
  return n;
}

RaNodePtr RaNode::Join(RaNodePtr left, RaNodePtr right, ScalarExprPtr pred) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kJoin;
  n->children_ = {std::move(left), std::move(right)};
  n->predicate_ = std::move(pred);
  return n;
}

RaNodePtr RaNode::LeftOuterJoin(RaNodePtr left, RaNodePtr right,
                                ScalarExprPtr pred) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kLeftOuterJoin;
  n->children_ = {std::move(left), std::move(right)};
  n->predicate_ = std::move(pred);
  return n;
}

RaNodePtr RaNode::OuterApply(RaNodePtr left, RaNodePtr right) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kOuterApply;
  n->children_ = {std::move(left), std::move(right)};
  return n;
}

RaNodePtr RaNode::GroupBy(RaNodePtr child, std::vector<ScalarExprPtr> keys,
                          std::vector<AggregateSpec> aggs) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kGroupBy;
  n->children_.push_back(std::move(child));
  n->group_keys_ = std::move(keys);
  n->aggregates_ = std::move(aggs);
  return n;
}

RaNodePtr RaNode::Sort(RaNodePtr child, std::vector<SortKey> keys) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kSort;
  n->children_.push_back(std::move(child));
  n->sort_keys_ = std::move(keys);
  return n;
}

RaNodePtr RaNode::Dedup(RaNodePtr child) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kDedup;
  n->children_.push_back(std::move(child));
  return n;
}

RaNodePtr RaNode::Limit(RaNodePtr child, int64_t count) {
  auto n = std::shared_ptr<RaNode>(new RaNode());
  n->op_ = RaOp::kLimit;
  n->children_.push_back(std::move(child));
  n->limit_ = count;
  return n;
}

namespace {

bool ExprEq(const ScalarExprPtr& a, const ScalarExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->Equals(*b);
}

}  // namespace

bool RaNode::Equals(const RaNode& other) const {
  if (op_ != other.op_) return false;
  if (table_name_ != other.table_name_ || alias_ != other.alias_) return false;
  if (!ExprEq(predicate_, other.predicate_)) return false;
  if (limit_ != other.limit_) return false;
  if (projects_.size() != other.projects_.size()) return false;
  for (size_t i = 0; i < projects_.size(); ++i) {
    if (projects_[i].name != other.projects_[i].name ||
        !ExprEq(projects_[i].expr, other.projects_[i].expr)) {
      return false;
    }
  }
  if (group_keys_.size() != other.group_keys_.size()) return false;
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    if (!ExprEq(group_keys_[i], other.group_keys_[i])) return false;
  }
  if (aggregates_.size() != other.aggregates_.size()) return false;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (aggregates_[i].func != other.aggregates_[i].func ||
        aggregates_[i].name != other.aggregates_[i].name ||
        !ExprEq(aggregates_[i].arg, other.aggregates_[i].arg)) {
      return false;
    }
  }
  if (sort_keys_.size() != other.sort_keys_.size()) return false;
  for (size_t i = 0; i < sort_keys_.size(); ++i) {
    if (sort_keys_[i].ascending != other.sort_keys_[i].ascending ||
        !ExprEq(sort_keys_[i].expr, other.sort_keys_[i].expr)) {
      return false;
    }
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

size_t RaNode::Hash() const {
  size_t seed = static_cast<size_t>(op_) * 0x51ed2701;
  HashCombine(seed, table_name_);
  HashCombine(seed, alias_);
  if (predicate_ != nullptr) HashCombine(seed, predicate_->Hash());
  HashCombine(seed, limit_);
  for (const auto& p : projects_) {
    HashCombine(seed, p.name);
    HashCombine(seed, p.expr->Hash());
  }
  for (const auto& k : group_keys_) HashCombine(seed, k->Hash());
  for (const auto& a : aggregates_) {
    HashCombine(seed, static_cast<int>(a.func));
    HashCombine(seed, a.name);
    if (a.arg != nullptr) HashCombine(seed, a.arg->Hash());
  }
  for (const auto& k : sort_keys_) {
    HashCombine(seed, k.ascending);
    HashCombine(seed, k.expr->Hash());
  }
  for (const auto& c : children_) HashCombine(seed, c->Hash());
  return seed;
}

std::string RaNode::ToString() const {
  std::string out(RaOpToString(op_));
  switch (op_) {
    case RaOp::kScan:
      out += "[" + table_name_;
      if (alias_ != table_name_) out += " AS " + alias_;
      out += "]";
      return out;
    case RaOp::kSelect:
    case RaOp::kJoin:
    case RaOp::kLeftOuterJoin:
      if (predicate_ != nullptr) out += "[" + predicate_->ToString() + "]";
      break;
    case RaOp::kProject: {
      std::vector<std::string> parts;
      for (const auto& p : projects_) {
        parts.push_back(p.expr->ToString() + " AS " + p.name);
      }
      out += "[" + StrJoin(parts, ", ") + "]";
      break;
    }
    case RaOp::kGroupBy: {
      std::vector<std::string> parts;
      for (const auto& k : group_keys_) parts.push_back(k->ToString());
      std::vector<std::string> aggs;
      for (const auto& a : aggregates_) {
        std::string s(AggFuncToString(a.func));
        if (a.arg != nullptr) s += "(" + a.arg->ToString() + ")";
        s += " AS " + a.name;
        aggs.push_back(std::move(s));
      }
      out += "[keys: " + StrJoin(parts, ", ") + "; aggs: " +
             StrJoin(aggs, ", ") + "]";
      break;
    }
    case RaOp::kSort: {
      std::vector<std::string> parts;
      for (const auto& k : sort_keys_) {
        parts.push_back(k.expr->ToString() + (k.ascending ? " ASC" : " DESC"));
      }
      out += "[" + StrJoin(parts, ", ") + "]";
      break;
    }
    case RaOp::kLimit:
      out += "[" + std::to_string(limit_) + "]";
      break;
    default:
      break;
  }
  out += "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i != 0) out += ", ";
    out += children_[i]->ToString();
  }
  out += ")";
  return out;
}

namespace {

void CollectTablesFromExpr(const ScalarExprPtr& expr,
                           std::vector<std::string>* out);

void CollectTablesImpl(const RaNodePtr& node, std::vector<std::string>* out) {
  if (node == nullptr) return;
  if (node->op() == RaOp::kScan) out->push_back(node->table_name());
  CollectTablesFromExpr(node->predicate(), out);
  for (const auto& p : node->project_items()) {
    CollectTablesFromExpr(p.expr, out);
  }
  for (const auto& k : node->group_keys()) CollectTablesFromExpr(k, out);
  for (const auto& a : node->aggregates()) CollectTablesFromExpr(a.arg, out);
  for (const auto& k : node->sort_keys()) CollectTablesFromExpr(k.expr, out);
  for (const auto& c : node->children()) CollectTablesImpl(c, out);
}

void CollectTablesFromExpr(const ScalarExprPtr& expr,
                           std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->op() == ScalarOp::kExists || expr->op() == ScalarOp::kNotExists) {
    CollectTablesImpl(expr->subquery(), out);
    return;
  }
  for (const auto& c : expr->children()) CollectTablesFromExpr(c, out);
}

}  // namespace

std::vector<std::string> CollectScannedTables(const RaNodePtr& node) {
  std::vector<std::string> out;
  CollectTablesImpl(node, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace eqsql::ra
