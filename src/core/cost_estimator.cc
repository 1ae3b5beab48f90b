#include "core/cost_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/strings.h"
#include "ra/scalar_expr.h"

namespace eqsql::core {

using ra::RaNode;
using ra::RaNodePtr;
using ra::RaOp;
using ra::ScalarOp;

namespace {

constexpr double kDefaultRowBytes = 48.0;
constexpr double kDefaultTableRows = 1000.0;
/// Textbook default selectivity for an unknown predicate.
constexpr double kSelectSelectivity = 1.0 / 3.0;

/// True if the selection predicate pins a column to equality with a
/// non-column operand (point predicate — estimate one matching row
/// when the column is likely a key).
bool HasEqualityConjunct(const ra::ScalarExprPtr& pred) {
  if (pred == nullptr) return false;
  if (pred->op() == ScalarOp::kAnd) {
    return HasEqualityConjunct(pred->child(0)) ||
           HasEqualityConjunct(pred->child(1));
  }
  if (pred->op() != ScalarOp::kEq) return false;
  bool left_col = pred->child(0)->op() == ScalarOp::kColumnRef;
  bool right_col = pred->child(1)->op() == ScalarOp::kColumnRef;
  return left_col != right_col;  // column against literal/parameter
}

/// Bare column suffix after the last '.' (scan aliases qualify refs).
std::string BareName(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// Collects the right scan's join-key columns the way Binder::BindJoin
/// classifies them: each `=` conjunct with one side over only the right
/// scan's columns (qualified by `alias`) and the other side over none
/// of them contributes its right side. Executor::ExecJoin probes the
/// ready index over exactly this column set. False when a right key is
/// not a plain column or repeats one: no index can serve the join.
bool CollectRightKeyColumns(const ra::ScalarExprPtr& pred,
                            const std::string& alias,
                            std::vector<std::string>* cols) {
  if (pred == nullptr) return true;
  if (pred->op() == ScalarOp::kAnd) {
    return CollectRightKeyColumns(pred->child(0), alias, cols) &&
           CollectRightKeyColumns(pred->child(1), alias, cols);
  }
  if (pred->op() != ScalarOp::kEq) return true;
  const std::string prefix = alias + ".";
  auto on_right = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (int side = 0; side < 2; ++side) {
    const ra::ScalarExprPtr& l = pred->child(side);
    const ra::ScalarExprPtr& r = pred->child(1 - side);
    std::vector<std::string> lrefs;
    std::vector<std::string> rrefs;
    ra::CollectColumnRefs(l, &lrefs);
    ra::CollectColumnRefs(r, &rrefs);
    if (lrefs.empty() || rrefs.empty() ||
        std::any_of(lrefs.begin(), lrefs.end(), on_right) ||
        !std::all_of(rrefs.begin(), rrefs.end(), on_right)) {
      continue;
    }
    if (r->op() != ScalarOp::kColumnRef) return false;
    std::string col = BareName(r->column_name());
    if (std::find(cols->begin(), cols->end(), col) != cols->end()) {
      return false;
    }
    cols->push_back(std::move(col));
    return true;
  }
  return true;
}

}  // namespace

CostEstimator::NodeEstimate CostEstimator::EstimateScan(
    const std::string& table) const {
  const std::string name = AsciiToLower(table);
  NodeEstimate out;
  auto rows_it = stats_.table_rows.find(name);
  out.rows = rows_it != stats_.table_rows.end()
                 ? static_cast<double>(rows_it->second)
                 : kDefaultTableRows;
  auto bytes_it = stats_.row_bytes.find(name);
  out.row_bytes = bytes_it != stats_.row_bytes.end()
                      ? static_cast<double>(bytes_it->second)
                      : kDefaultRowBytes;
  out.processed = out.rows;
  return out;
}

CostEstimator::NodeEstimate CostEstimator::EstimateNode(
    const RaNode& node) const {
  switch (node.op()) {
    case RaOp::kScan:
      return EstimateScan(node.table_name());
    case RaOp::kSelect: {
      NodeEstimate in = EstimateNode(*node.child(0));
      NodeEstimate out = in;
      // A key-equality point predicate over a base scan becomes an
      // index probe (Executor::TryKeyLookup).
      if (node.child(0)->op() == RaOp::kScan &&
          HasEqualityConjunct(node.predicate())) {
        out.rows = 1;
        out.processed = 1;
        return out;
      }
      out.rows = in.rows * kSelectSelectivity;
      out.processed = in.processed + out.rows;
      return out;
    }
    case RaOp::kProject: {
      NodeEstimate in = EstimateNode(*node.child(0));
      NodeEstimate out = in;
      // Width scales with the projected column count vs an assumed
      // 6-column base row.
      out.row_bytes =
          std::max(8.0, in.row_bytes *
                            static_cast<double>(node.project_items().size()) /
                            6.0);
      out.processed = in.processed + in.rows;
      return out;
    }
    case RaOp::kJoin:
    case RaOp::kLeftOuterJoin: {
      NodeEstimate left = EstimateNode(*node.child(0));
      NodeEstimate right = EstimateNode(*node.child(1));
      NodeEstimate out;
      // Equi-join containment: one match per row of the larger side.
      out.rows = std::max(left.rows, right.rows);
      if (node.op() == RaOp::kLeftOuterJoin) {
        out.rows = std::max(out.rows, left.rows);
      }
      out.row_bytes = left.row_bytes + right.row_bytes;
      out.processed = left.processed + right.processed + out.rows;
      return out;
    }
    case RaOp::kOuterApply: {
      NodeEstimate left = EstimateNode(*node.child(0));
      NodeEstimate right = EstimateNode(*node.child(1));
      NodeEstimate out;
      out.rows = left.rows;  // scalar apply: one row per outer row
      out.row_bytes = left.row_bytes + right.row_bytes;
      // The apply re-evaluates the (index-assisted) inner per outer row.
      out.processed = left.processed + left.rows * std::max(1.0, right.processed /
                                                                     std::max(right.rows, 1.0));
      return out;
    }
    case RaOp::kGroupBy: {
      NodeEstimate in = EstimateNode(*node.child(0));
      NodeEstimate out = in;
      out.rows = node.group_keys().empty() ? 1.0 : std::sqrt(in.rows);
      out.row_bytes = 8.0 * static_cast<double>(node.group_keys().size() +
                                                node.aggregates().size());
      out.processed = in.processed + in.rows;
      return out;
    }
    case RaOp::kSort: {
      NodeEstimate in = EstimateNode(*node.child(0));
      in.processed += in.rows;
      return in;
    }
    case RaOp::kDedup: {
      NodeEstimate in = EstimateNode(*node.child(0));
      in.rows *= 0.5;
      in.processed += in.rows;
      return in;
    }
    case RaOp::kLimit: {
      NodeEstimate in = EstimateNode(*node.child(0));
      in.rows = std::min(in.rows, static_cast<double>(node.limit()));
      return in;
    }
  }
  return NodeEstimate{};
}

CostEstimate CostEstimator::EstimateQuery(const RaNodePtr& plan) const {
  const NodeEstimate est = EstimateNode(*plan);
  CostEstimate out;
  out.work = {.round_trips = 1,
              .statements = 1,
              .bytes = est.rows * est.row_bytes,
              .server_rows = est.processed};
  out.cardinality = est.rows;
  return out;
}

JoinPlanChoice CostEstimator::ChooseJoinPlan(const RaNodePtr& plan) const {
  JoinPlanChoice out;
  if (plan == nullptr || stats_.table_indexes.empty()) return out;

  // Depth-first search for the first join whose inner side is a base
  // scan carrying an index over exactly its join-key column set.
  const RaNode* site = nullptr;
  const std::vector<std::string>* index_cols = nullptr;
  std::string table;
  std::function<void(const RaNode&)> visit = [&](const RaNode& n) {
    if (site != nullptr) return;
    if ((n.op() == RaOp::kJoin || n.op() == RaOp::kLeftOuterJoin) &&
        n.child(1)->op() == RaOp::kScan) {
      auto it =
          stats_.table_indexes.find(AsciiToLower(n.child(1)->table_name()));
      std::vector<std::string> keys;
      if (it != stats_.table_indexes.end() &&
          CollectRightKeyColumns(n.predicate(), n.child(1)->alias(),
                                 &keys)) {
        for (const std::vector<std::string>& cols : it->second) {
          bool same_set = !cols.empty() && cols.size() == keys.size();
          for (const std::string& c : cols) {
            same_set = same_set &&
                       std::find(keys.begin(), keys.end(), c) != keys.end();
          }
          if (same_set) {
            site = &n;
            index_cols = &cols;
            table = n.child(1)->table_name();
            return;
          }
        }
      }
    }
    for (const RaNodePtr& child : n.children()) visit(*child);
  };
  visit(*plan);
  if (site == nullptr) return out;

  NodeEstimate left = EstimateNode(*site->child(0));
  NodeEstimate right = EstimateNode(*site->child(1));
  CostEstimate scan = EstimateQuery(plan);
  // The index alternative replaces the inner side's full materialization
  // with one probe per outer row; everything above the join is shared.
  double delta = right.processed - left.rows;
  net::Work index = scan.work;
  index.server_rows = std::max(0.0, scan.work.server_rows - delta);
  out.applicable = true;
  out.scan_ms = model_.Ms(scan.work);
  out.index_ms = model_.Ms(index);
  out.detail = table + "(";
  for (size_t i = 0; i < index_cols->size(); ++i) {
    if (i > 0) out.detail += ",";
    out.detail += (*index_cols)[i];
  }
  out.detail += ")";
  return out;
}

}  // namespace eqsql::core
