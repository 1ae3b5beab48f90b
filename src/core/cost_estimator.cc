#include "core/cost_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/strings.h"

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

/// Bare names of columns appearing in column-to-column equality
/// conjuncts — the candidates for equi-join key bindings.
void CollectEqColumnRefs(const ra::ScalarExprPtr& pred,
                         std::vector<std::string>* cols) {
  if (pred == nullptr) return;
  if (pred->op() == ScalarOp::kAnd) {
    CollectEqColumnRefs(pred->child(0), cols);
    CollectEqColumnRefs(pred->child(1), cols);
    return;
  }
  if (pred->op() != ScalarOp::kEq) return;
  const ra::ScalarExprPtr& a = pred->child(0);
  const ra::ScalarExprPtr& b = pred->child(1);
  if (a->op() == ScalarOp::kColumnRef && b->op() == ScalarOp::kColumnRef) {
    cols->push_back(BareName(a->column_name()));
    cols->push_back(BareName(b->column_name()));
  }
}

}  // namespace

double CostEstimate::Milliseconds(const net::CostModel& model) const {
  return static_cast<double>(round_trips) * model.round_trip_latency_ms +
         static_cast<double>(round_trips) * model.query_overhead_ms +
         model.TransferMs(static_cast<size_t>(bytes)) +
         model.ServerMs(static_cast<size_t>(rows_processed));
}

CostEstimator::NodeEstimate CostEstimator::Walk(const RaNode& node) const {
  switch (node.op()) {
    case RaOp::kScan: {
      NodeEstimate out;
      auto rows_it = stats_.table_rows.find(AsciiToLower(node.table_name()));
      out.rows = rows_it != stats_.table_rows.end()
                     ? static_cast<double>(rows_it->second)
                     : kDefaultTableRows;
      auto bytes_it = stats_.row_bytes.find(AsciiToLower(node.table_name()));
      out.row_bytes = bytes_it != stats_.row_bytes.end()
                          ? static_cast<double>(bytes_it->second)
                          : kDefaultRowBytes;
      out.processed = out.rows;
      return out;
    }
    case RaOp::kSelect: {
      NodeEstimate in = Walk(*node.child(0));
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
      NodeEstimate in = Walk(*node.child(0));
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
      NodeEstimate left = Walk(*node.child(0));
      NodeEstimate right = Walk(*node.child(1));
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
      NodeEstimate left = Walk(*node.child(0));
      NodeEstimate right = Walk(*node.child(1));
      NodeEstimate out;
      out.rows = left.rows;  // scalar apply: one row per outer row
      out.row_bytes = left.row_bytes + right.row_bytes;
      // The apply re-evaluates the (index-assisted) inner per outer row.
      out.processed = left.processed + left.rows * std::max(1.0, right.processed /
                                                                     std::max(right.rows, 1.0));
      return out;
    }
    case RaOp::kGroupBy: {
      NodeEstimate in = Walk(*node.child(0));
      NodeEstimate out = in;
      out.rows = node.group_keys().empty() ? 1.0 : std::sqrt(in.rows);
      out.row_bytes = 8.0 * static_cast<double>(node.group_keys().size() +
                                                node.aggregates().size());
      out.processed = in.processed + in.rows;
      return out;
    }
    case RaOp::kSort: {
      NodeEstimate in = Walk(*node.child(0));
      in.processed += in.rows;
      return in;
    }
    case RaOp::kDedup: {
      NodeEstimate in = Walk(*node.child(0));
      in.rows *= 0.5;
      in.processed += in.rows;
      return in;
    }
    case RaOp::kLimit: {
      NodeEstimate in = Walk(*node.child(0));
      in.rows = std::min(in.rows, static_cast<double>(node.limit()));
      return in;
    }
  }
  return NodeEstimate{};
}

CostEstimate CostEstimator::EstimateQuery(const RaNodePtr& plan) const {
  NodeEstimate est = Walk(*plan);
  CostEstimate out;
  out.cardinality = est.rows;
  out.rows_processed = est.processed;
  out.round_trips = 1;
  out.bytes = est.rows * est.row_bytes;
  return out;
}

CostEstimate CostEstimator::EstimateLoop(const RaNodePtr& outer,
                                         int queries_per_row) const {
  NodeEstimate est = Walk(*outer);
  CostEstimate out;
  out.cardinality = est.rows * (1.0 + queries_per_row);
  out.rows_processed = est.processed + est.rows * queries_per_row;
  out.round_trips = 1 + static_cast<int64_t>(est.rows) * queries_per_row;
  // The outer rows plus one (typically narrow) row per inner query.
  out.bytes = est.rows * est.row_bytes +
              est.rows * queries_per_row * kDefaultRowBytes;
  return out;
}

JoinPlanChoice CostEstimator::ChooseJoinPlan(const RaNodePtr& plan) const {
  JoinPlanChoice out;
  if (plan == nullptr || stats_.table_indexes.empty()) return out;

  // Depth-first search for the first join whose inner side is a base
  // scan carrying an index fully covered by equi-join columns.
  const RaNode* site = nullptr;
  const std::vector<std::string>* index_cols = nullptr;
  std::string table;
  std::function<void(const RaNode&)> visit = [&](const RaNode& n) {
    if (site != nullptr) return;
    if ((n.op() == RaOp::kJoin || n.op() == RaOp::kLeftOuterJoin) &&
        n.child(1)->op() == RaOp::kScan) {
      auto it =
          stats_.table_indexes.find(AsciiToLower(n.child(1)->table_name()));
      if (it != stats_.table_indexes.end()) {
        std::vector<std::string> eq_cols;
        CollectEqColumnRefs(n.predicate(), &eq_cols);
        for (const std::vector<std::string>& cols : it->second) {
          bool covered = !cols.empty();
          for (const std::string& c : cols) {
            covered = covered && std::find(eq_cols.begin(), eq_cols.end(),
                                           c) != eq_cols.end();
          }
          if (covered) {
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

  NodeEstimate left = Walk(*site->child(0));
  NodeEstimate right = Walk(*site->child(1));
  CostEstimate scan = EstimateQuery(plan);
  // The index alternative replaces the inner side's full materialization
  // with one probe per outer row; everything above the join is shared.
  double delta = right.processed - left.rows;
  CostEstimate index = scan;
  index.rows_processed = std::max(0.0, scan.rows_processed - delta);
  out.applicable = true;
  out.scan_ms = scan.Milliseconds(model_);
  out.index_ms = index.Milliseconds(model_);
  out.index_wins = out.index_ms < out.scan_ms;
  out.detail = table + "(";
  for (size_t i = 0; i < index_cols->size(); ++i) {
    if (i > 0) out.detail += ",";
    out.detail += (*index_cols)[i];
  }
  out.detail += ")";
  return out;
}

bool CostEstimator::RewriteWins(const RaNodePtr& plan, const RaNodePtr& outer,
                                int queries_per_row) const {
  double rewritten = EstimateQuery(plan).Milliseconds(model_);
  CostEstimate loop = EstimateLoop(outer, queries_per_row);
  // The imperative loop also pays client work per iterated row.
  double original = loop.Milliseconds(model_) +
                    model_.client_cost_per_op_ms * loop.cardinality * 4.0;
  return rewritten < original;
}

}  // namespace eqsql::core
