#ifndef EQSQL_RA_RA_NODE_H_
#define EQSQL_RA_RA_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ra/scalar_expr.h"

namespace eqsql::ra {

/// Relational operators (extended multiset relational algebra, paper
/// Sec. 3.2.1). Project is defined to preserve input order; Sort (τ)
/// imposes an order; Dedup (δ) eliminates duplicates.
enum class RaOp {
  kScan,        // base table, optional alias
  kSelect,      // σ_pred
  kProject,     // π_items (no duplicate elimination, order-preserving)
  kJoin,        // ⋈_pred (inner)
  kLeftOuterJoin,
  kOuterApply,  // correlated: left OApply right(t) (paper App. B, rule T7)
  kGroupBy,     // γ: group keys + aggregates (keys may be empty)
  kSort,        // τ_keys
  kDedup,       // δ
  kLimit,       // first n rows
};

std::string_view RaOpToString(RaOp op);

/// Aggregate functions supported by γ. kCountStar ignores its argument.
enum class AggFunc { kSum, kMin, kMax, kCount, kCountStar, kAvg };

std::string_view AggFuncToString(AggFunc func);

/// One output of a Project: expression + output column name.
struct ProjectItem {
  ScalarExprPtr expr;
  std::string name;
};

/// One aggregate of a GroupBy: SUM(arg) AS name etc.
struct AggregateSpec {
  AggFunc func = AggFunc::kCount;
  ScalarExprPtr arg;  // null for kCountStar
  std::string name;
};

/// One sort key: expression + direction.
struct SortKey {
  ScalarExprPtr expr;
  bool ascending = true;
};

/// An immutable relational-algebra tree node. Construct via the factory
/// functions; all fields are fixed after construction so nodes can be
/// shared across the ee-DAG and the optimizer.
class RaNode {
 public:
  RaOp op() const { return op_; }
  const std::vector<RaNodePtr>& children() const { return children_; }
  const RaNodePtr& child(size_t i) const { return children_[i]; }
  const RaNodePtr& left() const { return children_[0]; }
  const RaNodePtr& right() const { return children_[1]; }

  /// kScan: target table.
  const std::string& table_name() const { return table_name_; }
  /// kScan: alias used to qualify emitted columns (defaults to table name).
  const std::string& alias() const { return alias_; }
  /// kSelect / kJoin / kLeftOuterJoin / kOuterApply(join condition):
  const ScalarExprPtr& predicate() const { return predicate_; }
  /// kProject:
  const std::vector<ProjectItem>& project_items() const { return projects_; }
  /// kGroupBy:
  const std::vector<ScalarExprPtr>& group_keys() const { return group_keys_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }
  /// kSort:
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }
  /// kLimit:
  int64_t limit() const { return limit_; }

  /// Structural equality / hash (used by tests and query dedup).
  bool Equals(const RaNode& other) const;
  size_t Hash() const;

  /// Algebra-style debug rendering, e.g.
  /// "Project[score](Select[(> (col x) (lit 1))](Scan[board]))".
  std::string ToString() const;

  // --- factories ---------------------------------------------------------
  static RaNodePtr Scan(std::string table, std::string alias = "");
  static RaNodePtr Select(RaNodePtr child, ScalarExprPtr pred);
  static RaNodePtr Project(RaNodePtr child, std::vector<ProjectItem> items);
  static RaNodePtr Join(RaNodePtr left, RaNodePtr right, ScalarExprPtr pred);
  static RaNodePtr LeftOuterJoin(RaNodePtr left, RaNodePtr right,
                                 ScalarExprPtr pred);
  /// `right` may contain correlated column refs into `left`'s columns.
  static RaNodePtr OuterApply(RaNodePtr left, RaNodePtr right);
  static RaNodePtr GroupBy(RaNodePtr child, std::vector<ScalarExprPtr> keys,
                           std::vector<AggregateSpec> aggs);
  static RaNodePtr Sort(RaNodePtr child, std::vector<SortKey> keys);
  static RaNodePtr Dedup(RaNodePtr child);
  static RaNodePtr Limit(RaNodePtr child, int64_t n);

 private:
  RaNode() = default;

  RaOp op_ = RaOp::kScan;
  std::vector<RaNodePtr> children_;
  std::string table_name_;
  std::string alias_;
  ScalarExprPtr predicate_;
  std::vector<ProjectItem> projects_;
  std::vector<ScalarExprPtr> group_keys_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<SortKey> sort_keys_;
  int64_t limit_ = -1;
};

/// Names of base tables scanned anywhere in `node`, including inside
/// EXISTS subqueries in any of its expressions (predicates, project
/// items, group keys, aggregate arguments, sort keys). Sorted, distinct.
std::vector<std::string> CollectScannedTables(const RaNodePtr& node);

}  // namespace eqsql::ra

#endif  // EQSQL_RA_RA_NODE_H_
