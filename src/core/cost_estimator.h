#ifndef EQSQL_CORE_COST_ESTIMATOR_H_
#define EQSQL_CORE_COST_ESTIMATOR_H_

#include <map>
#include <string>
#include <vector>

#include "net/cost_model.h"
#include "ra/ra_node.h"

namespace eqsql::core {

/// Table statistics for cost-based decisions (paper Appendix C: "the
/// decision to replace should be taken in a cost based manner").
struct TableStats {
  /// Lowercase table name → row count.
  std::map<std::string, int64_t> table_rows;
  /// Average bytes per row shipped for a table (default assumed when
  /// absent).
  std::map<std::string, int64_t> row_bytes;
  /// Lowercase table name → column lists of its ready secondary
  /// indexes (storage::Table::IndexedColumnLists). Empty when the
  /// database has no indexes; the planner then never prices an
  /// index-nested-loop alternative.
  std::map<std::string, std::vector<std::vector<std::string>>> table_indexes;
};

/// Estimated profile of one query: the work its charge would bill
/// (priced by net::CostModel::Ms, the formula net::Connection charges
/// with) and the rows the client receives.
struct CostEstimate {
  net::Work work;
  double cardinality = 0;
};

/// The physical plan of the first indexable equi-join in a plan. The
/// executor runs an index nested loop whenever an index applies, so
/// that is the plan; both alternatives are priced under the same
/// deterministic cost model so EXPLAIN EXTRACTION can show the hash
/// join's estimate next to the index's.
struct JoinPlanChoice {
  /// True when the plan contains an equi-join whose inner side is a
  /// base scan with a secondary index over exactly its key columns.
  bool applicable = false;
  double index_ms = 0;  // plan cost with the inner scan replaced by probes
  double scan_ms = 0;   // plan cost with the parallel full scan + hash build
  /// Human-readable site, e.g. "t1(a,b)".
  std::string detail;
};

/// A Volcano-flavoured cost estimator over relational-algebra plans:
/// cardinalities propagate bottom-up with textbook selectivity guesses
/// (selection 1/3, equi-join via containment on the larger side,
/// group-by sqrt, point lookup 1), and the resulting profile is priced
/// with the same deterministic cost model the simulated connection
/// charges. The estimator powers the cost-based variant of the Sec. 5.3
/// replace-or-not decision (paper App. C).
class CostEstimator {
 public:
  CostEstimator(TableStats stats, net::CostModel model)
      : stats_(std::move(stats)), model_(model) {}

  /// Profile of executing `plan` once as a single query.
  CostEstimate EstimateQuery(const ra::RaNodePtr& plan) const;

  /// Prices the index-nested-loop alternative against the full-scan
  /// hash join for the first join in `plan` whose inner side is a base
  /// scan with a secondary index over exactly the join's right key
  /// columns (Executor::ExecJoin's index nested-loop rule, with keys
  /// classified structurally by the right scan's alias). Returns
  /// applicable=false when no such join exists.
  JoinPlanChoice ChooseJoinPlan(const ra::RaNodePtr& plan) const;

  const net::CostModel& model() const { return model_; }
  const TableStats& stats() const { return stats_; }

  struct NodeEstimate {
    double rows = 0;        // output cardinality
    double row_bytes = 0;   // output row width
    double processed = 0;   // cumulative rows processed in the subtree
  };

  /// Per-operator estimate for one plan node (subtree-cumulative
  /// `processed`). EXPLAIN ANALYZE uses this to put the estimator's
  /// numbers next to each executed operator's actuals.
  NodeEstimate EstimateNode(const ra::RaNode& node) const;

  /// A full scan of `table` (any case): its row count and row width
  /// from the statistics, defaulted when the table has none.
  NodeEstimate EstimateScan(const std::string& table) const;

 private:
  TableStats stats_;
  net::CostModel model_;
};

}  // namespace eqsql::core

#endif  // EQSQL_CORE_COST_ESTIMATOR_H_
