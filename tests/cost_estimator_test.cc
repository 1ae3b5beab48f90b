#include <gtest/gtest.h>

#include "core/alternative_selector.h"
#include "core/cost_estimator.h"
#include "frontend/parser.h"
#include "sql/parser.h"

namespace eqsql::core {
namespace {

CostEstimator MakeEstimator(int64_t rows) {
  TableStats stats;
  stats.table_rows = {{"t", rows},      {"applicants", rows},
                      {"details", rows}, {"role", rows / 40 + 1}};
  return CostEstimator(stats, net::CostModel());
}

ra::RaNodePtr Q(const char* sql) { return *sql::ParseSql(sql); }

TEST(CostEstimatorTest, SelectionShrinksCardinalityAndBytes) {
  CostEstimator est = MakeEstimator(30000);
  CostEstimate scan = est.EstimateQuery(Q("SELECT * FROM t"));
  CostEstimate filtered =
      est.EstimateQuery(Q("SELECT t.a AS a FROM t WHERE t.v > 10"));
  EXPECT_LT(filtered.cardinality, scan.cardinality);
  EXPECT_LT(filtered.work.bytes, scan.work.bytes);
  EXPECT_LT(est.model().Ms(filtered.work), est.model().Ms(scan.work));
}

TEST(CostEstimatorTest, PointPredicateEstimatesOneRow) {
  CostEstimator est = MakeEstimator(100000);
  CostEstimate lookup =
      est.EstimateQuery(Q("SELECT * FROM t WHERE t.id = 7"));
  EXPECT_DOUBLE_EQ(lookup.cardinality, 1.0);
  EXPECT_LT(lookup.work.server_rows, 10.0);
}

TEST(CostEstimatorTest, ScalarAggregateShipsOneRow) {
  CostEstimator est = MakeEstimator(50000);
  CostEstimate agg = est.EstimateQuery(Q("SELECT MAX(t.v) AS m FROM t"));
  EXPECT_DOUBLE_EQ(agg.cardinality, 1.0);
  // Still processes the whole table server-side.
  EXPECT_GE(agg.work.server_rows, 50000.0);
}

// The App. C decision at the selector: the interpreted original of a
// loop with four per-row probes pays 1 + 1000 * 4 round trips and is
// priced above the one apply query that replaces it.
TEST(CostEstimatorTest, LoopPaysPerRowRoundTrips) {
  CostEstimator est = MakeEstimator(1000);
  Result<frontend::Program> program = frontend::ParseProgram(R"(
    func report() {
      rs = executeQuery("SELECT * FROM applicants AS a");
      for (a : rs) {
        p1 = scalar(executeQuery("SELECT d.phone AS p FROM details AS d WHERE d.aid = ?", a.id));
        p2 = scalar(executeQuery("SELECT d.phone AS p FROM details AS d WHERE d.aid = ?", a.id));
        p3 = scalar(executeQuery("SELECT d.phone AS p FROM details AS d WHERE d.aid = ?", a.id));
        p4 = scalar(executeQuery("SELECT d.phone AS p FROM details AS d WHERE d.aid = ?", a.id));
        print(tuple(p1, p2, p3, p4));
      }
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const AlternativeSelector selector(est.stats(), est.model());
  const ExtractionPlan plan = selector.Select(
      nullptr, program->Find("report"),
      [](const std::string& sql) { return sql::ParseSql(sql); }, 0);
  const PlanAlternative* loop = plan.Find(AlternativeKind::kInterpreted);
  ASSERT_NE(loop, nullptr);
  EXPECT_NE(loop->detail.find("4001 round trip(s)"), std::string::npos)
      << loop->detail;
  CostEstimate apply = est.EstimateQuery(
      Q("SELECT * FROM applicants AS a OUTER APPLY (SELECT d.phone AS p "
        "FROM details AS d WHERE d.aid = a.id)"));
  EXPECT_EQ(apply.work.round_trips, 1);
  EXPECT_LT(est.model().Ms(apply.work), loop->est_cost_ms);
}

// The join plan applies exactly when Executor::JoinLevel probes an
// index: one over the set of the right scan's key columns, whatever the
// left side's columns are named.
TEST(CostEstimatorTest, JoinPlanFollowsTheRightKeyColumnSet) {
  TableStats stats;
  stats.table_rows = {{"wuser", 500}, {"role", 12}};
  stats.table_indexes = {{"role", {{"id"}}}};
  CostEstimator est(stats, net::CostModel());
  JoinPlanChoice keyed = est.ChooseJoinPlan(
      Q("SELECT * FROM wuser AS u JOIN role AS r ON (u.role_id = r.id)"));
  EXPECT_TRUE(keyed.applicable);
  EXPECT_EQ(keyed.detail, "role(id)");
  EXPECT_GT(keyed.index_ms, 0);
  EXPECT_GT(keyed.scan_ms, 0);
  for (const char* hash_join :
       {"SELECT * FROM wuser AS u JOIN role AS r ON (u.id = r.name)",
        "SELECT * FROM wuser AS u JOIN role AS r ON (u.role_id = r.id AND "
        "u.login = r.name)",
        "SELECT * FROM wuser AS u JOIN role AS r ON (u.role_id = r.id + 0)"}) {
    EXPECT_FALSE(est.ChooseJoinPlan(Q(hash_join)).applicable) << hash_join;
  }
}

TEST(CostEstimatorTest, UnknownTableUsesDefaults) {
  CostEstimator est(TableStats{}, net::CostModel());
  CostEstimate scan = est.EstimateQuery(Q("SELECT * FROM mystery"));
  EXPECT_GT(scan.cardinality, 0);
  EXPECT_GT(scan.work.bytes, 0);
}

}  // namespace
}  // namespace eqsql::core
