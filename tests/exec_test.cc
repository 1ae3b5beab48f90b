#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/scalar_ops.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "sql/parser.h"

namespace eqsql::exec {
namespace {

using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;
using ra::AggFunc;
using ra::RaNode;
using ra::ScalarExpr;
using ra::ScalarOp;

ra::ScalarExprPtr Col(const std::string& n) { return ScalarExpr::Column(n); }
ra::ScalarExprPtr Lit(int64_t v) {
  return ScalarExpr::Literal(Value::Int(v));
}
ra::ScalarExprPtr Str(const std::string& s) {
  return ScalarExpr::Literal(Value::String(s));
}

/// Builds the standard fixture: board(id, rnd_id, p1..p4), role(id, name),
/// wuser(id, role_id, login).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto board = *db_.CreateTable(
        "board", Schema({{"id", DataType::kInt64},
                         {"rnd_id", DataType::kInt64},
                         {"p1", DataType::kInt64},
                         {"p2", DataType::kInt64},
                         {"p3", DataType::kInt64},
                         {"p4", DataType::kInt64}}));
    int64_t scores[][6] = {{1, 1, 10, 40, 30, 20},
                           {2, 1, 50, 5, 5, 5},
                           {3, 2, 99, 99, 99, 99},
                           {4, 1, 7, 8, 9, 11}};
    for (auto& s : scores) {
      ASSERT_TRUE(board
                      ->Insert({Value::Int(s[0]), Value::Int(s[1]),
                                Value::Int(s[2]), Value::Int(s[3]),
                                Value::Int(s[4]), Value::Int(s[5])})
                      .ok());
    }
    auto role = *db_.CreateTable("role", Schema({{"id", DataType::kInt64},
                                                 {"name", DataType::kString}}));
    ASSERT_TRUE(role->Insert({Value::Int(1), Value::String("admin")}).ok());
    ASSERT_TRUE(role->Insert({Value::Int(2), Value::String("user")}).ok());

    auto wuser = *db_.CreateTable(
        "wuser", Schema({{"id", DataType::kInt64},
                         {"role_id", DataType::kInt64},
                         {"login", DataType::kString}}));
    ASSERT_TRUE(
        wuser->Insert({Value::Int(10), Value::Int(1), Value::String("ann")})
            .ok());
    ASSERT_TRUE(
        wuser->Insert({Value::Int(11), Value::Int(2), Value::String("bob")})
            .ok());
    ASSERT_TRUE(
        wuser->Insert({Value::Int(12), Value::Int(3), Value::String("eve")})
            .ok());
  }

  storage::Database db_;
};

TEST_F(ExecutorTest, ScanProducesQualifiedColumns) {
  Executor ex(&db_);
  auto rs = ex.Execute(RaNode::Scan("board", "b"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->schema->column(0).name, "b.id");
  EXPECT_TRUE(rs->schema->IndexOf("rnd_id").has_value());
}

TEST_F(ExecutorTest, SelectFilters) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"), Lit(1)));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectWithParameter) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                         ScalarExpr::Parameter(0)));
  auto rs = ex.Execute(q, {Value::Int(2)});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  Executor ex(&db_);
  auto score = ScalarExpr::Nary(
      ScalarOp::kGreatest, {Col("b.p1"), Col("b.p2"), Col("b.p3"),
                            Col("b.p4")});
  auto q = RaNode::Project(RaNode::Scan("board", "b"), {{score, "score"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 40);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 50);
}

TEST_F(ExecutorTest, ProjectPreservesOrder) {
  Executor ex(&db_);
  auto q = RaNode::Project(RaNode::Scan("board", "b"), {{Col("b.id"), "id"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  std::vector<int64_t> ids;
  for (auto& r : rs->rows) ids.push_back(r[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(ExecutorTest, HashJoinEqui) {
  Executor ex(&db_);
  auto q = RaNode::Join(
      RaNode::Scan("wuser", "u"), RaNode::Scan("role", "r"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // eve has no matching role
  EXPECT_EQ(rs->schema->size(), 5u);
}

TEST_F(ExecutorTest, LeftOuterJoinPadsNulls) {
  Executor ex(&db_);
  auto q = RaNode::LeftOuterJoin(
      RaNode::Scan("wuser", "u"), RaNode::Scan("role", "r"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  // eve row: role columns are NULL
  EXPECT_TRUE(rs->rows[2][3].is_null());
  EXPECT_TRUE(rs->rows[2][4].is_null());
}

TEST_F(ExecutorTest, NestedLoopJoinNonEqui) {
  Executor ex(&db_);
  auto q = RaNode::Join(
      RaNode::Scan("role", "a"), RaNode::Scan("role", "b"),
      ScalarExpr::Binary(ScalarOp::kLt, Col("a.id"), Col("b.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);  // (1,2)
}

TEST_F(ExecutorTest, ScalarAggregateMax) {
  Executor ex(&db_);
  auto score = ScalarExpr::Nary(
      ScalarOp::kGreatest,
      {Col("b.p1"), Col("b.p2"), Col("b.p3"), Col("b.p4")});
  // SELECT MAX(GREATEST(p1,p2,p3,p4)) FROM board WHERE rnd_id = 1
  auto q = RaNode::GroupBy(
      RaNode::Project(
          RaNode::Select(RaNode::Scan("board", "b"),
                         ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                                            Lit(1))),
          {{score, "score"}}),
      {}, {{AggFunc::kMax, Col("score"), "mx"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 50);
}

TEST_F(ExecutorTest, ScalarAggregateOverEmptyInput) {
  Executor ex(&db_);
  auto q = RaNode::GroupBy(
      RaNode::Select(RaNode::Scan("board", "b"),
                     ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                                        Lit(99))),
      {},
      {{AggFunc::kMax, Col("b.p1"), "mx"},
       {AggFunc::kCountStar, nullptr, "cnt"},
       {AggFunc::kSum, Col("b.p1"), "sm"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_TRUE(rs->rows[0][0].is_null());   // MAX of empty
  EXPECT_EQ(rs->rows[0][1].AsInt(), 0);    // COUNT(*) of empty
  EXPECT_TRUE(rs->rows[0][2].is_null());   // SUM of empty
}

TEST_F(ExecutorTest, GroupByKeys) {
  Executor ex(&db_);
  auto q = RaNode::GroupBy(RaNode::Scan("board", "b"), {Col("b.rnd_id")},
                           {{AggFunc::kMax, Col("b.p1"), "mx"},
                            {AggFunc::kCountStar, nullptr, "cnt"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  // First-seen group order: rnd 1 then rnd 2.
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs->rows[0][1].AsInt(), 50);
  EXPECT_EQ(rs->rows[0][2].AsInt(), 3);
  EXPECT_EQ(rs->rows[1][1].AsInt(), 99);
}

TEST_F(ExecutorTest, AggregatesSkipNulls) {
  auto t = *db_.CreateTable("n", Schema({{"v", DataType::kInt64}}));
  ASSERT_TRUE(t->Insert({Value::Int(3)}).ok());
  ASSERT_TRUE(t->Insert({Value::Null()}).ok());
  ASSERT_TRUE(t->Insert({Value::Int(5)}).ok());
  Executor ex(&db_);
  auto q = RaNode::GroupBy(RaNode::Scan("n"), {},
                           {{AggFunc::kCount, Col("n.v"), "c"},
                            {AggFunc::kSum, Col("n.v"), "s"},
                            {AggFunc::kAvg, Col("n.v"), "a"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);
  EXPECT_EQ(rs->rows[0][1].AsInt(), 8);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].AsDouble(), 4.0);
}

TEST_F(ExecutorTest, SortAscDescStable) {
  Executor ex(&db_);
  auto q = RaNode::Sort(RaNode::Scan("board", "b"),
                        {{Col("b.rnd_id"), true}, {Col("b.p1"), false}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  std::vector<int64_t> ids;
  for (auto& r : rs->rows) ids.push_back(r[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 1, 4, 3}));
}

TEST_F(ExecutorTest, DedupKeepsFirstOccurrence) {
  Executor ex(&db_);
  auto q = RaNode::Dedup(
      RaNode::Project(RaNode::Scan("board", "b"), {{Col("b.rnd_id"), "r"}}));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 2);
}

TEST_F(ExecutorTest, Limit) {
  Executor ex(&db_);
  auto q = RaNode::Limit(RaNode::Scan("board", "b"), 2);
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST_F(ExecutorTest, OuterApplyCorrelated) {
  Executor ex(&db_);
  // wuser OUTER APPLY (SELECT name FROM role WHERE role.id = u.role_id)
  auto inner = RaNode::Project(
      RaNode::Select(
          RaNode::Scan("role", "r"),
          ScalarExpr::Binary(ScalarOp::kEq, Col("r.id"), Col("u.role_id"))),
      {{Col("r.name"), "role_name"}});
  auto q = RaNode::OuterApply(RaNode::Scan("wuser", "u"), inner);
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(rs->rows[0][3].AsString(), "admin");
  EXPECT_EQ(rs->rows[1][3].AsString(), "user");
  EXPECT_TRUE(rs->rows[2][3].is_null());  // eve: no role -> NULL padded
}

TEST_F(ExecutorTest, ExistsPredicate) {
  Executor ex(&db_);
  // SELECT * FROM role r WHERE EXISTS (SELECT * FROM wuser u WHERE
  // u.role_id = r.id)
  auto sub = RaNode::Select(
      RaNode::Scan("wuser", "u"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto q = RaNode::Select(RaNode::Scan("role", "r"),
                          ScalarExpr::Exists(sub, /*negated=*/false));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);

  auto qn = RaNode::Select(RaNode::Scan("role", "r"),
                           ScalarExpr::Exists(sub, /*negated=*/true));
  auto rsn = ex.Execute(qn);
  ASSERT_TRUE(rsn.ok());
  EXPECT_EQ(rsn->rows.size(), 0u);
}

TEST_F(ExecutorTest, UnknownColumnErrors) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.nope"), Lit(1)));
  auto rs = ex.Execute(q);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownTableErrors) {
  Executor ex(&db_);
  auto rs = ex.Execute(RaNode::Scan("missing"));
  ASSERT_FALSE(rs.ok());
}

TEST_F(ExecutorTest, CaseExpression) {
  Executor ex(&db_);
  auto q = RaNode::Project(
      RaNode::Scan("role", "r"),
      {{ScalarExpr::Case(
            ScalarExpr::Binary(ScalarOp::kEq, Col("r.id"), Lit(1)),
            Str("first"), Str("other")),
        "tag"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsString(), "first");
  EXPECT_EQ(rs->rows[1][0].AsString(), "other");
}

// --- scalar op unit tests -------------------------------------------------

TEST(ScalarOpsTest, ArithmeticIntAndDouble) {
  EXPECT_EQ(EvalArithmetic(ScalarOp::kAdd, Value::Int(2), Value::Int(3))
                ->AsInt(),
            5);
  EXPECT_DOUBLE_EQ(
      EvalArithmetic(ScalarOp::kMul, Value::Double(1.5), Value::Int(2))
          ->AsDouble(),
      3.0);
  EXPECT_EQ(EvalArithmetic(ScalarOp::kDiv, Value::Int(7), Value::Int(2))
                ->AsInt(),
            3);
  EXPECT_EQ(EvalArithmetic(ScalarOp::kMod, Value::Int(7), Value::Int(3))
                ->AsInt(),
            1);
}

TEST(ScalarOpsTest, NullPropagates) {
  EXPECT_TRUE(
      EvalArithmetic(ScalarOp::kAdd, Value::Null(), Value::Int(1))->is_null());
  EXPECT_TRUE(
      EvalComparison(ScalarOp::kLt, Value::Int(1), Value::Null())->is_null());
  EXPECT_TRUE(EvalConcat(Value::Null(), Value::String("x"))->is_null());
}

TEST(ScalarOpsTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(
      EvalArithmetic(ScalarOp::kDiv, Value::Int(1), Value::Int(0))->is_null());
  EXPECT_TRUE(EvalArithmetic(ScalarOp::kDiv, Value::Double(1), Value::Double(0))
                  ->is_null());
}

TEST(ScalarOpsTest, StringPlusIsConcat) {
  auto v = EvalArithmetic(ScalarOp::kAdd, Value::String("a"), Value::Int(1));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a1");
}

TEST(ScalarOpsTest, ComparisonTypeErrors) {
  EXPECT_FALSE(
      EvalComparison(ScalarOp::kLt, Value::Int(1), Value::String("a")).ok());
}

TEST(ScalarOpsTest, NonBooleanLogicOperandIsRuntimeError) {
  const Value one = Value::Int(1), t = Value::Bool(true),
              f = Value::Bool(false), n = Value::Null();
  // A deciding operand still wins, then NULL: these answer as before.
  EXPECT_FALSE(EvalAnd(one, f)->AsBool());  // 1 AND FALSE = FALSE
  EXPECT_TRUE(EvalAnd(n, one)->is_null());  // NULL AND 1 = NULL
  EXPECT_TRUE(EvalOr(t, one)->AsBool());    // TRUE OR 1 = TRUE
  EXPECT_TRUE(EvalOr(one, n)->is_null());   // 1 OR NULL = NULL
  // Anything else non-boolean is a runtime error, not a crash.
  for (const Result<Value>& r :
       {EvalNot(one), EvalAnd(one, t), EvalAnd(t, Value::String("x")),
        EvalOr(one, f), EvalOr(f, one)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  }
  EXPECT_EQ(EvalNot(one).status().message(), "NOT of non-boolean value 1");
}

TEST_F(ExecutorTest, NonBooleanLogicOperandsFailAlikeInBothEngines) {
  // These predicates and items compile, so the batch lanes raise the
  // error; the per-row evaluator (Executor::Eval) must raise the same
  // one on the first row.
  const Schema scan({{"b.id", DataType::kInt64},
                     {"b.rnd_id", DataType::kInt64},
                     {"b.p1", DataType::kInt64},
                     {"b.p2", DataType::kInt64},
                     {"b.p3", DataType::kInt64},
                     {"b.p4", DataType::kInt64}});
  const Row first = (*db_.GetTable("board"))->rows().front();
  const std::vector<ra::ScalarExprPtr> exprs = {
      ScalarExpr::Unary(ScalarOp::kNot, Col("b.id")),
      ScalarExpr::Binary(ScalarOp::kAnd, Col("b.id"),
                         ScalarExpr::Literal(Value::Bool(true))),
      ScalarExpr::Binary(ScalarOp::kOr, Col("b.p1"),
                         ScalarExpr::Literal(Value::Bool(false)))};
  for (const ra::ScalarExprPtr& e : exprs) {
    const ra::RaNodePtr filter =
        RaNode::Select(RaNode::Scan("board", "b"), e);
    const ra::RaNodePtr project =
        RaNode::Project(RaNode::Scan("board", "b"), {{e, "x"}});
    Executor ex(&db_);
    const std::vector<Value> params;
    EvalContext ctx(&params);
    ctx.PushFrame(&first);
    Result<Value> per_row = ex.Eval(BindScalar(e, {&scan}), &ctx);
    ASSERT_FALSE(per_row.ok()) << e->ToString();
    for (const ra::RaNodePtr& plan : {filter, project}) {
      Result<ResultSet> rs = ex.Execute(plan);
      ASSERT_FALSE(rs.ok()) << plan->ToString();
      EXPECT_EQ(rs.status().code(), StatusCode::kRuntimeError);
      EXPECT_EQ(rs.status().message(), per_row.status().message())
          << plan->ToString();
    }
  }
}

TEST(ScalarOpsTest, ThreeValuedLogic) {
  Value t = Value::Bool(true), f = Value::Bool(false), n = Value::Null();
  EXPECT_FALSE(EvalAnd(f, n)->AsBool());      // FALSE AND NULL = FALSE
  EXPECT_TRUE(EvalAnd(t, n)->is_null());      // TRUE AND NULL = NULL
  EXPECT_TRUE(EvalOr(t, n)->AsBool());        // TRUE OR NULL = TRUE
  EXPECT_TRUE(EvalOr(f, n)->is_null());       // FALSE OR NULL = NULL
  EXPECT_TRUE(EvalNot(n)->is_null());
  EXPECT_FALSE(IsTruthy(n));
  EXPECT_FALSE(IsTruthy(f));
  EXPECT_TRUE(IsTruthy(t));
}

TEST(ScalarOpsTest, GreatestLeast) {
  std::vector<Value> vs = {Value::Int(3), Value::Int(9), Value::Int(5)};
  EXPECT_EQ(EvalGreatestLeast(true, vs)->AsInt(), 9);
  EXPECT_EQ(EvalGreatestLeast(false, vs)->AsInt(), 3);
  vs.push_back(Value::Null());
  EXPECT_TRUE(EvalGreatestLeast(true, vs)->is_null());  // MySQL semantics
  EXPECT_FALSE(EvalGreatestLeast(true, {}).ok());
}

// ---------------------------------------------------------------------------
// Join chains: every apply shape runs three ways -- as the OUTER APPLY,
// as its hand-written LEFT JOIN where one exists, and as the original
// per-row loop through the interpreter -- with identical rows and
// status at 1, 2 and 8 shards.

/// x(id, aid, grp, mode) drives every loop: a NULL probe value (id 2),
/// an unmatched one (id 4), a NULL group (id 5). d(id, aid, grp, phone)
/// has unique aids 1..8 (the key), three rows per group (an index on
/// grp) and string phones.
std::unique_ptr<storage::Database> MakeApplyDb(size_t shards) {
  auto db = std::make_unique<storage::Database>(
      storage::DatabaseOptions{.shard_count = shards});
  auto x = *db->CreateTable("x", Schema({{"id", DataType::kInt64},
                                          {"aid", DataType::kInt64},
                                          {"grp", DataType::kInt64},
                                          {"mode", DataType::kString}}));
  const Value kNull = Value::Null();
  const std::vector<Row> xs = {
      {Value::Int(0), Value::Int(1), Value::Int(1), Value::String("online")},
      {Value::Int(1), Value::Int(5), Value::Int(2), Value::String("paper")},
      {Value::Int(2), kNull, Value::Int(1), Value::String("online")},
      {Value::Int(3), Value::Int(3), Value::Int(3), Value::String("online")},
      {Value::Int(4), Value::Int(42), Value::Int(2), Value::String("paper")},
      {Value::Int(5), Value::Int(7), kNull, Value::String("online")},
      {Value::Int(6), Value::Int(2), Value::Int(1), Value::String("paper")}};
  for (const Row& r : xs) EXPECT_TRUE(x->Insert(r).ok());
  auto d = *db->CreateTable("d", Schema({{"id", DataType::kInt64},
                                          {"aid", DataType::kInt64},
                                          {"grp", DataType::kInt64},
                                          {"phone", DataType::kString}}));
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(d->Insert({Value::Int(i), Value::Int(i + 1),
                           Value::Int(i % 3 + 1),
                           Value::String("p" + std::to_string(i + 1))})
                    .ok());
  }
  EXPECT_TRUE(d->DeclareUniqueKey("aid").ok());
  EXPECT_TRUE(d->CreateIndex("d_grp", {"grp"}).ok());
  return db;
}

struct ApplyShape {
  const char* name;
  /// The apply's inner query over outer row x, yielding column p.
  const char* inner;
  /// The same query for the loop: each outer reference a `?` bound in
  /// order to the fields `args` of the loop's row r.
  const char* loop_inner;
  const char* args;
  /// `SELECT x.id AS i, <p> AS p FROM x LEFT OUTER JOIN d ...`, or
  /// nullptr when no LEFT JOIN is equivalent.
  const char* left_join;
};

const ApplyShape kApplyShapes[] = {
    {"keyed_probe", "SELECT d.phone AS p FROM d AS d WHERE d.aid = x.aid",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = ?", ", r.aid",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.aid = x.aid"},
    {"index_literal", "SELECT d.phone AS p FROM d AS d WHERE d.grp = 2",
     "SELECT d.phone AS p FROM d AS d WHERE d.grp = 2", "",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.grp = 2"},
    {"unkeyed_correlated",
     "SELECT d.phone AS p FROM d AS d WHERE d.id + 1 = x.aid",
     "SELECT d.phone AS p FROM d AS d WHERE d.id + 1 = ?", ", r.aid",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.id + 1 = x.aid"},
    {"outer_only_conjunct",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = x.aid AND "
     "x.mode = 'online'",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = ? AND ? = 'online'",
     ", r.aid, r.mode",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.aid = x.aid AND x.mode = 'online'"},
    {"null_probe", "SELECT d.phone AS p FROM d AS d WHERE d.aid = NULL",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = NULL", "",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.aid = NULL"},
    {"several_matches", "SELECT d.phone AS p FROM d AS d WHERE d.grp = x.grp",
     "SELECT d.phone AS p FROM d AS d WHERE d.grp = ?", ", r.grp",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.grp = x.grp"},
    {"concat_item",
     "SELECT 'tel:' || d.phone AS p FROM d AS d WHERE d.aid = x.aid",
     "SELECT 'tel:' || d.phone AS p FROM d AS d WHERE d.aid = ?", ", r.aid",
     nullptr},
    {"case_item",
     "SELECT CASE WHEN d.id > 3 THEN 'hi' ELSE d.phone END AS p FROM d AS d "
     "WHERE d.aid = x.aid",
     "SELECT CASE WHEN d.id > 3 THEN 'hi' ELSE d.phone END AS p FROM d AS d "
     "WHERE d.aid = ?",
     ", r.aid",
     "SELECT x.id AS i, CASE WHEN d.id > 3 THEN 'hi' ELSE d.phone END AS p "
     "FROM x AS x LEFT OUTER JOIN d AS d ON d.aid = x.aid"},
    {"group_by", "SELECT COUNT(*) AS p FROM d AS d WHERE d.grp = x.grp",
     "SELECT COUNT(*) AS p FROM d AS d WHERE d.grp = ?", ", r.grp", nullptr},
    {"erroring_residual",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = x.aid AND d.phone < 5",
     "SELECT d.phone AS p FROM d AS d WHERE d.aid = ? AND d.phone < 5",
     ", r.aid",
     "SELECT x.id AS i, d.phone AS p FROM x AS x LEFT OUTER JOIN d AS d "
     "ON d.aid = x.aid AND d.phone < 5"},
};

/// One layout: a connection over a fresh database, pooled (with the
/// fan-out forced) above one shard.
struct ApplySetup {
  explicit ApplySetup(size_t shards)
      : db(MakeApplyDb(shards)), conn(db.get()) {
    if (shards > 1) {
      pool = std::make_unique<WorkerPool>(2);
      conn.set_worker_pool(pool.get());
      conn.set_parallel_threshold(0);
    }
  }
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<WorkerPool> pool;
  net::Connection conn;
};

/// Rows as "(i|p)" strings in order, or the status.
std::string Answer(const Result<ResultSet>& rs) {
  if (!rs.ok()) return rs.status().ToString();
  std::string out;
  for (const Row& row : rs->rows) {
    out += "(";
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i > 0 ? "|" : "") + row[i].ToString();
    }
    out += ")";
  }
  return out;
}

std::string RunSql(net::Connection* conn, const std::string& sql) {
  return Answer(conn->Perform(net::Request::Query(sql)).TakeResultSet());
}

/// The loop the apply was extracted from, run by the interpreter.
std::string RunLoop(net::Connection* conn, const ApplyShape& shape) {
  const std::string src = std::string(R"(
    func f() {
      result = list();
      xs = executeQuery("SELECT * FROM x AS x");
      for (r : xs) {
        n = 0;
        inner = executeQuery(")") + shape.loop_inner + "\"" + shape.args +
                          R"();
        for (q : inner) {
          result.append(tuple(r.id, q.p));
          n = n + 1;
        }
        if (n == 0) { result.append(tuple(r.id, null)); }
      }
      return result;
    }
  )";
  Result<frontend::Program> program = frontend::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return "";
  interp::Interpreter interp(&*program, conn);
  Result<interp::RtValue> r = interp.Run("f", {});
  if (!r.ok()) return r.status().ToString();
  std::string out;
  for (const interp::RtValue& item : r->list()->items) {
    out += "(";
    const std::vector<interp::RtValue>& fields = item.tuple()->items;
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i > 0 ? "|" : "") + fields[i].scalar().ToString();
    }
    out += ")";
  }
  return out;
}

TEST(ExecApplyCrossPath, EveryShapeAgreesThreeWaysAcrossLayouts) {
  for (const ApplyShape& shape : kApplyShapes) {
    SCOPED_TRACE(shape.name);
    const std::string apply =
        std::string("SELECT x.id AS i, p FROM x AS x OUTER APPLY (") +
        shape.inner + ")";
    std::string reference;
    for (size_t shards : {1, 2, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      ApplySetup setup(shards);
      const std::string got = RunSql(&setup.conn, apply);
      if (reference.empty()) reference = got;
      EXPECT_EQ(got, reference);
      if (shape.left_join != nullptr) {
        EXPECT_EQ(RunSql(&setup.conn, shape.left_join), reference);
      }
      EXPECT_EQ(RunLoop(&setup.conn, shape), reference);
    }
    EXPECT_FALSE(reference.empty());
  }
}

// Levels run one after another over all rows, so in a two-apply query
// whose first level fails on the last row and whose second fails on the
// first, the first level's error is the one returned.
TEST(ExecApplyCrossPath, FirstLevelErrorWinsOverAnEarlierRowsLaterLevel) {
  const std::string level1 =
      "OUTER APPLY (SELECT CASE WHEN x.id = 6 THEN d.phone - 1 "
      "ELSE d.phone END AS p FROM d AS d WHERE d.aid = x.aid)";
  const std::string level2 =
      "OUTER APPLY (SELECT CASE WHEN x.id = 0 THEN -e.phone "
      "ELSE e.phone END AS q FROM d AS e WHERE e.aid = x.aid)";
  const std::string head = "SELECT x.id AS i FROM x AS x ";
  for (size_t shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ApplySetup setup(shards);
    const std::string first = RunSql(&setup.conn, head + level1);
    const std::string second = RunSql(&setup.conn, head + level2);
    ASSERT_NE(first, second);
    EXPECT_EQ(first.rfind("Runtime", 0), 0u) << first;
    EXPECT_EQ(RunSql(&setup.conn, head + level1 + " " + level2), first);
  }
}

// A shard's rows are not always in seq order: keyless inserts take
// their seq before the shard lock, so concurrent inserters can publish
// slots out of order. Every scan still returns insertion-seq order,
// pooled or not.
TEST(ExecScanOrder, ConcurrentKeylessInsertsScanInSeqOrder) {
  for (size_t shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    storage::Database db(storage::DatabaseOptions{.shard_count = shards});
    storage::Table* t = *db.CreateTable(
        "t", Schema({{"w", DataType::kInt64}, {"i", DataType::kInt64}}));
    constexpr int kWriters = 4;
    constexpr int kEach = 400;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([t, w] {
        for (int i = 0; i < kEach; ++i) {
          EXPECT_TRUE(t->Insert({Value::Int(w), Value::Int(i)}).ok());
        }
      });
    }
    for (std::thread& th : writers) th.join();
    // The seq order, read off the slots themselves.
    std::vector<std::pair<size_t, Row>> slots;
    for (size_t s = 0; s < t->shard_count(); ++s) {
      for (const auto& slot : t->PinShard(s)) {
        slots.emplace_back(slot->seq,
                           *slot->VisibleRow(storage::Snapshot::Latest()));
      }
    }
    std::sort(slots.begin(), slots.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string want;
    for (const auto& [seq, row] : slots) {
      want += "(" + row[0].ToString() + "|" + row[1].ToString() + ")";
    }
    ASSERT_EQ(slots.size(), static_cast<size_t>(kWriters * kEach));
    std::string stored;
    for (const Row& row : t->rows()) {
      stored += "(" + row[0].ToString() + "|" + row[1].ToString() + ")";
    }
    EXPECT_EQ(stored, want);
    for (bool pooled : {false, true}) {
      Executor ex(&db);
      WorkerPool pool(2);
      if (pooled) {
        ex.set_worker_pool(&pool);
        ex.set_parallel_threshold(0);
      }
      EXPECT_EQ(Answer(ex.Execute(*sql::ParseSql("SELECT * FROM t AS t"))),
                want)
          << "pooled=" << pooled;
    }
  }
}

}  // namespace
}  // namespace eqsql::exec
