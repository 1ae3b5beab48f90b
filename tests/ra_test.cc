#include <gtest/gtest.h>

#include "ra/ra_node.h"
#include "ra/scalar_expr.h"

namespace eqsql::ra {
namespace {

using catalog::Value;

ScalarExprPtr Col(const std::string& n) { return ScalarExpr::Column(n); }
ScalarExprPtr Lit(int64_t v) { return ScalarExpr::Literal(Value::Int(v)); }

TEST(ScalarExprTest, FactoryAndAccessors) {
  auto c = Col("t.x");
  EXPECT_EQ(c->op(), ScalarOp::kColumnRef);
  EXPECT_EQ(c->column_name(), "t.x");

  auto l = Lit(5);
  EXPECT_EQ(l->literal().AsInt(), 5);

  auto p = ScalarExpr::Parameter(2);
  EXPECT_EQ(p->parameter_index(), 2);

  auto gt = ScalarExpr::Binary(ScalarOp::kGt, c, l);
  EXPECT_EQ(gt->children().size(), 2u);
}

TEST(ScalarExprTest, StructuralEquality) {
  auto a = ScalarExpr::Binary(ScalarOp::kAdd, Col("x"), Lit(1));
  auto b = ScalarExpr::Binary(ScalarOp::kAdd, Col("x"), Lit(1));
  auto c = ScalarExpr::Binary(ScalarOp::kAdd, Col("y"), Lit(1));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_EQ(a->Hash(), b->Hash());
}

TEST(ScalarExprTest, ToString) {
  auto e = ScalarExpr::Binary(ScalarOp::kGt, Col("score"), Lit(10));
  EXPECT_EQ(e->ToString(), "(> (col score) (lit 10))");
}

TEST(ScalarExprTest, MakeAnd) {
  EXPECT_EQ(ScalarExpr::MakeAnd({})->literal().AsBool(), true);
  auto one = ScalarExpr::MakeAnd({Col("a")});
  EXPECT_EQ(one->op(), ScalarOp::kColumnRef);
  auto two = ScalarExpr::MakeAnd({Col("a"), Col("b")});
  EXPECT_EQ(two->op(), ScalarOp::kAnd);
}

TEST(ScalarExprTest, MirrorComparison) {
  EXPECT_EQ(MirrorComparison(ScalarOp::kLt), ScalarOp::kGt);
  EXPECT_EQ(MirrorComparison(ScalarOp::kGe), ScalarOp::kLe);
  EXPECT_EQ(MirrorComparison(ScalarOp::kEq), ScalarOp::kEq);
}

TEST(ScalarExprTest, CollectColumnRefs) {
  auto e = ScalarExpr::Binary(
      ScalarOp::kAnd, ScalarExpr::Binary(ScalarOp::kEq, Col("a"), Col("b")),
      ScalarExpr::Binary(ScalarOp::kGt, Col("c"), Lit(0)));
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  EXPECT_EQ(refs, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ScalarExprTest, RenameColumns) {
  auto e = ScalarExpr::Binary(ScalarOp::kAdd, Col("t.x"), Col("t.y"));
  auto renamed = RenameColumns(e, [](const std::string& n) {
    return n == "t.x" ? "u.x" : n;
  });
  std::vector<std::string> refs;
  CollectColumnRefs(renamed, &refs);
  EXPECT_EQ(refs, (std::vector<std::string>{"u.x", "t.y"}));
  // Unchanged expression is shared, not copied.
  auto same = RenameColumns(e, [](const std::string& n) { return n; });
  EXPECT_EQ(same.get(), e.get());
}

TEST(RaNodeTest, ScanDefaultsAliasToTable) {
  auto s = RaNode::Scan("Board");
  EXPECT_EQ(s->table_name(), "Board");
  EXPECT_EQ(s->alias(), "Board");
  auto s2 = RaNode::Scan("Board", "b");
  EXPECT_EQ(s2->alias(), "b");
}

TEST(RaNodeTest, SelectProjectStructure) {
  auto q = RaNode::Project(
      RaNode::Select(RaNode::Scan("t"),
                     ScalarExpr::Binary(ScalarOp::kEq, Col("t.id"), Lit(1))),
      {{Col("t.name"), "name"}});
  EXPECT_EQ(q->op(), RaOp::kProject);
  EXPECT_EQ(q->child(0)->op(), RaOp::kSelect);
  EXPECT_EQ(q->child(0)->child(0)->op(), RaOp::kScan);
}

TEST(RaNodeTest, StructuralEqualityAndHash) {
  auto mk = [] {
    return RaNode::Select(
        RaNode::Scan("t"),
        ScalarExpr::Binary(ScalarOp::kGt, Col("t.x"), Lit(3)));
  };
  auto a = mk();
  auto b = mk();
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->Hash(), b->Hash());
  auto c = RaNode::Select(
      RaNode::Scan("t"), ScalarExpr::Binary(ScalarOp::kGt, Col("t.x"), Lit(4)));
  EXPECT_FALSE(a->Equals(*c));
}

TEST(RaNodeTest, GroupByToString) {
  auto q = RaNode::GroupBy(RaNode::Scan("t"), {Col("t.g")},
                           {{AggFunc::kMax, Col("t.v"), "mx"}});
  std::string s = q->ToString();
  EXPECT_NE(s.find("GroupBy"), std::string::npos);
  EXPECT_NE(s.find("MAX"), std::string::npos);
  EXPECT_NE(s.find("mx"), std::string::npos);
}

TEST(RaNodeTest, CollectScannedTables) {
  auto sub = RaNode::Select(
      RaNode::Scan("inner_t"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("inner_t.k"), Col("outer_t.k")));
  auto q = RaNode::Select(RaNode::Scan("outer_t"),
                          ScalarExpr::Exists(sub, /*negated=*/false));
  auto tables = CollectScannedTables(q);
  EXPECT_EQ(tables, (std::vector<std::string>{"inner_t", "outer_t"}));
}

TEST(RaNodeTest, CollectScannedTablesWalksEveryExpression) {
  auto exists = [](const std::string& table) {
    return ScalarExpr::Exists(RaNode::Scan(table), /*negated=*/false);
  };
  auto grouped = RaNode::GroupBy(
      RaNode::Scan("base"), {exists("in_group_key")},
      {AggregateSpec{AggFunc::kSum, exists("in_agg_arg"), "s"}});
  auto q = RaNode::Sort(grouped, {SortKey{exists("in_sort_key"), true}});
  EXPECT_EQ(CollectScannedTables(q),
            (std::vector<std::string>{"base", "in_agg_arg", "in_group_key",
                                      "in_sort_key"}));
}

TEST(RaNodeTest, ExistsEquality) {
  auto sub = RaNode::Scan("t");
  auto e1 = ScalarExpr::Exists(sub, false);
  auto e2 = ScalarExpr::Exists(RaNode::Scan("t"), false);
  auto e3 = ScalarExpr::Exists(RaNode::Scan("t"), true);
  EXPECT_TRUE(e1->Equals(*e2));
  EXPECT_FALSE(e1->Equals(*e3));
}

TEST(RaNodeTest, LimitAndSort) {
  auto q = RaNode::Limit(
      RaNode::Sort(RaNode::Scan("t"), {{Col("t.x"), /*ascending=*/false}}), 1);
  EXPECT_EQ(q->limit(), 1);
  EXPECT_FALSE(q->child(0)->sort_keys()[0].ascending);
}

}  // namespace
}  // namespace eqsql::ra
