#include <gtest/gtest.h>

#include "exec/executor.h"
#include "sql/generator.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace eqsql::sql {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;
using ra::RaOp;

TEST(SqlLexerTest, BasicTokens) {
  auto tokens = TokenizeSql("SELECT a.b, 'it''s', 3.5, 42, ? FROM t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "a");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kDot);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*tokens)[5].text, "it's");
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kDoubleLiteral);
  EXPECT_EQ((*tokens)[9].kind, TokenKind::kIntLiteral);
  EXPECT_EQ((*tokens)[11].kind, TokenKind::kQuestion);
}

TEST(SqlLexerTest, OperatorsAndErrors) {
  auto tokens = TokenizeSql("a <= b <> c != d || e >= f");
  ASSERT_TRUE(tokens.ok());
  EXPECT_FALSE(TokenizeSql("a | b").ok());
  EXPECT_FALSE(TokenizeSql("'unterminated").ok());
  EXPECT_FALSE(TokenizeSql("a # b").ok());
}

TEST(SqlLexerTest, KeywordsCaseInsensitive) {
  auto tokens = TokenizeSql("select FROM wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(SqlParserTest, SelectStarWhere) {
  auto q = ParseSql("SELECT * FROM board AS b WHERE b.rnd_id = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->op(), RaOp::kSelect);
  EXPECT_EQ((*q)->child(0)->op(), RaOp::kScan);
  EXPECT_EQ((*q)->child(0)->alias(), "b");
}

TEST(SqlParserTest, HqlStyleQuery) {
  auto q = ParseSql("from Board as b where b.rnd_id = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->op(), RaOp::kSelect);
  EXPECT_EQ((*q)->child(0)->table_name(), "Board");
}

TEST(SqlParserTest, ProjectionAliases) {
  auto q = ParseSql("SELECT b.p1 AS x, b.p1 + b.p2 FROM board b");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->op(), RaOp::kProject);
  EXPECT_EQ((*q)->project_items()[0].name, "x");
  EXPECT_EQ((*q)->project_items()[1].name, "col1");
}

TEST(SqlParserTest, ParameterNumbering) {
  auto q = ParseSql("SELECT * FROM t WHERE t.a = ? AND t.b = ?");
  ASSERT_TRUE(q.ok());
  std::string s = (*q)->ToString();
  EXPECT_NE(s.find("(param 0)"), std::string::npos);
  EXPECT_NE(s.find("(param 1)"), std::string::npos);
}

TEST(SqlParserTest, GroupByAggregates) {
  auto q = ParseSql(
      "SELECT t.g, MAX(t.v) AS mx, COUNT(*) AS c FROM t GROUP BY t.g");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->op(), RaOp::kProject);
  auto gb = (*q)->child(0);
  ASSERT_EQ(gb->op(), RaOp::kGroupBy);
  EXPECT_EQ(gb->group_keys().size(), 1u);
  ASSERT_EQ(gb->aggregates().size(), 2u);
  EXPECT_EQ(gb->aggregates()[0].func, ra::AggFunc::kMax);
  EXPECT_EQ(gb->aggregates()[1].func, ra::AggFunc::kCountStar);
}

TEST(SqlParserTest, ScalarAggregateNoGroupBy) {
  auto q = ParseSql("SELECT MAX(t.v) AS m FROM t WHERE t.x > 0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->op(), RaOp::kProject);
  EXPECT_EQ((*q)->child(0)->op(), RaOp::kGroupBy);
  EXPECT_TRUE((*q)->child(0)->group_keys().empty());
}

TEST(SqlParserTest, NonAggNotInGroupByRejected) {
  auto q = ParseSql("SELECT t.g, t.h, MAX(t.v) FROM t GROUP BY t.g");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
}

TEST(SqlParserTest, Joins) {
  auto q = ParseSql(
      "SELECT * FROM wuser AS u JOIN role AS r ON u.role_id = r.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->op(), RaOp::kJoin);

  auto lo = ParseSql(
      "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x");
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  EXPECT_EQ((*lo)->op(), RaOp::kLeftOuterJoin);

  auto lj = ParseSql("SELECT * FROM a LEFT JOIN b ON a.x = b.x");
  ASSERT_TRUE(lj.ok());
  EXPECT_EQ((*lj)->op(), RaOp::kLeftOuterJoin);
}

TEST(SqlParserTest, OuterApply) {
  auto q = ParseSql(
      "SELECT * FROM applicants AS a OUTER APPLY "
      "(SELECT d.phone AS phone FROM details AS d WHERE d.id = a.id)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->op(), RaOp::kOuterApply);
  EXPECT_EQ((*q)->right()->op(), RaOp::kProject);
}

TEST(SqlParserTest, OrderByLimitDistinct) {
  auto q = ParseSql(
      "SELECT DISTINCT t.a FROM t ORDER BY t.a DESC, t.b LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->op(), RaOp::kLimit);
  EXPECT_EQ((*q)->limit(), 10);
  ASSERT_EQ((*q)->child(0)->op(), RaOp::kDedup);
  auto proj = (*q)->child(0)->child(0);
  ASSERT_EQ(proj->op(), RaOp::kProject);
  auto sort = proj->child(0);
  ASSERT_EQ(sort->op(), RaOp::kSort);
  EXPECT_FALSE(sort->sort_keys()[0].ascending);
  EXPECT_TRUE(sort->sort_keys()[1].ascending);
}

TEST(SqlParserTest, ExistsSubquery) {
  auto q = ParseSql(
      "SELECT * FROM role AS r WHERE EXISTS "
      "(SELECT * FROM wuser AS u WHERE u.role_id = r.id)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->predicate()->op(), ra::ScalarOp::kExists);

  auto nq = ParseSql(
      "SELECT * FROM role AS r WHERE NOT EXISTS "
      "(SELECT * FROM wuser AS u WHERE u.role_id = r.id)");
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ((*nq)->predicate()->op(), ra::ScalarOp::kNotExists);
}

TEST(SqlParserTest, GreatestCaseIsNull) {
  auto q = ParseSql(
      "SELECT GREATEST(t.a, t.b, t.c) AS g, "
      "CASE WHEN t.a > 0 THEN 1 ELSE 0 END AS c "
      "FROM t WHERE t.x IS NOT NULL");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST(SqlParserTest, DerivedTable) {
  auto q = ParseSql(
      "SELECT dt.v FROM (SELECT t.v AS v FROM t) AS dt WHERE dt.v > 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST(SqlParserTest, DerivedTableWithoutSelectListRejected) {
  auto q = ParseSql("SELECT * FROM (SELECT * FROM t) AS dt");
  EXPECT_FALSE(q.ok());
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra garbage").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t LIMIT x").ok());
}

// --- end-to-end: parse then execute ---------------------------------------

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = *db_.CreateTable("scores", Schema({{"id", DataType::kInt64},
                                                {"grp", DataType::kInt64},
                                                {"v", DataType::kInt64}}));
    int64_t data[][3] = {{1, 1, 10}, {2, 1, 30}, {3, 2, 20}, {4, 2, 5}};
    for (auto& d : data) {
      ASSERT_TRUE(
          t->Insert({Value::Int(d[0]), Value::Int(d[1]), Value::Int(d[2])})
              .ok());
    }
  }

  exec::ResultSet Run(const std::string& sql,
                      std::vector<Value> params = {}) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    exec::Executor ex(&db_);
    auto rs = ex.Execute(*q, params);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return std::move(*rs);
  }

  storage::Database db_;
};

TEST_F(SqlExecTest, SelectWhere) {
  auto rs = Run("SELECT s.v FROM scores AS s WHERE s.grp = 1");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 10);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 30);
}

TEST_F(SqlExecTest, GroupByMax) {
  auto rs =
      Run("SELECT s.grp, MAX(s.v) AS mx FROM scores AS s GROUP BY s.grp");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 30);
  EXPECT_EQ(rs.rows[1][1].AsInt(), 20);
}

TEST_F(SqlExecTest, ParameterBinding) {
  auto rs = Run("SELECT s.id FROM scores AS s WHERE s.grp = ?",
                {Value::Int(2)});
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 3);
}

TEST_F(SqlExecTest, OrderByDescLimit) {
  auto rs = Run("SELECT s.id FROM scores AS s ORDER BY s.v DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 2);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 3);
}

TEST_F(SqlExecTest, ScalarAggregateEmptyInput) {
  auto rs = Run("SELECT MAX(s.v) AS m FROM scores AS s WHERE s.grp = 99");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

// An unqualified name that matches two columns of the innermost frame is
// an ambiguity error there; it never falls through to an outer frame
// that happens to hold the name once.
TEST(SqlExecAmbiguityTest, AmbiguousInnerNameFailsInBothEngines) {
  storage::Database db;
  auto applicants = *db.CreateTable(
      "applicants", Schema({{"id", DataType::kInt64}}));
  auto details = *db.CreateTable(
      "details", Schema({{"id", DataType::kInt64}, {"aid", DataType::kInt64}}));
  auto feedback = *db.CreateTable(
      "feedback1",
      Schema({{"id", DataType::kInt64}, {"aid", DataType::kInt64}}));
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(applicants->Insert({Value::Int(i)}).ok());
    ASSERT_TRUE(details->Insert({Value::Int(i), Value::Int(i)}).ok());
    ASSERT_TRUE(feedback->Insert({Value::Int(10 + i), Value::Int(i)}).ok());
  }
  const char* inner =
      "SELECT a.id AS y FROM details AS a JOIN feedback1 AS b "
      "ON a.aid = b.aid WHERE id = 5";
  const std::string outer =
      std::string("SELECT o.id AS x FROM applicants AS o WHERE EXISTS (") +
      inner + ")";
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
    for (const std::string& sql : {std::string(inner), outer}) {
      auto q = ParseSql(sql);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      exec::Executor ex(&db);
      ex.set_exec_mode(mode);
      auto rs = ex.Execute(*q);
      if (rs.ok()) {
        ADD_FAILURE() << exec::ExecModeName(mode) << " answered: " << sql;
        continue;
      }
      EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument)
          << rs.status().ToString();
      EXPECT_EQ(rs.status().message(), "ambiguous column: id");
    }
  }
}

// --- generator -------------------------------------------------------------

TEST(SqlGeneratorTest, SimpleSelect) {
  auto q = ParseSql("SELECT b.p1 AS x FROM board AS b WHERE b.rnd_id = 1");
  ASSERT_TRUE(q.ok());
  auto sql = GenerateSql(*q);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql,
            "SELECT b.p1 AS x FROM board AS b WHERE (b.rnd_id = 1)");
}

TEST(SqlGeneratorTest, GroupByInlinesInnerProject) {
  // γ_max(score)(π_score=GREATEST(...)(σ(scan))) flattens to one block.
  auto score = ra::ScalarExpr::Nary(
      ra::ScalarOp::kGreatest,
      {ra::ScalarExpr::Column("b.p1"), ra::ScalarExpr::Column("b.p2")});
  auto plan = ra::RaNode::GroupBy(
      ra::RaNode::Project(
          ra::RaNode::Select(
              ra::RaNode::Scan("board", "b"),
              ra::ScalarExpr::Binary(ra::ScalarOp::kEq,
                                     ra::ScalarExpr::Column("b.rnd_id"),
                                     ra::ScalarExpr::Literal(Value::Int(1)))),
          {{score, "score"}}),
      {}, {{ra::AggFunc::kMax, ra::ScalarExpr::Column("score"), "scoreMax"}});
  auto sql = GenerateSql(plan);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql,
            "SELECT MAX(GREATEST(b.p1, b.p2)) AS scoreMax FROM board AS b "
            "WHERE (b.rnd_id = 1)");
}

TEST(SqlGeneratorTest, CaseWhenDialectExpandsGreatest) {
  auto score = ra::ScalarExpr::Nary(
      ra::ScalarOp::kGreatest,
      {ra::ScalarExpr::Column("a"), ra::ScalarExpr::Column("b")});
  auto plan = ra::RaNode::Project(ra::RaNode::Scan("t"), {{score, "g"}});
  auto sql = GenerateSql(plan, Dialect::kCaseWhen);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "SELECT CASE WHEN a >= b THEN a ELSE b END AS g FROM t");
}

TEST(SqlGeneratorTest, PostgresLateralForOuterApply) {
  auto inner = ra::RaNode::Project(
      ra::RaNode::Select(
          ra::RaNode::Scan("d"),
          ra::ScalarExpr::Binary(ra::ScalarOp::kEq,
                                 ra::ScalarExpr::Column("d.id"),
                                 ra::ScalarExpr::Column("a.id"))),
      {{ra::ScalarExpr::Column("d.phone"), "phone"}});
  auto plan = ra::RaNode::OuterApply(ra::RaNode::Scan("a"), inner);
  auto sql_pg = GenerateSql(plan, Dialect::kPostgres);
  ASSERT_TRUE(sql_pg.ok());
  EXPECT_NE(sql_pg->find("LEFT JOIN LATERAL"), std::string::npos);
  auto sql_def = GenerateSql(plan, Dialect::kDefault);
  ASSERT_TRUE(sql_def.ok());
  EXPECT_NE(sql_def->find("OUTER APPLY"), std::string::npos);
}

/// Round-trip property: generated kDefault SQL re-parses, and both plans
/// produce identical results.
class SqlRoundTripTest : public SqlExecTest {};

TEST_F(SqlRoundTripTest, RoundTripPreservesSemantics) {
  const char* queries[] = {
      "SELECT s.v AS v FROM scores AS s WHERE s.grp = 1",
      "SELECT s.grp, MAX(s.v) AS mx FROM scores AS s GROUP BY s.grp",
      "SELECT DISTINCT s.grp AS g FROM scores AS s",
      "SELECT s.id AS id FROM scores AS s ORDER BY s.v DESC LIMIT 2",
      "SELECT MAX(s.v) AS m FROM scores AS s",
      "SELECT s.id AS id FROM scores AS s WHERE EXISTS "
      "(SELECT t.id AS x FROM scores AS t WHERE t.grp = s.grp AND t.v > 25)",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    auto q1 = ParseSql(text);
    ASSERT_TRUE(q1.ok()) << q1.status().ToString();
    auto sql = GenerateSql(*q1);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    auto q2 = ParseSql(*sql);
    ASSERT_TRUE(q2.ok()) << "regenerated: " << *sql << "\n"
                         << q2.status().ToString();
    exec::Executor ex(&db_);
    auto r1 = ex.Execute(*q1);
    auto r2 = ex.Execute(*q2);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << "regenerated: " << *sql << "\n"
                         << r2.status().ToString();
    ASSERT_EQ(r1->rows.size(), r2->rows.size()) << "regenerated: " << *sql;
    for (size_t i = 0; i < r1->rows.size(); ++i) {
      EXPECT_EQ(catalog::RowToString(r1->rows[i]),
                catalog::RowToString(r2->rows[i]));
    }
  }
}

// Hostile nesting is a parse error, not a stack overflow: 100,000
// levels of parentheses, NOT, unary minus, or derived tables fail
// cleanly, while nesting right at kMaxParseDepth still parses.
TEST(SqlParserTest, NestingDepthIsBounded) {
  constexpr int kHostile = 100000;
  auto repeat = [](const std::string& piece, int n) {
    std::string out;
    out.reserve(piece.size() * n);
    for (int i = 0; i < n; ++i) out += piece;
    return out;
  };
  const std::string hostile[] = {
      "SELECT " + repeat("(", kHostile) + "1" + repeat(")", kHostile) +
          " AS x FROM t",
      "SELECT * FROM t AS t0 WHERE " + repeat("NOT ", kHostile) + "TRUE",
      "SELECT " + repeat("- ", kHostile) + "1 AS x FROM t",
      repeat("SELECT * FROM (", kHostile) + "SELECT * FROM t" +
          repeat(") AS d", kHostile),
  };
  for (const std::string& sql : hostile) {
    auto q = ParseSql(sql);
    ASSERT_FALSE(q.ok()) << sql.substr(0, 40);
    EXPECT_EQ(q.status().code(), StatusCode::kParseError)
        << q.status().ToString();
  }
  // The query is one level and the select item's expression another, so
  // kMaxParseDepth - 2 parentheses are the most that fit.
  auto at_limit = [&](int parens) {
    return ParseSql("SELECT " + repeat("(", parens) + "1" +
                    repeat(")", parens) + " AS x FROM t");
  };
  auto fits = at_limit(kMaxParseDepth - 2);
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
  auto over = at_limit(kMaxParseDepth - 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace eqsql::sql
