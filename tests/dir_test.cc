#include <gtest/gtest.h>

#include <string>

#include "dir/builder.h"
#include "frontend/parser.h"

namespace eqsql::dir {
namespace {

using frontend::ParseProgram;

FunctionDir Build(const char* src, DagContext* ctx) {
  auto program = ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  static std::vector<frontend::Program> keep_alive;  // outlive FunctionDir
  keep_alive.push_back(std::move(*program));
  DirBuilder builder(ctx, &keep_alive.back());
  auto dir = builder.BuildFunction(keep_alive.back().functions.back());
  EXPECT_TRUE(dir.ok()) << dir.status().ToString();
  return std::move(*dir);
}

/// A function whose cursor loop body is `n` statements `x = x + 1;`.
std::string LongLoopBody(int n) {
  std::string src =
      "func big() {\n  x = 0;\n"
      "  rows = executeQuery(\"SELECT * FROM project AS p\");\n"
      "  for (p : rows) {\n";
  for (int i = 0; i < n; ++i) src += "    x = x + 1;\n";
  return src + "  }\n  return x;\n}\n";
}

TEST(DagContextTest, HashConsingSharesNodes) {
  DagContext ctx;
  DNodePtr a = ctx.Binary(DOp::kAdd, ctx.ConstInt(1), ctx.ConstInt(2));
  DNodePtr b = ctx.Binary(DOp::kAdd, ctx.ConstInt(1), ctx.ConstInt(2));
  EXPECT_EQ(a.get(), b.get());
  DNodePtr c = ctx.Binary(DOp::kAdd, ctx.ConstInt(1), ctx.ConstInt(3));
  EXPECT_NE(a.get(), c.get());
}

TEST(DagContextTest, CondNormalizesToMax) {
  DagContext ctx;
  DNodePtr score = ctx.RegionInput("score");
  DNodePtr score_max = ctx.RegionInput("scoreMax");
  // ?[score > scoreMax, score, scoreMax] => max[score, scoreMax]
  DNodePtr cond = ctx.Cond(ctx.Binary(DOp::kGt, score, score_max), score,
                           score_max);
  EXPECT_EQ(cond->op(), DOp::kMax);
  // ?[score < scoreMax, score, scoreMax] => min
  DNodePtr cond2 = ctx.Cond(ctx.Binary(DOp::kLt, score, score_max), score,
                            score_max);
  EXPECT_EQ(cond2->op(), DOp::kMin);
}

TEST(DagContextTest, CondNormalizesBooleanFlags) {
  DagContext ctx;
  DNodePtr v = ctx.RegionInput("found");
  DNodePtr pred = ctx.Binary(DOp::kGt, ctx.RegionInput("x"), ctx.ConstInt(0));
  DNodePtr set_true = ctx.Cond(pred, ctx.ConstBool(true), v);
  EXPECT_EQ(set_true->op(), DOp::kOr);
  DNodePtr set_false = ctx.Cond(pred, ctx.ConstBool(false), v);
  EXPECT_EQ(set_false->op(), DOp::kAnd);
}

TEST(DagContextTest, SubstituteInputs) {
  DagContext ctx;
  DNodePtr expr = ctx.Binary(DOp::kAdd, ctx.RegionInput("x"),
                             ctx.RegionInput("y"));
  DNodePtr result =
      ctx.SubstituteInputs(expr, {{"x", ctx.ConstInt(10)}});
  EXPECT_EQ(result->ToString(), "+[10, y0]");
  // Unchanged subtrees are shared.
  EXPECT_EQ(result->child(1).get(), expr->child(1).get());
}

// Each statement chains x's expression onto the previous one, so the
// body would build a 50,000-level tree; the builder keeps x opaque past
// kMaxParseDepth, and the loop is not converted (the program runs
// interpreted).
TEST(DirBuilderTest, LongLoopBodyStopsAtTheDepthBound) {
  DagContext ctx;
  FunctionDir dir = Build(LongLoopBody(50000).c_str(), &ctx);
  ASSERT_EQ(dir.loop_reports.size(), 1u);
  const LoopReport& report = dir.loop_reports[0];
  EXPECT_EQ(report.var, "x");
  EXPECT_FALSE(report.converted);
  EXPECT_EQ(report.reason, "expression deeper than 256 levels");
  EXPECT_FALSE(report.preconditions.ok);
  EXPECT_EQ(dir.ve_map.at("x")->op(), DOp::kOpaque);
}

TEST(DirBuilderTest, LoopBodyWithinTheDepthBoundConverts) {
  DagContext ctx;
  FunctionDir dir = Build(LongLoopBody(100).c_str(), &ctx);
  ASSERT_EQ(dir.loop_reports.size(), 1u);
  EXPECT_TRUE(dir.loop_reports[0].converted) << dir.loop_reports[0].reason;
  EXPECT_EQ(dir.ve_map.at("x")->op(), DOp::kFold);
}

TEST(DirBuilderTest, StraightLineResolvesIntermediates) {
  // Paper Figure 5: values resolve to constants through intermediates.
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func f() {
      x = 10;
      y = x + 5;
      if (y - x > 0) { z = x; } else { z = y; }
      return z;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  // z = ?[15 - 10 > 0, 10, 15] (constants fully resolved; no x0/y0).
  EXPECT_EQ(ret->ToString(), "10");  // fully constant-folded
}

TEST(DirBuilderTest, MahjongFoldConstruction) {
  // Paper Figure 2 / Figure 3(b): scoreMax becomes
  // fold[max[...], 0, Q].
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func findMaxScore() {
      boards = executeQuery("SELECT * FROM board AS b WHERE b.rnd_id = 1");
      scoreMax = 0;
      for (t : boards) {
        p1 = t.getP1();
        p2 = t.getP2();
        p3 = t.getP3();
        p4 = t.getP4();
        score = max(p1, p2);
        score = max(score, p3);
        score = max(score, p4);
        if (score > scoreMax) {
          scoreMax = score;
        }
      }
      return scoreMax;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  ASSERT_EQ(ret->op(), DOp::kFold);
  EXPECT_EQ(ret->fold_init()->ToString(), "0");
  EXPECT_EQ(ret->fold_query()->op(), DOp::kQuery);
  // The folding function is max[max-chain-of-attrs, <scoreMax>].
  EXPECT_EQ(ret->fold_fn()->ToString(),
            "max[max[max[max[t.p1, t.p2], t.p3], t.p4], <scoreMax>]");
  // Conversion reported.
  bool converted = false;
  for (const LoopReport& r : dir.loop_reports) {
    if (r.var == "scoreMax") converted = r.converted;
  }
  EXPECT_TRUE(converted);
}

TEST(DirBuilderTest, ListAppendFold) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func names() {
      result = list();
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (r : rows) {
        result.append(r.login);
      }
      return result;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  ASSERT_EQ(ret->op(), DOp::kFold);
  EXPECT_EQ(ret->fold_fn()->ToString(), "append[<result>, r.login]");
  EXPECT_EQ(ret->fold_init()->op(), DOp::kEmptyList);
}

TEST(DirBuilderTest, DependentAggregationIsOpaque) {
  // Paper Figure 7(c): dummyVal violates P2.
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func f() {
      agg = 0;
      dummyVal = 0;
      rows = executeQuery("SELECT * FROM t");
      for (t : rows) {
        agg = agg + t.x;
        dummyVal = dummyVal + agg;
      }
      return dummyVal;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->op(), DOp::kOpaque);
  // agg itself converted.
  auto agg = dir.ve_map.find("agg");
  ASSERT_NE(agg, dir.ve_map.end());
  EXPECT_EQ(agg->second->op(), DOp::kFold);
}

TEST(DirBuilderTest, NonQueryLoopIsOpaque) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func f(items) {
      s = 0;
      for (t : items) { s = s + t.x; }
      return s;
    }
  )", &ctx);
  EXPECT_EQ(dir.return_value()->op(), DOp::kOpaque);
}

TEST(DirBuilderTest, NestedLoopBuildsNestedFold) {
  // The T4 join-identification shape: inner loop appends matching rows.
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func userRoles() {
      result = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      roles = executeQuery("SELECT * FROM role AS r");
      for (u : users) {
        for (r : roles) {
          if (u.role_id == r.id) {
            result.append(r.name);
          }
        }
      }
      return result;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  ASSERT_EQ(ret->op(), DOp::kFold) << ret->ToString();
  // Outer fold's function is itself a fold over the inner query whose
  // accumulator is the outer accumulator.
  const DNodePtr& fn = ret->fold_fn();
  ASSERT_EQ(fn->op(), DOp::kFold) << fn->ToString();
  EXPECT_EQ(fn->fold_init()->op(), DOp::kAccParam);
  EXPECT_EQ(fn->tuple_var(), "r");
  EXPECT_EQ(ret->tuple_var(), "u");
}

TEST(DirBuilderTest, UserFunctionInlined) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func double(v) { return v * 2; }
    func main() {
      x = 3;
      y = double(x);
      return y;
    }
  )", &ctx);
  EXPECT_EQ(dir.return_value()->ToString(), "6");  // inlined and folded
}

TEST(DirBuilderTest, RecursionBecomesOpaque) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func loop(v) { return loop(v); }
    func main() { return loop(1); }
  )", &ctx);
  EXPECT_EQ(dir.return_value()->op(), DOp::kOpaque);
}

TEST(DirBuilderTest, PrintsAccumulateIntoOutput) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func f() {
      print("header");
      rows = executeQuery("SELECT * FROM t");
      for (r : rows) { print(r.x); }
    }
  )", &ctx);
  DNodePtr out = dir.output_value();
  ASSERT_NE(out, nullptr);
  // fold over the query, appending to ["header"].
  ASSERT_EQ(out->op(), DOp::kFold) << out->ToString();
  EXPECT_EQ(out->fold_init()->ToString(), "append[[], 'header']");
}

TEST(DirBuilderTest, ExistenceFlagNormalized) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func hasBig() {
      found = false;
      rows = executeQuery("SELECT * FROM t");
      for (r : rows) {
        if (r.v > 100) { found = true; }
      }
      return found;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_NE(ret, nullptr);
  ASSERT_EQ(ret->op(), DOp::kFold) << ret->ToString();
  // fn = or[<found>, r.v > 100]
  EXPECT_EQ(ret->fold_fn()->ToString(), "or[<found>, >[r.v, 100]]");
}

TEST(DirBuilderTest, ParameterizedQueryCapturesParams) {
  DagContext ctx;
  FunctionDir dir = Build(R"(
    func f(threshold) {
      rows = executeQuery("SELECT * FROM t WHERE t.v > ?", threshold);
      s = 0;
      for (r : rows) { s = s + r.v; }
      return s;
    }
  )", &ctx);
  DNodePtr ret = dir.return_value();
  ASSERT_EQ(ret->op(), DOp::kFold);
  const DNodePtr& q = ret->fold_query();
  ASSERT_EQ(q->op(), DOp::kQuery);
  ASSERT_EQ(q->children().size(), 1u);
  EXPECT_EQ(q->child(0)->ToString(), "threshold0");
}

}  // namespace
}  // namespace eqsql::dir
