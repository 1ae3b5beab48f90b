#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "frontend/parser.h"

namespace eqsql::frontend {
namespace {

TEST(ImpLexerTest, TokensAndLocations) {
  auto toks = TokenizeImp("x = 1;\ny = \"a\\\"b\";");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokKind::kIdent);
  EXPECT_EQ((*toks)[0].loc.line, 1);
  EXPECT_EQ((*toks)[4].loc.line, 2);
  EXPECT_EQ((*toks)[6].text, "a\"b");
}

TEST(ImpLexerTest, Comments) {
  auto toks = TokenizeImp("x = 1; // comment\n/* multi\nline */ y = 2;");
  ASSERT_TRUE(toks.ok());
  size_t idents = 0;
  for (auto& t : *toks) idents += (t.kind == TokKind::kIdent);
  EXPECT_EQ(idents, 2u);
  EXPECT_FALSE(TokenizeImp("/* unterminated").ok());
}

TEST(ImpLexerTest, Operators) {
  auto toks = TokenizeImp("a == b != c <= d >= e && f || !g");
  ASSERT_TRUE(toks.ok());
  EXPECT_FALSE(TokenizeImp("a & b").ok());
  EXPECT_FALSE(TokenizeImp("a $ b").ok());
}

TEST(ImpParserTest, MahjongExample) {
  // The paper's Figure 2 program.
  const char* source = R"(
    func findMaxScore() {
      boards = executeQuery("from Board as b where b.rnd_id = 1");
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
  )";
  auto program = ParseProgram(source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Function* fn = program->Find("findMaxScore");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->body.size(), 4u);
  EXPECT_EQ(fn->body[0]->kind(), StmtKind::kAssign);
  EXPECT_EQ(fn->body[2]->kind(), StmtKind::kForEach);
  EXPECT_EQ(fn->body[3]->kind(), StmtKind::kReturn);

  // Getter normalization: t.getP1() -> t.p1
  const StmtPtr& loop = fn->body[2];
  const StmtPtr& first = loop->body()[0];
  ASSERT_EQ(first->kind(), StmtKind::kAssign);
  EXPECT_EQ(first->expr()->kind(), ExprKind::kFieldAccess);
  EXPECT_EQ(first->expr()->name(), "p1");
}

TEST(ImpParserTest, IfElseChain) {
  auto program = ParseProgram(R"(
    func f(x) {
      if (x > 10) { y = 1; }
      else if (x > 5) { y = 2; }
      else { y = 3; }
      return y;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const StmtPtr& s = program->functions[0].body[0];
  ASSERT_EQ(s->kind(), StmtKind::kIf);
  ASSERT_EQ(s->else_body().size(), 1u);
  EXPECT_EQ(s->else_body()[0]->kind(), StmtKind::kIf);
}

TEST(ImpParserTest, MethodCallsAndCollections) {
  auto program = ParseProgram(R"(
    func g() {
      names = list();
      rows = executeQuery("SELECT * FROM t");
      for (r : rows) {
        names.append(r.name);
      }
      return names;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& loop = program->functions[0].body[2];
  const auto& call = loop->body()[0];
  ASSERT_EQ(call->kind(), StmtKind::kExprStmt);
  EXPECT_EQ(call->expr()->kind(), ExprKind::kMethodCall);
  EXPECT_EQ(call->expr()->name(), "append");
  EXPECT_EQ(call->expr()->object()->name(), "names");
}

TEST(ImpParserTest, WhileBreakPrint) {
  auto program = ParseProgram(R"(
    func h(n) {
      i = 0;
      while (i < n) {
        if (i == 5) { break; }
        print(i);
        i = i + 1;
      }
      return i;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& loop = program->functions[0].body[1];
  EXPECT_EQ(loop->kind(), StmtKind::kWhile);
  EXPECT_EQ(loop->body()[0]->body()[0]->kind(), StmtKind::kBreak);
  EXPECT_EQ(loop->body()[1]->kind(), StmtKind::kPrint);
}

TEST(ImpParserTest, OperatorPrecedence) {
  auto program = ParseProgram("func p() { x = 1 + 2 * 3 > 6 && true; return x; }");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ExprPtr& e = program->functions[0].body[0]->expr();
  // Top: &&
  ASSERT_EQ(e->kind(), ExprKind::kBinary);
  EXPECT_EQ(e->bin_op(), BinOp::kAnd);
  // Left of &&: >
  EXPECT_EQ(e->arg(0)->bin_op(), BinOp::kGt);
  // Left of >: +, whose right child is *
  EXPECT_EQ(e->arg(0)->arg(0)->bin_op(), BinOp::kAdd);
  EXPECT_EQ(e->arg(0)->arg(0)->arg(1)->bin_op(), BinOp::kMul);
}

TEST(ImpParserTest, TernaryExpression) {
  auto program = ParseProgram("func t(a, b) { m = a > b ? a : b; return m; }");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->functions[0].body[0]->expr()->kind(),
            ExprKind::kTernary);
}

TEST(ImpParserTest, MultipleFunctionsAndParams) {
  auto program = ParseProgram(R"(
    func helper(a, b) { return a + b; }
    func main() { return helper(1, 2); }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->functions.size(), 2u);
  EXPECT_EQ(program->functions[0].params,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(program->Find("main"), nullptr);
  EXPECT_EQ(program->Find("missing"), nullptr);
}

TEST(ImpParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("").ok());
  EXPECT_FALSE(ParseProgram("func f( { }").ok());
  EXPECT_FALSE(ParseProgram("func f() { x = ; }").ok());
  EXPECT_FALSE(ParseProgram("func f() { if x { } }").ok());
  EXPECT_FALSE(ParseProgram("func f() { for (x in y) { } }").ok());
  EXPECT_FALSE(ParseProgram("garbage").ok());
}

TEST(ImpPrinterTest, RoundTripThroughPrinter) {
  const char* source = R"(func f(n) {
  total = 0;
  rows = executeQuery("SELECT * FROM t WHERE t.x = ?", n);
  for (r : rows) {
    if ((r.v > 0 && r.v < 10)) {
      total = (total + r.v);
    } else {
      skipped.append(r.v);
    }
  }
  print(total);
  return total;
}
)";
  auto p1 = ParseProgram(source);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  std::string printed = p1->ToString();
  auto p2 = ParseProgram(printed);
  ASSERT_TRUE(p2.ok()) << "printed:\n" << printed << "\n"
                       << p2.status().ToString();
  // Printing is a fixpoint after one round.
  EXPECT_EQ(printed, p2->ToString());
}

// Hostile nesting is a parse error, not a stack overflow: 100,000
// levels of parentheses, prefix operators, nested statements, or an
// `else if` chain fail cleanly, while nesting right at kMaxParseDepth
// still parses.
TEST(ImpParserTest, NestingDepthIsBounded) {
  constexpr int kHostile = 100000;
  auto repeat = [](const std::string& piece, int n) {
    std::string out;
    out.reserve(piece.size() * n);
    for (int i = 0; i < n; ++i) out += piece;
    return out;
  };
  const std::string hostile[] = {
      "func f() { return " + repeat("(", kHostile) + "1" +
          repeat(")", kHostile) + "; }",
      "func f(x) { return " + repeat("!", kHostile) + "x; }",
      "func f() { return " + repeat("- ", kHostile) + "1; }",
      "func f(x) { " + repeat("while (x) { ", kHostile) +
          repeat("} ", kHostile) + "}",
      "func f(x) { " + repeat("if (x) ", kHostile) + "return 1; }",
      "func f(x) { if (x) return 1;" + repeat(" else if (x) return 1;",
                                              kHostile) + " }",
  };
  for (const std::string& source : hostile) {
    auto program = ParseProgram(source);
    ASSERT_FALSE(program.ok()) << source.substr(0, 40);
    EXPECT_EQ(program.status().code(), StatusCode::kParseError)
        << program.status().ToString();
  }
  // The return statement is one level and its expression another, so
  // kMaxParseDepth - 2 parentheses are the most that fit.
  auto at_limit = [&](int parens) {
    return ParseProgram("func f() { return " + repeat("(", parens) + "1" +
                        repeat(")", parens) + "; }");
  };
  auto fits = at_limit(kMaxParseDepth - 2);
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
  auto over = at_limit(kMaxParseDepth - 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace eqsql::frontend
