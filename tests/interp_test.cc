#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"

namespace eqsql::interp {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

class InterpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = *db_.CreateTable("nums", Schema({{"id", DataType::kInt64},
                                              {"v", DataType::kInt64}}));
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * i)}).ok());
    }
  }

  Result<RtValue> Run(const char* src, const std::string& fn,
                      std::vector<RtValue> args = {}) {
    auto program = frontend::ParseProgram(src);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    programs_.push_back(std::move(*program));
    conns_.push_back(std::make_unique<net::Connection>(&db_));
    interps_.push_back(std::make_unique<Interpreter>(&programs_.back(),
                                                     conns_.back().get()));
    return interps_.back()->Run(fn, std::move(args));
  }

  Interpreter& last_interp() { return *interps_.back(); }
  net::Connection& last_conn() { return *conns_.back(); }

  storage::Database db_;
  std::vector<frontend::Program> programs_;
  std::vector<std::unique_ptr<net::Connection>> conns_;
  std::vector<std::unique_ptr<Interpreter>> interps_;
};

TEST_F(InterpTest, ArithmeticAndControlFlow) {
  auto r = Run(R"(
    func f(n) {
      total = 0;
      i = 1;
      while (i <= n) {
        if (i % 2 == 0) { total = total + i; }
        i = i + 1;
      }
      return total;
    }
  )", "f", {RtValue(Value::Int(10))});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().AsInt(), 30);  // 2+4+6+8+10
}

TEST_F(InterpTest, QueryIterationAndFields) {
  auto r = Run(R"(
    func f() {
      s = 0;
      rows = executeQuery("SELECT * FROM nums AS n");
      for (n : rows) { s = s + n.v; }
      return s;
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().AsInt(), 55);  // 1+4+9+16+25
}

TEST_F(InterpTest, CollectionsShareReferences) {
  // Java-style reference semantics: aliasing a list aliases its state.
  auto r = Run(R"(
    func f() {
      a = list();
      b = a;
      a.append(1);
      b.append(2);
      return a;
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DisplayString(), "[1, 2]");
}

TEST_F(InterpTest, SetDedupsAndKeepsOrder) {
  auto r = Run(R"(
    func f() {
      s = set();
      s.insert(3); s.insert(1); s.insert(3); s.insert(2);
      return s;
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DisplayString(), "{3, 1, 2}");
}

TEST_F(InterpTest, BuiltinsMaxMinIgnoreNull) {
  auto r = Run("func f() { return max(3, null, 7, min(2, null)); }", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scalar().AsInt(), 7);
}

TEST_F(InterpTest, CoalesceScalarToSet) {
  auto r = Run(R"(
    func f() {
      empty = executeQuery("SELECT n.v AS v FROM nums AS n WHERE n.v > 999");
      x = coalesce(scalar(empty), -1);
      s = toSet(executeQuery("SELECT n.id AS id FROM nums AS n WHERE n.id < 3"));
      return pair(x, s);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(-1, {1, 2})");
}

TEST_F(InterpTest, BreakAndReturnInLoops) {
  auto r = Run(R"(
    func f() {
      rows = executeQuery("SELECT * FROM nums AS n");
      for (n : rows) {
        if (n.v > 5) { return n.id; }
      }
      return -1;
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scalar().AsInt(), 3);  // first v>5 is 9 at id 3

  auto r2 = Run(R"(
    func g() {
      c = 0;
      rows = executeQuery("SELECT * FROM nums AS n");
      for (n : rows) {
        if (n.id == 3) { break; }
        c = c + 1;
      }
      return c;
    }
  )", "g");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->scalar().AsInt(), 2);
}

TEST_F(InterpTest, PrintCapture) {
  auto r = Run(R"(
    func f() {
      print("hello");
      print(1 + 2);
      print(pair("a", 1));
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(last_interp().printed(),
            (std::vector<std::string>{"hello", "3", "(a, 1)"}));
}

TEST_F(InterpTest, UserFunctionsAndRecursionGuard) {
  auto r = Run(R"(
    func fact(n) {
      if (n <= 1) { return 1; }
      return n * fact(n - 1);
    }
    func main() { return fact(6); }
  )", "main");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().AsInt(), 720);

  auto loop = Run(R"(
    func spin(n) { return spin(n); }
    func main() { return spin(1); }
  )", "main");
  ASSERT_FALSE(loop.ok());
  EXPECT_EQ(loop.status().code(), StatusCode::kRuntimeError);
}

TEST_F(InterpTest, RuntimeErrors) {
  EXPECT_FALSE(Run("func f() { return undefined_var; }", "f").ok());
  EXPECT_FALSE(Run("func f() { return missing_fn(1); }", "f").ok());
  EXPECT_FALSE(Run("func f() { x = 1; return x.field; }", "f").ok());
  EXPECT_FALSE(
      Run("func f() { for (x : 42) { return x; } return 0; }", "f").ok());
  EXPECT_FALSE(Run("func f(a, b) { return a; }", "f").ok());  // arity
  EXPECT_FALSE(
      Run(R"(func f() { rows = executeQuery("NOT SQL"); return 0; })", "f")
          .ok());
}

TEST_F(InterpTest, ExecuteUpdateRunsRealDml) {
  auto r = Run(R"(
    func f() {
      return executeUpdate("UPDATE nums SET v = 0");
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(last_conn().stats().round_trips, 1);
  // The update really executes: every row's v column is zeroed, and the
  // affected-row count comes back to the program.
  std::vector<catalog::Row> rows = (*db_.GetTable("nums"))->rows();
  EXPECT_EQ(r->scalar().AsInt(), static_cast<int64_t>(rows.size()));
  for (const catalog::Row& row : rows) EXPECT_EQ(row[1].AsInt(), 0);
}

TEST_F(InterpTest, ExecuteUpdateRunsRealDelete) {
  const size_t before = (*db_.GetTable("nums"))->rows().size();
  auto r = Run(R"(
    func f() {
      return executeUpdate("DELETE FROM nums WHERE v >= 2");
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // DELETE joined the DML grammar with the MVCC storage layer: the
  // matching rows really disappear and the affected count comes back.
  EXPECT_EQ(last_conn().stats().round_trips, 1);
  std::vector<catalog::Row> rows = (*db_.GetTable("nums"))->rows();
  EXPECT_EQ(r->scalar().AsInt(),
            static_cast<int64_t>(before - rows.size()));
  for (const catalog::Row& row : rows) EXPECT_LT(row[1].AsInt(), 2);
}

TEST_F(InterpTest, ExecuteUpdateUnparsableFallsBackToSimulation) {
  const size_t before = (*db_.GetTable("nums"))->rows().size();
  auto r = Run(R"(
    func f() {
      return executeUpdate("TRUNCATE TABLE nums");
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  // TRUNCATE is not in the DML grammar: the connection simulates the
  // round trip (charges cost, touches nothing, reports 0 affected).
  EXPECT_EQ(r->scalar().AsInt(), 0);
  EXPECT_EQ(last_conn().stats().round_trips, 1);
  EXPECT_EQ((*db_.GetTable("nums"))->rows().size(), before);
}

TEST_F(InterpTest, StringConcatAndComparison) {
  auto r = Run(R"(
    func f() {
      s = "a" + 1 + "b";
      eq = s == "a1b";
      return pair(s, eq);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(a1b, TRUE)");
}

TEST_F(InterpTest, SizeAndContains) {
  auto r = Run(R"(
    func f() {
      l = list();
      l.append(5);
      l.append(6);
      rows = executeQuery("SELECT * FROM nums AS n");
      return pair(pair(l.size(), l.contains(6)), rows.size());
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "((2, TRUE), 5)");
}

TEST_F(InterpTest, TernaryEvaluation) {
  auto r = Run("func f(x) { return x > 0 ? \"pos\" : \"neg\"; }", "f",
               {RtValue(Value::Int(-2))});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DisplayString(), "neg");
}

TEST_F(InterpTest, SingleColumnResultDisplaysAsScalarList) {
  auto r = Run(R"(
    func f() {
      return executeQuery("SELECT n.id AS id FROM nums AS n WHERE n.id < 3");
    }
  )", "f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DisplayString(), "[1, 2]");
}

TEST_F(InterpTest, ShortCircuitBooleans) {
  // The right operand must not evaluate when short-circuited.
  auto r = Run(R"(
    func boom() { return missing(); }
    func f() {
      a = false && scalar(executeQuery("SELECT * FROM nope"));
      b = true || scalar(executeQuery("SELECT * FROM nope"));
      return pair(a, b);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(FALSE, TRUE)");
}

TEST_F(InterpTest, FieldSiteServesRowsOfDifferentSchemas) {
  // One `r.x` site sees two result sets with x at different positions.
  // The first set is dropped before the second is fetched, so a cache
  // keyed by a freed schema's address could serve its stale index.
  auto r = Run(R"(
    func getx(r) { return r.x; }
    func f() {
      a = executeQuery("SELECT n.id AS x, n.v AS y FROM nums AS n WHERE n.id = 2");
      for (r : a) { first = getx(r); }
      a = 0;
      r = 0;
      b = executeQuery("SELECT n.v AS y, n.id AS x FROM nums AS n WHERE n.id = 3");
      for (r : b) { second = getx(r); }
      return pair(first, second);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(2, 3)");
}

TEST_F(InterpTest, VariableAssignedOnUntakenBranchIsUndefined) {
  auto r = Run("func f(n) { if (n > 0) { x = 1; } return x; }", "f",
               {RtValue(Value::Int(0))});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  EXPECT_EQ(r.status().message(), "undefined variable: x");
}

TEST_F(InterpTest, RecursiveCallsGetTheirOwnFrames) {
  // With one frame shared across the recursion, the innermost x = 1
  // would overwrite every caller's x and f(3) would be 3.
  auto r = Run(R"(
    func f(n) {
      if (n == 0) { return 0; }
      x = n;
      y = f(n - 1);
      return x + y;
    }
  )", "f", {RtValue(Value::Int(3))});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().AsInt(), 6);
}

TEST_F(InterpTest, CursorVariableHoldsLastRowAfterLoop) {
  auto r = Run(R"(
    func f() {
      c = 0;
      rows = executeQuery("SELECT * FROM nums AS n");
      for (n : rows) { c = c + 1; }
      return pair(c, n.v, n);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(5, 25, (5, 25))");
}

TEST_F(InterpTest, ForOverListIteratesASnapshot) {
  auto r = Run(R"(
    func f() {
      l = list();
      l.append(1);
      l.append(2);
      for (x : l) { l.append(x); }
      return pair(l.size(), l);
    }
  )", "f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->DisplayString(), "(4, [1, 2, 1, 2])");
}

/// Forwards to a Connection and counts the client-side ops charged.
class CountingClient : public net::Client {
 public:
  explicit CountingClient(net::Connection* conn) : conn_(conn) {}
  net::Outcome Perform(net::Request req) override {
    return conn_->Perform(std::move(req));
  }
  void ChargeClientOps(int64_t ops) override {
    ops_ += ops;
    conn_->ChargeClientOps(ops);
  }
  int64_t ops() const { return ops_; }

 private:
  net::Connection* conn_;
  int64_t ops_ = 0;
};

TEST_F(InterpTest, ChargesOneClientOpPerExecutedStatement) {
  // The simulated client clock charges one op per executed statement,
  // compound statements included; conditions, calls and expressions are
  // free. Hand count, per line:
  //   s = 0; rows = ...; for            3
  //   ids 1, 2: if + else assignment    2 x 2
  //   id 3: if + break                  2
  //   i = 0; while                      2
  //   two passes of i = i + 1           2
  //   return, and twice's return        2
  auto program = frontend::ParseProgram(R"(
    func twice(v) { return v + v; }
    func f() {
      s = 0;
      rows = executeQuery("SELECT * FROM nums AS n");
      for (n : rows) {
        if (n.id == 3) {
          break;
        } else {
          s = s + n.v;
        }
      }
      i = 0;
      while (i < 2) { i = i + 1; }
      return twice(s) + i;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  net::Connection conn(&db_);
  CountingClient client(&conn);
  Interpreter interp(&*program, &client);
  auto r = interp.Run("f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().AsInt(), 12);  // twice(1 + 4) + 2
  EXPECT_EQ(client.ops(), 15);
}

}  // namespace
}  // namespace eqsql::interp
