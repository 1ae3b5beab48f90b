// Cost-based alternative selection (Cobra-style): the selector must
// enumerate extraction / batching / interpretation for one program,
// price each against live table statistics, rank feasible-cheapest
// first, and mark exactly one winner. The served EXPLAIN EXTRACTION
// payload carries the ranked list (text + JSON) and the plan cache
// re-prices whenever the database's stats epoch moves, so the chosen
// strategy flips as data grows past the crossover.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "core/alternative_selector.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/api.h"
#include "net/connection.h"
#include "net/server.h"
#include "net/table_stats.h"
#include "storage/database.h"
#include "storage/table.h"

namespace eqsql {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;
using core::AlternativeKind;
using core::ExtractionPlan;
using core::PlanAlternative;

// Per-row point probe into `role` — extractable (T7), batchable (one
// parameterized equality probe), and interpretable. All three
// alternatives are feasible, so the ranking logic is fully exercised.
const char* kApplySrc = R"(
  func roleNames() {
    out = list();
    rows = executeQuery("SELECT * FROM wuser AS u");
    for (u : rows) {
      r = scalar(executeQuery("SELECT r.name AS name FROM role AS r WHERE r.id = ?", u.role_id));
      out.append(pair(u.login, r));
    }
    return out;
  }
)";

net::ServerOptions ApplyOptions() {
  net::ServerOptions options;
  options.optimize.transform.table_keys = {{"wuser", "id"}, {"role", "id"}};
  return options;
}

/// Creates wuser (n_users rows) and role (n_roles rows) in `server`.
void Populate(net::Server* server, int64_t n_users, int64_t n_roles) {
  auto wuser = *server->db()->CreateTable(
      "wuser", Schema({{"id", DataType::kInt64},
                       {"login", DataType::kString},
                       {"role_id", DataType::kInt64}}));
  for (int64_t i = 0; i < n_users; ++i) {
    ASSERT_TRUE(wuser
                    ->Insert({Value::Int(i),
                              Value::String("u" + std::to_string(i)),
                              Value::Int(i % n_roles)})
                    .ok());
  }
  auto role = *server->db()->CreateTable(
      "role",
      Schema({{"id", DataType::kInt64}, {"name", DataType::kString}}));
  for (int64_t i = 0; i < n_roles; ++i) {
    ASSERT_TRUE(
        role->Insert({Value::Int(i), Value::String("r" + std::to_string(i))})
            .ok());
  }
}

TEST(SelectionTest, PlanListsAllThreeAlternativesRankedAndPriced) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();

  auto plan = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->alternatives.size(), 3u);

  // Every strategy is present and feasible for this program.
  for (AlternativeKind kind :
       {AlternativeKind::kExtractedSql, AlternativeKind::kBatching,
        AlternativeKind::kInterpreted}) {
    const PlanAlternative* alt = (*plan)->Find(kind);
    ASSERT_NE(alt, nullptr) << core::AlternativeKindName(kind);
    EXPECT_TRUE(alt->feasible) << core::AlternativeKindName(kind)
                               << ": " << alt->skip_reason;
    EXPECT_GT(alt->est_cost_ms, 0.0);
    EXPECT_FALSE(alt->detail.empty());
  }

  // Ranked cheapest-first with exactly one winner, which leads.
  const auto& alts = (*plan)->alternatives;
  EXPECT_LE(alts[0].est_cost_ms, alts[1].est_cost_ms);
  EXPECT_LE(alts[1].est_cost_ms, alts[2].est_cost_ms);
  int chosen_count = 0;
  for (const PlanAlternative& a : alts) chosen_count += a.chosen ? 1 : 0;
  EXPECT_EQ(chosen_count, 1);
  EXPECT_TRUE(alts[0].chosen);
  EXPECT_EQ(alts[0].kind, (*plan)->chosen);
}

TEST(SelectionTest, ExplainRendersChosenAndLosingCosts) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();

  auto report = session->ExplainExtraction(kApplySrc, "roleNames");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, net::Explain::Kind::kExtraction);

  const std::string& text = report->text;
  // The alternatives section lists every strategy with its estimated
  // cost; the winner is marked and named.
  EXPECT_NE(text.find("alternatives:"), std::string::npos) << text;
  EXPECT_NE(text.find("* extracted-sql: est "), std::string::npos) << text;
  EXPECT_NE(text.find("* batching: est "), std::string::npos) << text;
  EXPECT_NE(text.find("* interpreted: est "), std::string::npos) << text;
  EXPECT_NE(text.find(" ms (chosen)"), std::string::npos) << text;
  EXPECT_NE(text.find("chosen strategy: "), std::string::npos) << text;
  // Losing alternatives keep their prices: three "est ... ms" lines but
  // only one "(chosen)" marker.
  size_t est_lines = 0;
  for (size_t at = text.find(": est "); at != std::string::npos;
       at = text.find(": est ", at + 1)) {
    ++est_lines;
  }
  EXPECT_EQ(est_lines, 3u) << text;
  EXPECT_EQ(text.find(" (chosen)"), text.rfind(" (chosen)")) << text;

  const std::string& json = report->json;
  EXPECT_NE(json.find("\"alternatives\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"extracted-sql\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"batching\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"interpreted\""), std::string::npos);
  EXPECT_NE(json.find("\"est_cost_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"chosen\":\""), std::string::npos);
  EXPECT_NE(json.find("\"stats_epoch\":\""), std::string::npos);

  // Byte-deterministic: the same request renders the same report.
  auto again = session->ExplainExtraction(kApplySrc, "roleNames");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->text, text);
  EXPECT_EQ(again->json, json);
}

TEST(SelectionTest, InfeasibleBatchingCarriesSkipReason) {
  // A pure aggregation loop has no parameterized probe, so batching is
  // declined with a reason while extraction and interpretation price.
  const char* src = R"(
    func total() {
      agg = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.id;
      }
      return agg;
    }
  )";
  net::Server server(ApplyOptions());
  Populate(&server, 16, 4);
  std::unique_ptr<net::Session> session = server.Connect();

  auto plan = session->SelectPlan(src, "total");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PlanAlternative* batching =
      (*plan)->Find(AlternativeKind::kBatching);
  ASSERT_NE(batching, nullptr);
  EXPECT_FALSE(batching->feasible);
  EXPECT_FALSE(batching->chosen);
  EXPECT_FALSE(batching->skip_reason.empty());
  // Infeasible strategies rank after every feasible one.
  EXPECT_EQ((*plan)->alternatives.back().kind, AlternativeKind::kBatching);

  auto report = session->ExplainExtraction(src, "total");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->text.find("* batching: not applicable -- "),
            std::string::npos)
      << report->text;
}

TEST(SelectionTest, UnchangedDatabaseServesCachedPlan) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();

  auto first = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(second.ok());
  // Same epoch, same line: the cache hands back the identical object.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_GE(server.stats().plan_cache.hits, 1);
}

TEST(SelectionTest, CrossoverFlipsWinnerAndInvalidatesCachedPlan) {
  // kApplySrc's per-row probe folded into a string: extraction refuses
  // the concat fold, so the contest is between the interpreted original
  // and batching. With a small cursor the few per-row round trips
  // undercut batching's parameter-table upload; growing the cursor past
  // the crossover moves the stats epoch (invalidating the cached
  // selection) and the re-priced plan must flip to batching.
  const char* src = R"(
    func roleFold() {
      s = "";
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        r = scalar(executeQuery("SELECT r.name AS name FROM role AS r WHERE r.id = ?", u.role_id));
        s = concat(s, pair(u.login, r));
      }
      return s;
    }
  )";
  net::Server server(ApplyOptions());
  Populate(&server, 4, 64);
  std::unique_ptr<net::Session> session = server.Connect();

  auto small = session->SelectPlan(src, "roleFold");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_FALSE((*small)->Find(AlternativeKind::kExtractedSql)->feasible);
  EXPECT_EQ((*small)->chosen, AlternativeKind::kInterpreted)
      << core::AlternativeKindName((*small)->chosen);
  const int64_t invalidations_before = server.stats().plan_cache.invalidations;

  // Grow wuser well past the crossover point.
  {
    auto wuser = *server.db()->GetTable("wuser");
    for (int64_t i = 4; i < 4000; ++i) {
      ASSERT_TRUE(wuser
                      ->Insert({Value::Int(i),
                                Value::String("u" + std::to_string(i)),
                                Value::Int(i % 64)})
                      .ok());
    }
  }

  auto big = session->SelectPlan(src, "roleFold");
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  // The stale line was invalidated by the epoch move, not served.
  EXPECT_GT(server.stats().plan_cache.invalidations, invalidations_before);
  EXPECT_NE(big->get(), small->get());
  EXPECT_NE((*big)->stats_epoch, (*small)->stats_epoch);
  // 4,000 per-row round trips now dwarf one upload and one join.
  EXPECT_EQ((*big)->chosen, AlternativeKind::kBatching)
      << core::AlternativeKindName((*big)->chosen);
  const PlanAlternative* interp =
      (*big)->Find(AlternativeKind::kInterpreted);
  ASSERT_NE(interp, nullptr);
  EXPECT_GT(interp->est_cost_ms,
            (*big)->Find((*big)->chosen)->est_cost_ms);
}

// A nested-loop join over two prefetched cursors issues 2 queries. The
// interpreted alternative is priced as those 2 round trips plus its
// client loop, so the one extracted join wins at every size, and the
// round trips it reports are the ones running it bills.
TEST(SelectionTest, JoinProgramPicksExtractedSqlAndReportsItsRoundTrips) {
  const char* src = R"(
    func userRoles() {
      result = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      roles = executeQuery("SELECT * FROM role AS r");
      for (u : users) {
        for (r : roles) {
          if (u.role_id == r.id) {
            result.append(pair(u.login, r.name));
          }
        }
      }
      return result;
    }
  )";
  net::Server server(ApplyOptions());
  Populate(&server, 4, 64);
  std::unique_ptr<net::Session> session = server.Connect();
  Result<frontend::Program> original = frontend::ParseProgram(src);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  for (int64_t users : {4, 4000}) {
    auto wuser = *server.db()->GetTable("wuser");
    for (auto i = static_cast<int64_t>(wuser->row_count()); i < users; ++i) {
      ASSERT_TRUE(wuser
                      ->Insert({Value::Int(i),
                                Value::String("u" + std::to_string(i)),
                                Value::Int(i % 64)})
                      .ok());
    }
    auto plan = session->SelectPlan(src, "userRoles");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ((*plan)->chosen, AlternativeKind::kExtractedSql)
        << users << " users: " << core::AlternativeKindName((*plan)->chosen);
    const PlanAlternative* interp =
        (*plan)->Find(AlternativeKind::kInterpreted);
    ASSERT_NE(interp, nullptr);
    EXPECT_EQ(interp->detail.rfind("2 round trip(s)", 0), 0u)
        << interp->detail;

    net::Connection conn(server.db());
    interp::Interpreter run(&*original, &conn);
    ASSERT_TRUE(run.Run("userRoles").ok());
    EXPECT_EQ(conn.stats().round_trips, 2) << users << " users";
  }
}

// Every executed statement bills one client op, so a longer loop body
// costs more: two cursor loops that differ only in body length differ
// in price by exactly the extra statements times the cursor's rows.
TEST(SelectionTest, LoopBodyLengthMovesTheInterpretedPrice) {
  auto source = [](int body_statements) {
    std::string src =
        "func sum() {\n  s = 0;\n"
        "  rows = executeQuery(\"SELECT * FROM wuser AS u\");\n"
        "  for (u : rows) {\n";
    for (int i = 0; i < body_statements; ++i) src += "    s = s + u.id;\n";
    return src + "  }\n  return s;\n}\n";
  };
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();

  auto short_plan = session->SelectPlan(source(3), "sum");
  auto long_plan = session->SelectPlan(source(300), "sum");
  ASSERT_TRUE(short_plan.ok()) << short_plan.status().ToString();
  ASSERT_TRUE(long_plan.ok()) << long_plan.status().ToString();
  const double short_ms =
      (*short_plan)->Find(AlternativeKind::kInterpreted)->est_cost_ms;
  const double long_ms =
      (*long_plan)->Find(AlternativeKind::kInterpreted)->est_cost_ms;
  EXPECT_NEAR(long_ms - short_ms,
              297 * 64 * server.options().cost_model.client_cost_per_op_ms,
              1e-9);
}

// Re-pricing selects against the parse the optimize line kept: a cold
// selection parses the program once, and a re-selection after a write
// (which moves the stats epoch) parses it zero times, yet still probes
// the original loop for the batching alternative.
TEST(SelectionTest, RepricingSelectsAgainstTheOptimizeLinesParse) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();

  const uint64_t cold_before = frontend::ParseProgramCallsOnThisThread();
  auto cold = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(frontend::ParseProgramCallsOnThisThread() - cold_before, 1u);

  const int64_t invalidations = server.stats().plan_cache.invalidations;
  ASSERT_TRUE((*server.db()->GetTable("role"))
                  ->Insert({Value::Int(99), Value::String("r99")})
                  .ok());
  const uint64_t warm_before = frontend::ParseProgramCallsOnThisThread();
  auto repriced = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(repriced.ok()) << repriced.status().ToString();
  EXPECT_EQ(frontend::ParseProgramCallsOnThisThread(), warm_before);
  EXPECT_GT(server.stats().plan_cache.invalidations, invalidations);
  EXPECT_NE(repriced->get(), cold->get());
  const PlanAlternative* batching =
      (*repriced)->Find(AlternativeKind::kBatching);
  ASSERT_NE(batching, nullptr);
  EXPECT_TRUE(batching->feasible) << batching->skip_reason;
}

// The stats epoch folds exactly what the selector prices. Committed
// UPDATEs that keep every row's width get the cached selection back
// with no invalidation; an INSERT, a width-changing UPDATE and a CREATE
// INDEX each change a priced statistic and re-price it.
TEST(SelectionTest, OnlyPricedStatisticsRepriceTheCachedPlan) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::unique_ptr<net::Session> session = server.Connect();
  auto run = [&session](const std::string& sql) {
    net::Outcome out = session->Execute(net::Request::Statement(sql));
    ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
  };

  auto cached = session->SelectPlan(kApplySrc, "roleNames");
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const int64_t invalidations = server.stats().plan_cache.invalidations;
  for (int i = 0; i < 5; ++i) {
    run("UPDATE role SET name = 'q" + std::to_string(i) + "' WHERE id = 3");
    run("UPDATE wuser SET role_id = " + std::to_string(i) + " WHERE id = 9");
    auto again = session->SelectPlan(kApplySrc, "roleNames");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), cached->get()) << "same-width update " << i;
  }
  EXPECT_EQ(server.stats().plan_cache.invalidations, invalidations);

  int64_t expected = invalidations;
  for (const char* sql :
       {"INSERT INTO role VALUES (99, 'r99')",
        "UPDATE role SET name = 'a much longer role name' WHERE id = 3",
        "CREATE INDEX role_name ON role (name)"}) {
    run(sql);
    auto repriced = session->SelectPlan(kApplySrc, "roleNames");
    ASSERT_TRUE(repriced.ok());
    EXPECT_NE(repriced->get(), cached->get()) << sql;
    EXPECT_EQ(server.stats().plan_cache.invalidations, ++expected) << sql;
    cached = repriced;
  }
}

// A selection priced while CREATE INDEX is still backfilling cannot see
// the index, since only ready indexes are priced. Once the index is
// ready the cached selection is stale, so the next EXPLAIN EXTRACTION
// re-prices and names the index nested loop.
TEST(SelectionTest, PlanPricedDuringIndexBackfillIsRepricedOnceReady) {
  const char* src = R"(
    func userRoles() {
      result = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      roles = executeQuery("SELECT * FROM role AS r");
      for (u : users) {
        for (r : roles) {
          if (u.role_id == r.id) {
            result.append(pair(u.login, r.name));
          }
        }
      }
      return result;
    }
  )";
  net::Server server(ApplyOptions());
  Populate(&server, 4, 64);
  std::unique_ptr<net::Session> session = server.Connect();
  const std::string kLine = "physical plan: index-nested-loop on role(id)";

  std::shared_ptr<storage::Table> role = server.db()->SnapshotTable("role");
  ASSERT_NE(role, nullptr);
  bool ran = false;
  Status built = role->CreateIndex(
      "role_id_idx", {"id"},
      [&](std::vector<std::function<void()>> tasks) {
        auto during = session->SelectPlan(src, "userRoles");
        ASSERT_TRUE(during.ok()) << during.status().ToString();
        auto text = session->ExplainExtraction(src, "userRoles");
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        EXPECT_EQ(text->text.find(kLine), std::string::npos) << text->text;
        for (auto& task : tasks) task();
        ran = true;
      });
  ASSERT_TRUE(built.ok()) << built.ToString();
  ASSERT_TRUE(ran);

  auto after = session->ExplainExtraction(src, "userRoles");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->text.find(kLine), std::string::npos) << after->text;
}

// The selector's statistics pass reads every registered table while
// other sessions upload and drop batching parameter tables. A dropped
// table is freed as soon as its last reference goes, so the pass must
// hold a reference for as long as it reads one; a raw registry pointer
// reads freed memory (a crash, or a report under the sanitizers).
TEST(SelectionTest, GatherTableStatsSurvivesConcurrentTempTableDrop) {
  net::Server server(ApplyOptions());
  Populate(&server, 64, 16);
  std::atomic<bool> done{false};
  std::thread churn([&] {
    std::unique_ptr<net::Session> session = server.Connect();
    for (int i = 0; i < 300; ++i) {
      std::vector<catalog::Row> rows;
      for (int64_t r = 0; r < 512; ++r) {
        rows.push_back({Value::Int(r), Value::Int(r * 3)});
      }
      Status created = session->CreateTempTable(
          "__churn_params",
          Schema({{"rid", DataType::kInt64}, {"p0", DataType::kInt64}}),
          std::move(rows));
      EXPECT_TRUE(created.ok()) << created.ToString();
      session->DropTempTable("__churn_params");
    }
    done.store(true);
  });
  int gathered = 0;
  while (!done.load()) {
    core::TableStats stats = net::GatherTableStats(server.db());
    EXPECT_EQ(stats.table_rows.at("wuser"), 64);
    // Temp tables live in their session, never in the catalog.
    EXPECT_EQ(stats.table_rows.count("__churn_params"), 0u);
    ++gathered;
  }
  churn.join();
  EXPECT_GT(gathered, 0);
}

}  // namespace
}  // namespace eqsql
