// Reproduces the paper's Figure 11 (Experiment 8): the JobPortal
// star-schema report (Figure 12) executed four ways —
//   Original:  1 outer query + up to 4 scalar queries per applicant.
//   Batch:     batching [11] — ship a parameter table, run one
//              set-oriented query per query site (4 sites), merge
//              client-side; pays the parameter-table overhead.
//   Prefetch:  prefetching [19] — same queries as Original, but their
//              round-trip latency overlaps with computation.
//   EqSQL:     the single OUTER APPLY query extracted by rule T7
//              (paper Figure 13).
//
// Expected shape (log scale in the paper): EqSQL improves on Original
// by up to two orders of magnitude at 1000 iterations and on
// Batch/Prefetch by up to one order of magnitude; Batch beats Prefetch
// at large N, loses at small N (parameter-table overhead).

#include <cstdio>
#include <map>

#include "bench/perf_util.h"
#include "core/optimizer.h"
#include "net/connection.h"
#include "frontend/parser.h"
#include "workloads/benchmark_apps.h"
#include "workloads/wilos_samples.h"

namespace {

using eqsql::catalog::DataType;
using eqsql::catalog::Row;
using eqsql::catalog::Schema;
using eqsql::catalog::Value;

/// The batching [11] execution strategy, hand-derived for Figure 12:
/// one parameter table + four batched joins + client-side merge join.
eqsql::bench::PerfResult RunBatched(eqsql::storage::Database* db) {
  eqsql::net::Connection conn(db);
  auto outer = eqsql::bench::ValueOrDie(
      conn.Perform(eqsql::net::Request::Query("SELECT * FROM applicants AS a"))
          .TakeResultSet(),
      "outer query");

  // Ship (aid, mode) to the server as a parameter table.
  Schema param_schema({{"aid", DataType::kInt64},
                       {"mode", DataType::kString}});
  std::vector<Row> params;
  size_t id_idx = *outer.schema->IndexOf("id");
  size_t mode_idx = *outer.schema->IndexOf("mode");
  for (const Row& row : outer.rows) {
    params.push_back({row[id_idx], row[mode_idx]});
  }
  eqsql::bench::CheckOk(
      conn.CreateTempTable("tmp_params", param_schema, params),
      "create param table");

  // One batched query per scalar-query site.
  const char* batched[] = {
      "SELECT t.aid AS aid, d.phone AS v FROM details AS d JOIN tmp_params "
      "AS t ON d.aid = t.aid",
      "SELECT t.aid AS aid, f.verdict AS v FROM feedback1 AS f JOIN "
      "tmp_params AS t ON f.aid = t.aid",
      "SELECT t.aid AS aid, f.verdict AS v FROM feedback2 AS f JOIN "
      "tmp_params AS t ON f.aid = t.aid",
      "SELECT t.aid AS aid, e.degree AS v FROM education AS e JOIN "
      "tmp_params AS t ON e.aid = t.aid AND t.mode = 'online'",
  };
  std::vector<std::map<int64_t, std::string>> lookups(4);
  for (int i = 0; i < 4; ++i) {
    auto rs = eqsql::bench::ValueOrDie(
        conn.Perform(eqsql::net::Request::Query(batched[i])).TakeResultSet(),
        "batched query");
    for (const Row& row : rs.rows) {
      lookups[i][row[0].AsInt()] =
          row[1].is_null() ? "NULL" : row[1].AsString();
    }
  }
  conn.DropTempTable("tmp_params");

  // Client-side merge (assembles the same report lines).
  eqsql::bench::PerfResult out;
  for (const Row& row : outer.rows) {
    int64_t id = row[id_idx].AsInt();
    std::string line = "(" + std::to_string(id);
    for (int i = 0; i < 4; ++i) {
      auto it = lookups[i].find(id);
      line += ", " + (it == lookups[i].end() ? "NULL" : it->second);
    }
    out.printed.push_back(line + ")");
  }
  out.ms = conn.stats().simulated_ms;
  out.bytes = conn.stats().bytes_transferred;
  out.rows = conn.stats().rows_transferred;
  out.round_trips = conn.stats().round_trips;
  out.queries = conn.stats().queries_executed;
  return out;
}

}  // namespace

int main() {
  eqsql::bench::PrintHeader(
      "Figure 11: Original vs Batch vs Prefetch vs EqSQL (JobPortal, "
      "Figure 12)");
  std::printf("%12s %12s %12s %12s %12s\n", "iterations", "Original",
              "Batch", "Prefetch", "EqSQL");

  auto program = eqsql::bench::ValueOrDie(
      eqsql::frontend::ParseProgram(eqsql::workloads::JobPortalProgram()),
      "parse");
  eqsql::core::OptimizeOptions options;
  options.transform.table_keys = eqsql::workloads::WilosTableKeys();
  eqsql::core::EqSqlOptimizer optimizer(options);
  auto optimized = eqsql::bench::ValueOrDie(
      optimizer.Optimize(program, "jobReport"), "optimize");
  if (!optimized.any_extracted()) {
    EQSQL_LOG(Error, "jobReport did not extract");
    return 1;
  }

  for (int n : {10, 100, 500, 1000}) {
    eqsql::storage::Database db;
    eqsql::bench::CheckOk(eqsql::workloads::SetupJobPortalDatabase(&db, n),
                          "setup");
    auto original =
        eqsql::bench::RunInterpreted(program, "jobReport", &db);
    auto batch = RunBatched(&db);
    auto prefetch = eqsql::bench::RunInterpreted(program, "jobReport", &db,
                                                 /*prefetch=*/true);
    auto rewritten =
        eqsql::bench::RunInterpreted(optimized.program, "jobReport", &db);
    if (original.printed != rewritten.printed ||
        original.printed != batch.printed) {
      EQSQL_LOG(Error, "OUTPUT MISMATCH at n=%d", n);
      return 1;
    }
    std::printf("%12d %9.2fms %9.2fms %9.2fms %9.2fms\n", n, original.ms,
                batch.ms, prefetch.ms, rewritten.ms);
  }
  std::printf("\nExtracted SQL (paper Figure 13):\n  %s\n",
              optimized.outcomes[0].sql.empty()
                  ? "(none)"
                  : optimized.outcomes[0].sql[0].c_str());
  return 0;
}
