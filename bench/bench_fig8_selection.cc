// Reproduces the paper's Figure 8 (Experiment 5, Selection): a loop
// that filters rows client-side (Wilos sample #6 pattern) versus the
// rewritten query with the predicate pushed into WHERE, at 20%
// selectivity across table sizes.
//
// Expected shape: the transformed program is faster and transfers less
// data; the gap widens as the table grows (only 20% of rows — and only
// two columns — cross the wire).
//
// The rewritten program's wall-clock time is reported next to the
// simulated numbers, so the engine's real speed shows up beside the
// model.
//
// A second "selection phase" exercises cost-based alternative
// selection (Cobra): for each app x size, the server's
// AlternativeSelector picks a strategy against live stats; the picked
// strategy and unconditional extraction both run on the simulated
// clock, and the gate asserts the cost-chosen run is never slower than
// always-extract (with a flat client-loop term added to strategies that
// iterate rows client-side). Chosen-strategy counts land in the
// artifact.
//
// With --json FILE, additionally writes the per-size measurements plus
// the metrics-registry snapshot of the rewritten runs as a machine-
// readable artifact (BENCH_fig8.json in CI).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/perf_util.h"
#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "frontend/parser.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "workloads/benchmark_apps.h"
#include "workloads/wilos_samples.h"

namespace {

struct Measurement {
  int rows;
  eqsql::bench::PerfResult original;
  eqsql::bench::PerfResult rewritten;
  double vector_wall_ms = 0;  // rewritten, wall clock
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One cost-based selection measurement: which strategy the selector
/// picked for (app, rows) and how the pick fared against unconditional
/// extraction on the simulated clock.
struct SelectionRun {
  std::string app;
  int rows = 0;
  std::string chosen;
  double chosen_ms = 0;          // modeled total of the picked strategy
  double always_extract_ms = 0;  // modeled total of always-extract
  std::string alternatives_json;  // the priced list, straight from the plan
};

/// Runs `program` through the interpreter, optionally in batching mode
/// (parameter-table upload + demultiplexed joins).
eqsql::bench::PerfResult RunStrategy(const eqsql::frontend::Program& program,
                                     const std::string& function,
                                     eqsql::storage::Database* db,
                                     bool batching) {
  eqsql::net::Connection conn(db);
  eqsql::interp::Interpreter interp(&program, &conn);
  interp.set_batching(batching);
  auto ret = interp.Run(function);
  if (!ret.ok()) {
    EQSQL_LOG(Error, "run %s: %s", function.c_str(),
              ret.status().ToString().c_str());
    std::abort();
  }
  eqsql::bench::PerfResult out;
  out.ms = conn.stats().simulated_ms;
  out.bytes = conn.stats().bytes_transferred;
  out.rows = conn.stats().rows_transferred;
  out.result = ret->DisplayString();
  out.printed = interp.printed();
  return out;
}

std::string SelectionPhaseJson(const std::vector<SelectionRun>& runs,
                               const std::map<std::string, int>& counts,
                               bool pass) {
  std::string json = "{\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SelectionRun& r = runs[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"app\":\"%s\",\"rows\":%d,\"chosen\":\"%s\","
                  "\"chosen_ms\":%.3f,\"always_extract_ms\":%.3f,"
                  "\"alternatives\":",
                  i == 0 ? "" : ",", r.app.c_str(), r.rows, r.chosen.c_str(),
                  r.chosen_ms, r.always_extract_ms);
    json += buf;
    json += r.alternatives_json + "}";
  }
  json += "],\"chosen_counts\":{";
  bool first = true;
  for (const auto& [kind, n] : counts) {
    if (!first) json += ",";
    first = false;
    json += "\"" + kind + "\":" + std::to_string(n);
  }
  json += "},\"pass\":";
  json += pass ? "true" : "false";
  json += "}";
  return json;
}

bool WriteJson(const char* path, const std::vector<Measurement>& runs,
               const std::string& sql, const std::string& selection_phase,
               const eqsql::obs::MetricsSnapshot& metrics,
               size_t shard_count) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"bench\":\"fig8_selection\",\"runs\":[");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    std::fprintf(f,
                 "%s{\"rows\":%d,\"orig_ms\":%.3f,\"eqsql_ms\":%.3f,"
                 "\"orig_bytes\":%lld,\"eqsql_bytes\":%lld,"
                 "\"orig_rows_transferred\":%lld,"
                 "\"eqsql_rows_transferred\":%lld,\"speedup\":%.3f,"
                 "\"eqsql_vector_wall_ms\":%.3f}",
                 i == 0 ? "" : ",", m.rows, m.original.ms, m.rewritten.ms,
                 static_cast<long long>(m.original.bytes),
                 static_cast<long long>(m.rewritten.bytes),
                 static_cast<long long>(m.original.rows),
                 static_cast<long long>(m.rewritten.rows),
                 m.original.ms / m.rewritten.ms, m.vector_wall_ms);
  }
  // The SQL is emitted by our own renderer: no quotes or control
  // characters, so direct embedding is safe.
  std::fprintf(f, "],\"selection_phase\":%s,\"extracted_sql\":\"%s\","
               "\"provenance\":%s,\"metrics\":%s}\n",
               selection_phase.c_str(), sql.c_str(),
               eqsql::bench::ProvenanceJson("vector", shard_count).c_str(),
               metrics.ToJson().c_str());
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  eqsql::bench::PrintHeader(
      "Figure 8: Selection (20% selectivity), original vs transformed");
  std::printf("%10s %14s %14s %12s %12s %8s %12s\n", "rows", "orig ms",
              "eqsql ms", "orig KB", "eqsql KB", "speedup", "wall ms");

  auto program = eqsql::bench::ValueOrDie(
      eqsql::frontend::ParseProgram(eqsql::workloads::SelectionProgram()),
      "parse");
  eqsql::core::OptimizeOptions options;
  options.transform.table_keys = {{"project", "id"}};
  eqsql::core::EqSqlOptimizer optimizer(options);
  auto optimized = eqsql::bench::ValueOrDie(
      optimizer.Optimize(program, "unfinished"), "optimize");
  if (!optimized.any_extracted()) {
    EQSQL_LOG(Error, "selection did not extract");
    return 1;
  }

  // One registry across all rewritten runs: storage.scan.* and net.*
  // totals land in the JSON artifact for the CI smoke check.
  eqsql::obs::MetricsRegistry metrics;
  std::vector<Measurement> runs;
  size_t shard_count = 1;
  for (int rows : {1000, 5000, 20000, 50000, 100000}) {
    eqsql::storage::Database db;
    shard_count = db.shard_count();
    eqsql::bench::CheckOk(
        eqsql::workloads::SetupSelectionDatabase(&db, rows, 20), "setup");
    auto original =
        eqsql::bench::RunInterpreted(program, "unfinished", &db);
    const double t0 = NowMs();
    auto rewritten =
        eqsql::bench::RunInterpreted(optimized.program, "unfinished", &db,
                                     /*prefetch=*/false, &metrics);
    const double t1 = NowMs();
    if (original.result != rewritten.result) {
      EQSQL_LOG(Error, "MISMATCH at %d rows", rows);
      return 1;
    }
    std::printf("%10d %14.3f %14.3f %12.1f %12.1f %7.2fx %12.3f\n", rows,
                original.ms, rewritten.ms, original.bytes / 1024.0,
                rewritten.bytes / 1024.0, original.ms / rewritten.ms,
                t1 - t0);
    runs.push_back({rows, std::move(original), std::move(rewritten), t1 - t0});
  }
  std::string sql = optimized.outcomes[0].sql.empty()
                        ? "(none)"
                        : optimized.outcomes[0].sql[0];
  std::printf("\nExtracted SQL: %s\n", sql.c_str());

  // --- Selection phase: cost-based alternative selection per app/size.
  struct PhaseApp {
    const char* name;
    std::string source;
    const char* function;
    std::map<std::string, std::string> keys;
    std::function<eqsql::Status(eqsql::storage::Database*, int)> setup;
  };
  // String fold over a per-row point probe: full extraction refuses the
  // shape, so selection is a real contest between the batching rewrite
  // and the interpreted original — batching wins once per-row round
  // trips dominate.
  const char* fold_src = R"(
    func fold() {
      s = "";
      rows = executeQuery("SELECT * FROM t0 AS a");
      for (a : rows) {
        x = scalar(executeQuery("SELECT b.u AS u FROM t1 AS b WHERE b.id = ?", a.fk));
        s = concat(s, pair(a.name, x));
      }
      return s;
    }
  )";
  const std::vector<PhaseApp> phase_apps = {
      {"selection", eqsql::workloads::SelectionProgram(), "unfinished",
       {{"project", "id"}},
       [](eqsql::storage::Database* db, int n) {
         return eqsql::workloads::SetupSelectionDatabase(db, n, 20);
       }},
      {"jobportal", eqsql::workloads::JobPortalProgram(), "jobReport",
       eqsql::workloads::WilosTableKeys(),
       [](eqsql::storage::Database* db, int n) {
         return eqsql::workloads::SetupJobPortalDatabase(db, n);
       }},
      {"join", eqsql::workloads::JoinProgram(), "userRoles",
       {{"wilosuser", "id"}, {"role", "id"}},
       [](eqsql::storage::Database* db, int n) {
         return eqsql::workloads::SetupJoinDatabase(db, n);
       }},
      {"batchfold", fold_src, "fold", {{"t1", "id"}},
       [](eqsql::storage::Database* db, int n) -> eqsql::Status {
         EQSQL_ASSIGN_OR_RETURN(
             eqsql::storage::Table * t0,
             db->CreateTable(
                 "t0", eqsql::catalog::Schema(
                           {{"id", eqsql::catalog::DataType::kInt64},
                            {"fk", eqsql::catalog::DataType::kInt64},
                            {"name", eqsql::catalog::DataType::kString}})));
         EQSQL_ASSIGN_OR_RETURN(
             eqsql::storage::Table * t1,
             db->CreateTable(
                 "t1", eqsql::catalog::Schema(
                           {{"id", eqsql::catalog::DataType::kInt64},
                            {"u", eqsql::catalog::DataType::kInt64}})));
         const int inner = n / 4 + 1;
         for (int64_t i = 0; i < inner; ++i) {
           EQSQL_RETURN_IF_ERROR(t1->Insert(
               {eqsql::catalog::Value::Int(i),
                eqsql::catalog::Value::Int(i * 7)}));
         }
         EQSQL_RETURN_IF_ERROR(t1->DeclareUniqueKey("id"));
         for (int64_t i = 0; i < n; ++i) {
           EQSQL_RETURN_IF_ERROR(t0->Insert(
               {eqsql::catalog::Value::Int(i),
                eqsql::catalog::Value::Int(i % inner),
                eqsql::catalog::Value::String("n" + std::to_string(i))}));
         }
         return t0->DeclareUniqueKey("id");
       }},
  };
  std::printf("\nSelection phase: cost-chosen strategy vs always-extract\n");
  std::printf("%10s %8s %15s %14s %16s\n", "app", "rows", "chosen",
              "chosen ms", "always-ext ms");
  std::vector<SelectionRun> selection_runs;
  std::map<std::string, int> chosen_counts;
  bool selection_pass = true;
  for (const PhaseApp& app : phase_apps) {
    for (int rows : {200, 2000}) {
      eqsql::net::ServerOptions so;
      so.optimize.transform.table_keys = app.keys;
      eqsql::net::Server server(std::move(so));
      eqsql::bench::CheckOk(app.setup(server.db(), rows), "phase setup");
      std::unique_ptr<eqsql::net::Session> session = server.Connect();
      auto plan = eqsql::bench::ValueOrDie(
          session->SelectPlan(app.source, app.function), "select plan");
      auto original = eqsql::bench::ValueOrDie(
          eqsql::frontend::ParseProgram(app.source), "phase parse");

      const eqsql::net::CostModel model = server.options().cost_model;
      auto extract_arm = RunStrategy(plan->optimized->program, app.function,
                                     server.db(), /*batching=*/false);
      const eqsql::frontend::Program* chosen_prog =
          plan->chosen == eqsql::core::AlternativeKind::kExtractedSql
              ? &plan->optimized->program
              : &original;
      auto chosen_arm = RunStrategy(
          *chosen_prog, app.function, server.db(),
          plan->chosen == eqsql::core::AlternativeKind::kBatching);
      if (chosen_arm.result != extract_arm.result ||
          chosen_arm.printed != extract_arm.printed) {
        EQSQL_LOG(Error, "SELECTION MISMATCH %s at %d rows", app.name, rows);
        return 1;
      }
      // Charge a flat client-loop term (four ops per row: cursor
      // advance, result handling, merge bookkeeping) to the strategies
      // that iterate rows client-side; extraction does that work on the
      // server. The run already bills every executed statement, so the
      // term only makes the gate stricter on a non-extracted pick.
      const double client_ms =
          plan->chosen == eqsql::core::AlternativeKind::kExtractedSql
              ? 0.0
              : model.Ms({.client_statements = rows * 4.0});

      SelectionRun run;
      run.app = app.name;
      run.rows = rows;
      run.chosen = eqsql::core::AlternativeKindName(plan->chosen);
      run.chosen_ms = chosen_arm.ms + client_ms;
      run.always_extract_ms = extract_arm.ms;
      run.alternatives_json = "[";
      for (size_t i = 0; i < plan->alternatives.size(); ++i) {
        const eqsql::core::PlanAlternative& a = plan->alternatives[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"kind\":\"%s\",\"feasible\":%s,"
                      "\"est_cost_ms\":%.3f}",
                      i == 0 ? "" : ",",
                      eqsql::core::AlternativeKindName(a.kind),
                      a.feasible ? "true" : "false", a.est_cost_ms);
        run.alternatives_json += buf;
      }
      run.alternatives_json += "]";
      ++chosen_counts[run.chosen];
      // The gate: a cost-chosen run must never lose to always-extract
      // under the same accounting the selector prices with.
      if (run.chosen_ms > run.always_extract_ms + 1e-9) {
        selection_pass = false;
        EQSQL_LOG(Error, "SELECTION GATE: %s at %d rows: chosen %s %.3f ms "
                  "> always-extract %.3f ms", app.name, rows,
                  run.chosen.c_str(), run.chosen_ms, run.always_extract_ms);
      }
      std::printf("%10s %8d %15s %14.3f %16.3f\n", app.name, rows,
                  run.chosen.c_str(), run.chosen_ms, run.always_extract_ms);
      selection_runs.push_back(std::move(run));
    }
  }
  std::printf("chosen counts:");
  for (const auto& [kind, n] : chosen_counts) {
    std::printf(" %s=%d", kind.c_str(), n);
  }
  std::printf("\n");

  if (json_path != nullptr) {
    const std::string phase_json =
        SelectionPhaseJson(selection_runs, chosen_counts, selection_pass);
    if (!WriteJson(json_path, runs, sql, phase_json, metrics.Snapshot(),
                   shard_count)) {
      EQSQL_LOG(Error, "cannot write %s", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return selection_pass ? 0 : 1;
}
