// Engine micro-benchmarks (DESIGN.md experiment A2): operator
// throughput of the in-memory engine that stands in for MySQL. These
// numbers sanity-check the cost model's server term and document the
// substrate's raw speed.
//
// Besides the google-benchmark operator suite, a self-timed "batch
// phase" compares the row and vectorized engines head to head on the
// same plans, checks their ResultSets are byte-identical, and GATES
// the vectorized filter and group-by evaluation speedup at >= 1.5x —
// the PR-7 acceptance number. With --json FILE the phase's
// measurements land in a machine-readable artifact
// ({"bench":"exec_micro","batch_phase":{...,"pass":true}}) that
// scripts/verify.sh greps; a failed gate exits non-zero.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/exec_mode.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "workloads/benchmark_apps.h"

namespace {

using eqsql::catalog::DataType;
using eqsql::catalog::Schema;
using eqsql::catalog::Value;

/// Builds a `data(id, grp, v, name)` table with `n` rows.
std::unique_ptr<eqsql::storage::Database> MakeDb(int64_t n) {
  auto db = std::make_unique<eqsql::storage::Database>();
  auto table = *db->CreateTable(
      "data", Schema({{"id", DataType::kInt64},
                      {"grp", DataType::kInt64},
                      {"v", DataType::kInt64},
                      {"name", DataType::kString}}));
  for (int64_t i = 0; i < n; ++i) {
    (void)table->Insert({Value::Int(i), Value::Int(i % 64),
                         Value::Int((i * 2654435761) % 10000),
                         Value::String("row" + std::to_string(i))});
  }
  (void)table->DeclareUniqueKey("id");
  return db;
}

void RunSql(benchmark::State& state, const char* sql) {
  auto db = MakeDb(state.range(0));
  auto plan = *eqsql::sql::ParseSql(sql);
  eqsql::exec::Executor ex(db.get());
  for (auto _ : state) {
    auto rs = ex.Execute(plan);
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Scan(benchmark::State& state) {
  RunSql(state, "SELECT * FROM data AS d");
}
BENCHMARK(BM_Scan)->Arg(1000)->Arg(100000);

void BM_Filter(benchmark::State& state) {
  RunSql(state, "SELECT d.id AS id FROM data AS d WHERE d.v < 2000");
}
BENCHMARK(BM_Filter)->Arg(1000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  RunSql(state,
         "SELECT a.id AS id FROM data AS a JOIN data AS b ON a.id = b.id");
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(100000);

void BM_GroupBy(benchmark::State& state) {
  RunSql(state,
         "SELECT d.grp, MAX(d.v) AS mx, COUNT(*) AS c FROM data AS d "
         "GROUP BY d.grp");
}
BENCHMARK(BM_GroupBy)->Arg(1000)->Arg(100000);

void BM_SortLimit(benchmark::State& state) {
  RunSql(state,
         "SELECT d.id AS id FROM data AS d ORDER BY d.v DESC LIMIT 10");
}
BENCHMARK(BM_SortLimit)->Arg(1000)->Arg(100000);

// JobPortal's extracted query (rule T7, paper Figs. 11-13): four OUTER
// APPLYs, each a keyed probe of a dimension table per applicant, run as
// one join chain over borrowed rows. Ungated; range(0) is the number of
// applicants.
void BM_FourApply(benchmark::State& state) {
  eqsql::storage::Database db;
  if (!eqsql::workloads::SetupJobPortalDatabase(
           &db, static_cast<int>(state.range(0)))
           .ok()) {
    state.SkipWithError("jobportal setup failed");
    return;
  }
  auto plan = *eqsql::sql::ParseSql(
      "SELECT a.id AS id, oa0 AS c1, oa1 AS c2, oa2 AS c3, oa3 AS c4 "
      "FROM applicants AS a "
      "OUTER APPLY (SELECT d.phone AS oa0 FROM details AS d "
      "WHERE (d.aid = a.id)) "
      "OUTER APPLY (SELECT f.verdict AS oa1 FROM feedback1 AS f "
      "WHERE (f.aid = a.id)) "
      "OUTER APPLY (SELECT f.verdict AS oa2 FROM feedback2 AS f "
      "WHERE (f.aid = a.id)) "
      "OUTER APPLY (SELECT e.degree AS oa3 FROM education AS e "
      "WHERE (e.aid = a.id) AND (a.mode = 'online'))");
  eqsql::exec::Executor ex(&db);
  ex.set_exec_mode(eqsql::exec::ExecMode::kVector);
  for (auto _ : state) {
    auto rs = ex.Execute(plan);
    if (!rs.ok() || rs->rows.size() != static_cast<size_t>(state.range(0))) {
      state.SkipWithError("4-apply query failed");
      return;
    }
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FourApply)->Arg(500)->Arg(5000)->Unit(benchmark::kMicrosecond);

void BM_ParseSql(benchmark::State& state) {
  const char* sql =
      "SELECT a.id, MAX(b.v) AS mx FROM data AS a LEFT OUTER JOIN data AS "
      "b ON a.id = b.grp WHERE a.v > 10 GROUP BY a.id ORDER BY a.id "
      "LIMIT 100";
  for (auto _ : state) {
    auto plan = eqsql::sql::ParseSql(sql);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ParseSql);

// ---------------------------------------------------------------------------
// Batch phase: row engine vs vectorized engine on identical plans.

struct BatchMeasurement {
  const char* label;
  const char* sql;
  double row_ns = 0;     // best-of-N wall time, row engine
  double vector_ns = 0;  // best-of-N wall time, vectorized engine
  double speedup() const { return vector_ns > 0 ? row_ns / vector_ns : 0; }
};

/// Best-of-`reps` wall time for one plan in one mode. Also returns the
/// last run's ResultSet so callers can diff the engines' outputs.
double TimeSql(eqsql::storage::Database* db, const eqsql::ra::RaNodePtr& plan,
               eqsql::exec::ExecMode mode, int reps,
               eqsql::exec::ResultSet* out) {
  eqsql::exec::Executor ex(db);
  ex.set_exec_mode(mode);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    auto rs = ex.Execute(plan);
    auto t1 = std::chrono::steady_clock::now();
    if (!rs.ok()) {
      std::fprintf(stderr, "batch phase: %s\n", rs.status().ToString().c_str());
      std::exit(1);
    }
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (r == 0 || ns < best) best = ns;
    if (r == reps - 1) *out = *std::move(rs);
  }
  return best;
}

bool SameResults(const eqsql::exec::ResultSet& a,
                 const eqsql::exec::ResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      if (a.rows[i][j].ToString() != b.rows[i][j].ToString()) return false;
    }
  }
  return true;
}

/// Runs the row-vs-vector comparison and writes the optional JSON
/// artifact. Returns false when a result mismatch or a gate failure
/// should fail the binary.
bool RunBatchPhase(const char* json_path) {
  constexpr int64_t kRows = 200000;
  constexpr int kReps = 7;
  // The gate covers the stages where vectorization does real work —
  // predicate and fold evaluation in tight typed loops. The plain scan
  // is reported ungated: both engines copy every visible row into the
  // result once (the vector engine reads them in place until then), so
  // its delta measures the chunked visibility walk, not evaluation.
  constexpr double kGate = 1.5;
  auto db = MakeDb(kRows);
  BatchMeasurement runs[] = {
      {"scan", "SELECT * FROM data AS d"},
      {"filter", "SELECT d.id AS id FROM data AS d WHERE d.v < 2000"},
      {"groupby",
       "SELECT d.grp, MAX(d.v) AS mx, COUNT(*) AS c FROM data AS d "
       "GROUP BY d.grp"},
  };
  std::printf("\n=== batch phase: row vs vector, %lld rows ===\n",
              static_cast<long long>(kRows));
  std::printf("%10s %14s %14s %9s\n", "op", "row ms", "vector ms", "speedup");
  bool pass = true;
  for (BatchMeasurement& m : runs) {
    auto plan = *eqsql::sql::ParseSql(m.sql);
    eqsql::exec::ResultSet row_rs, vec_rs;
    m.row_ns = TimeSql(db.get(), plan, eqsql::exec::ExecMode::kRow, kReps,
                       &row_rs);
    m.vector_ns = TimeSql(db.get(), plan, eqsql::exec::ExecMode::kVector,
                          kReps, &vec_rs);
    if (!SameResults(row_rs, vec_rs)) {
      std::fprintf(stderr, "batch phase: %s results diverge across engines\n",
                   m.label);
      return false;
    }
    const bool gated =
        std::strcmp(m.label, "filter") == 0 ||
        std::strcmp(m.label, "groupby") == 0;
    const bool ok = !gated || m.speedup() >= kGate;
    if (!ok) pass = false;
    std::printf("%10s %14.3f %14.3f %8.2fx%s\n", m.label, m.row_ns / 1e6,
                m.vector_ns / 1e6, m.speedup(),
                gated ? (ok ? "" : "  << below gate") : "  (ungated)");
  }
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return false;
    }
    std::fprintf(f, "{\"bench\":\"exec_micro\",\"batch_phase\":{\"rows\":%lld",
                 static_cast<long long>(kRows));
    for (const BatchMeasurement& m : runs) {
      std::fprintf(f,
                   ",\"%s_row_ns\":%.0f,\"%s_vector_ns\":%.0f,"
                   "\"%s_speedup\":%.3f",
                   m.label, m.row_ns, m.label, m.vector_ns, m.label,
                   m.speedup());
    }
    std::fprintf(f, ",\"gate\":%.1f,\"pass\":%s},\"provenance\":%s}\n", kGate,
                 pass ? "true" : "false",
                 eqsql::bench::ProvenanceJson("row+vector",
                                              db->shard_count())
                     .c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  if (!pass) {
    std::fprintf(stderr,
                 "batch phase: vectorized speedup below the %.1fx gate\n",
                 kGate);
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json (ours) before handing argv to google-benchmark, which
  // rejects flags it does not know.
  const char* json_path = nullptr;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunBatchPhase(json_path) ? 0 : 1;
}
