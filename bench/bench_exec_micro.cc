// Engine micro-benchmarks (DESIGN.md experiment A2): operator
// throughput of the in-memory engine that stands in for MySQL. These
// numbers sanity-check the cost model's server term and document the
// substrate's raw speed.
//
// Besides the google-benchmark operator suite, a self-timed "batch
// phase" times the engine's scan, filter and group-by over 200k rows
// (ungated, for the trajectory), then compares the two expression
// evaluators on the same bound expressions and rows: compiled batch
// evaluation (CompiledExpr::Eval over 1,024-row batches) against
// per-row evaluation (Executor::Eval, which join chains, Sort, DML and
// subquery operators still use). Every lane must agree with its row,
// and the compiled speedup is GATED at >= 1.5x for the filter's
// predicate and for the group-by's key and aggregate arguments. With
// --json FILE the phase's measurements land in a machine-readable
// artifact ({"bench":"exec_micro","batch_phase":{...,"pass":true}})
// that scripts/verify.sh greps; a failed check exits non-zero.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"
#include "exec/binder.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/shard_guard.h"
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
// Batch phase: the engine's scan shapes, then compiled vs per-row
// expression evaluation over the same bound expressions and rows.

using eqsql::catalog::Row;
using eqsql::exec::BoundExpr;
using eqsql::exec::BoundNode;

double ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Best-of-`reps` wall time of `run`.
template <typename Run>
double BestOf(int reps, const Run& run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double ns = ElapsedNs(t0);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// The first operator of kind `op` in a bound plan, depth first.
const BoundNode* FindOp(const BoundNode& node, eqsql::ra::RaOp op) {
  if (node.op == op) return &node;
  for (const BoundNode& child : node.children) {
    if (const BoundNode* hit = FindOp(child, op)) return hit;
  }
  return nullptr;
}

/// One evaluator comparison: `exprs`, bound over the scan's row, run
/// over every row by both evaluators.
struct EvalMeasurement {
  const char* label;
  std::vector<const BoundExpr*> exprs;
  double row_ns = 0;       // best-of-N, Executor::Eval per row
  double compiled_ns = 0;  // best-of-N, CompiledExpr::Eval per batch
  double speedup() const { return compiled_ns > 0 ? row_ns / compiled_ns : 0; }
};

/// Times both evaluators over `rows` and checks that every compiled lane
/// equals its row's per-row value or carries its status. Returns false
/// on a disagreement.
bool MeasureEval(eqsql::storage::Database* db, const std::vector<Row>& rows,
                 int reps, EvalMeasurement* m) {
  const std::vector<Value> params;
  eqsql::exec::EvalContext ctx(&params);
  eqsql::exec::Executor ex(db);
  std::vector<std::unique_ptr<eqsql::exec::CompiledExpr>> compiled;
  for (const BoundExpr* e : m->exprs) {
    compiled.push_back(eqsql::exec::CompiledExpr::Compile(*e, 0, ctx));
    if (compiled.back() == nullptr) {
      std::fprintf(stderr, "batch phase: %s did not compile\n", m->label);
      return false;
    }
  }
  std::vector<const Row*> ptrs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) ptrs[i] = &rows[i];
  const size_t n = rows.size();
  const size_t batch = eqsql::exec::kBatchCapacity;

  // Lane parity first, outside the timed loops.
  std::vector<eqsql::exec::Vec> vs(compiled.size());
  for (size_t off = 0; off < n; off += batch) {
    const size_t cnt = std::min(batch, n - off);
    for (size_t k = 0; k < compiled.size(); ++k) {
      compiled[k]->Eval(ptrs.data() + off, cnt, &vs[k]);
    }
    for (size_t i = 0; i < cnt; ++i) {
      ctx.PushFrame(ptrs[off + i]);
      for (size_t k = 0; k < compiled.size(); ++k) {
        eqsql::Result<Value> want = ex.Eval(*m->exprs[k], &ctx);
        const bool same =
            want.ok() ? !vs[k].ErrAt(i) && vs[k].At(i) == *want &&
                            vs[k].At(i).ToString() == want->ToString()
                      : vs[k].ErrAt(i) && vs[k].ErrStatus(i).ToString() ==
                                              want.status().ToString();
        if (!same) {
          std::fprintf(stderr, "batch phase: %s lane %zu of expression %zu "
                       "disagrees with per-row evaluation\n",
                       m->label, off + i, k);
          return false;
        }
      }
      ctx.PopFrame();
    }
  }

  int64_t sink = 0;
  m->row_ns = BestOf(reps, [&] {
    for (size_t i = 0; i < n; ++i) {
      ctx.PushFrame(ptrs[i]);
      for (const BoundExpr* e : m->exprs) {
        eqsql::Result<Value> v = ex.Eval(*e, &ctx);
        sink += v.ok() && !v->is_null();
      }
      ctx.PopFrame();
    }
  });
  m->compiled_ns = BestOf(reps, [&] {
    for (size_t off = 0; off < n; off += batch) {
      const size_t cnt = std::min(batch, n - off);
      for (size_t k = 0; k < compiled.size(); ++k) {
        compiled[k]->Eval(ptrs.data() + off, cnt, &vs[k]);
        sink += static_cast<int64_t>(vs[k].n);
      }
    }
  });
  benchmark::DoNotOptimize(sink);
  return true;
}

/// Runs the batch phase and writes the optional JSON artifact. Returns
/// false when a lane disagreement or a gate failure should fail the
/// binary.
bool RunBatchPhase(const char* json_path) {
  constexpr int64_t kRows = 200000;
  constexpr int kReps = 7;
  // The gate covers expression evaluation, where batching does real
  // work: predicate and fold arguments in tight typed loops.
  constexpr double kGate = 1.5;
  auto db = MakeDb(kRows);
  struct EngineRun {
    const char* label;
    const char* sql;
    double ns = 0;
  };
  EngineRun engine[] = {
      {"scan", "SELECT * FROM data AS d"},
      {"filter", "SELECT d.id AS id FROM data AS d WHERE d.v < 2000"},
      {"groupby",
       "SELECT d.grp, MAX(d.v) AS mx, COUNT(*) AS c FROM data AS d "
       "GROUP BY d.grp"},
  };
  std::printf("\n=== batch phase: %lld rows ===\n",
              static_cast<long long>(kRows));
  std::printf("%10s %14s\n", "op", "engine ms");
  for (EngineRun& e : engine) {
    auto plan = *eqsql::sql::ParseSql(e.sql);
    eqsql::exec::Executor ex(db.get());
    e.ns = BestOf(kReps, [&] {
      auto rs = ex.Execute(plan);
      if (!rs.ok()) {
        std::fprintf(stderr, "batch phase: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      benchmark::DoNotOptimize(rs);
    });
    std::printf("%10s %14.3f  (ungated)\n", e.label, e.ns / 1e6);
  }

  // The filter's predicate and the group-by's key and aggregate
  // arguments, as the binder bound them for the plans above.
  auto filter_plan = *eqsql::sql::ParseSql(engine[1].sql);
  auto group_plan = *eqsql::sql::ParseSql(engine[2].sql);
  const eqsql::storage::ReadGuard guard =
      eqsql::storage::ReadGuard::Acquire(*db, {"data"});
  const auto filter_bound = eqsql::exec::BindPlan(*filter_plan, guard);
  const auto group_bound = eqsql::exec::BindPlan(*group_plan, guard);
  const BoundNode* select =
      FindOp(filter_bound->root(), eqsql::ra::RaOp::kSelect);
  const BoundNode* group =
      FindOp(group_bound->root(), eqsql::ra::RaOp::kGroupBy);
  if (select == nullptr || group == nullptr) {
    std::fprintf(stderr, "batch phase: unexpected plan shapes\n");
    return false;
  }
  EvalMeasurement evals[] = {
      {"filter", {&select->predicate}},
      {"groupby", {&group->keys[0], &group->aggs[0]}},
  };
  const std::vector<Row> rows = (*db->GetTable("data"))->rows();
  std::printf("\n=== evaluators: per-row vs compiled, %zu rows ===\n",
              rows.size());
  std::printf("%10s %14s %14s %9s\n", "exprs", "per-row ms", "compiled ms",
              "speedup");
  bool pass = true;
  for (EvalMeasurement& m : evals) {
    if (!MeasureEval(db.get(), rows, kReps, &m)) return false;
    const bool ok = m.speedup() >= kGate;
    if (!ok) pass = false;
    std::printf("%10s %14.3f %14.3f %8.2fx%s\n", m.label, m.row_ns / 1e6,
                m.compiled_ns / 1e6, m.speedup(),
                ok ? "" : "  << below gate");
  }
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return false;
    }
    std::fprintf(f, "{\"bench\":\"exec_micro\",\"batch_phase\":{\"rows\":%lld",
                 static_cast<long long>(kRows));
    for (const EngineRun& e : engine) {
      std::fprintf(f, ",\"%s_ns\":%.0f", e.label, e.ns);
    }
    for (const EvalMeasurement& m : evals) {
      std::fprintf(f,
                   ",\"%s_row_ns\":%.0f,\"%s_compiled_ns\":%.0f,"
                   "\"%s_speedup\":%.3f",
                   m.label, m.row_ns, m.label, m.compiled_ns, m.label,
                   m.speedup());
    }
    std::fprintf(f, ",\"gate\":%.1f,\"pass\":%s},\"provenance\":%s}\n", kGate,
                 pass ? "true" : "false",
                 eqsql::bench::ProvenanceJson("vector", db->shard_count())
                     .c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  if (!pass) {
    std::fprintf(stderr,
                 "batch phase: compiled speedup below the %.1fx gate\n",
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
