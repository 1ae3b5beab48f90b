// Reproduces the paper's Figure 9 (Experiment 6, Join): client-side
// nested-loop combination of WilosUser and Role (size ratio 40:1,
// Wilos sample #30) versus the extracted join query.
//
// Expected shape: the transformed code is much faster (the engine picks
// a hash join and ships one result instead of two tables), but the data
// transferred is *slightly more* than original at equal row counts,
// because role attributes are replicated per user row (paper: "the
// amount of data transferred is marginally more in the transformed
// code").
//
// Indexed phase: the same engine re-runs a *selective* point probe
// against a large 8-way-sharded table three times — first as the
// partition-parallel full scan, then through a secondary hash index
// built by CREATE INDEX, then through the index again with one INSERT
// (of a row the probe does not match) committed before each probe —
// and gates both index arms at >= 2x scan wall time, timing the probes
// only. The index arms bill their probe and candidates, not the scan,
// so their simulated time is their own. The after-write arm checks that
// a commit does not make the next probe pay for a walk of the table.
//
// With --json FILE, writes the per-size measurements and the indexed
// phase (including the pass/fail gate) as a machine-readable artifact
// (BENCH_fig9.json in CI).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/perf_util.h"
#include "catalog/value.h"
#include "core/optimizer.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "net/api.h"
#include "net/connection.h"
#include "storage/database.h"
#include "workloads/benchmark_apps.h"

namespace {

struct Measurement {
  int users;
  eqsql::bench::PerfResult original;
  eqsql::bench::PerfResult rewritten;
};

struct IndexPhase {
  int rows = 0;
  int iters = 0;
  long long probe_rows = 0;      // rows each probe returns (selectivity)
  double scan_wall_ms = 0;       // parallel full scan, total over iters
  double index_wall_ms = 0;      // secondary-index probe, total
  double speedup = 0;
  bool pass = false;             // speedup >= 2x gate
  // The index arm again, one committed INSERT before each probe.
  double after_write_wall_ms = 0;  // probes only, total over iters
  double after_write_speedup = 0;
  bool after_write_pass = false;   // speedup >= 2x gate
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Selective probe, indexed vs parallel full scan, on one engine and
/// one dataset: 8-way sharded table, worker pool on, threshold 0 (the
/// scan arm really is the partition-parallel operator), then CREATE
/// INDEX and the identical statement again through the index-scan path,
/// on a quiet table and then after a committed write each time.
IndexPhase RunIndexedPhase() {
  using eqsql::catalog::DataType;
  using eqsql::catalog::Value;

  IndexPhase phase;
  phase.rows = 200000;
  phase.iters = 30;

  eqsql::storage::DatabaseOptions dbo;
  dbo.shard_count = 8;
  eqsql::storage::Database db(dbo);
  auto table = eqsql::bench::ValueOrDie(
      db.CreateTable("events", eqsql::catalog::Schema(
                                   {{"id", DataType::kInt64},
                                    {"v", DataType::kInt64}})),
      "create events");
  // 16 rows per distinct v: selective enough that the probe ships a
  // handful of rows while the scan arm still walks all 200k.
  for (int64_t i = 0; i < phase.rows; ++i) {
    eqsql::bench::CheckOk(
        table->Insert({Value::Int(i), Value::Int(i % (phase.rows / 16))}),
        "insert events");
  }

  eqsql::exec::WorkerPool pool(4);
  eqsql::net::Connection conn(&db);
  // The scan arm is the vector engine's partition-parallel scan; the
  // row engine (a bare Connection's default) never fans out.
  conn.set_exec_mode(eqsql::exec::ExecMode::kVector);
  conn.set_worker_pool(&pool);
  conn.set_parallel_threshold(0);

  auto probe = [&conn]() {
    return conn.Perform(eqsql::net::Request::Query(
        "SELECT * FROM events AS e WHERE e.v = ?", {Value::Int(4242)}));
  };

  eqsql::net::Outcome warm = probe();  // warm both arms outside the clock
  eqsql::bench::CheckOk(warm.status, "probe");
  phase.probe_rows = static_cast<long long>(warm.rows.rows.size());

  const double t0 = NowMs();
  for (int i = 0; i < phase.iters; ++i) {
    eqsql::net::Outcome out = probe();
    eqsql::bench::CheckOk(out.status, "scan probe");
    if (static_cast<long long>(out.rows.rows.size()) != phase.probe_rows) {
      EQSQL_LOG(Error, "scan probe row count drifted");
      std::exit(1);
    }
  }
  phase.scan_wall_ms = NowMs() - t0;

  eqsql::net::Outcome ddl = conn.Perform(eqsql::net::Request::Statement(
      "CREATE INDEX events_v ON events (v)"));
  eqsql::bench::CheckOk(ddl.status, "create index");

  eqsql::net::Outcome warm_idx = probe();
  eqsql::bench::CheckOk(warm_idx.status, "indexed probe");
  if (static_cast<long long>(warm_idx.rows.rows.size()) != phase.probe_rows) {
    EQSQL_LOG(Error, "indexed probe changed the answer");
    std::exit(1);
  }
  const double t1 = NowMs();
  for (int i = 0; i < phase.iters; ++i) {
    eqsql::net::Outcome out = probe();
    eqsql::bench::CheckOk(out.status, "indexed probe");
    if (static_cast<long long>(out.rows.rows.size()) != phase.probe_rows) {
      EQSQL_LOG(Error, "indexed probe row count drifted");
      std::exit(1);
    }
  }
  phase.index_wall_ms = NowMs() - t1;

  for (int i = 0; i < phase.iters; ++i) {
    eqsql::net::Outcome write = conn.Perform(eqsql::net::Request::Dml(
        "INSERT INTO events VALUES (" + std::to_string(phase.rows + i) +
        ", -1)"));
    eqsql::bench::CheckOk(write.status, "insert before probe");
    const double t2 = NowMs();
    eqsql::net::Outcome out = probe();
    phase.after_write_wall_ms += NowMs() - t2;
    eqsql::bench::CheckOk(out.status, "probe after write");
    if (static_cast<long long>(out.rows.rows.size()) != phase.probe_rows) {
      EQSQL_LOG(Error, "probe after write changed the answer");
      std::exit(1);
    }
  }

  auto speedup = [&phase](double wall_ms) {
    return wall_ms > 0 ? phase.scan_wall_ms / wall_ms : 0;
  };
  phase.speedup = speedup(phase.index_wall_ms);
  phase.pass = phase.speedup >= 2.0;
  phase.after_write_speedup = speedup(phase.after_write_wall_ms);
  phase.after_write_pass = phase.after_write_speedup >= 2.0;
  return phase;
}

bool WriteJson(const char* path, const std::vector<Measurement>& runs,
               const std::string& sql, const IndexPhase& phase) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"bench\":\"fig9_join\",\"runs\":[");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    std::fprintf(f,
                 "%s{\"users\":%d,\"orig_ms\":%.3f,\"eqsql_ms\":%.3f,"
                 "\"orig_bytes\":%lld,\"eqsql_bytes\":%lld,\"speedup\":%.3f}",
                 i == 0 ? "" : ",", m.users, m.original.ms, m.rewritten.ms,
                 static_cast<long long>(m.original.bytes),
                 static_cast<long long>(m.rewritten.bytes),
                 m.original.ms / m.rewritten.ms);
  }
  // The SQL is emitted by our own renderer: no quotes or control
  // characters, so direct embedding is safe.
  std::fprintf(f,
               "],\"extracted_sql\":\"%s\",\"provenance\":%s,"
               "\"indexed_phase\":{\"rows\":%d,\"iters\":%d,"
               "\"probe_rows\":%lld,\"scan_wall_ms\":%.3f,"
               "\"index_wall_ms\":%.3f,\"speedup\":%.3f,\"pass\":%s,"
               "\"after_write\":{\"index_wall_ms\":%.3f,\"speedup\":%.3f,"
               "\"pass\":%s}}}\n",
               sql.c_str(),
               eqsql::bench::ProvenanceJson("row", 8).c_str(),
               phase.rows, phase.iters, phase.probe_rows,
               phase.scan_wall_ms, phase.index_wall_ms, phase.speedup,
               phase.pass ? "true" : "false", phase.after_write_wall_ms,
               phase.after_write_speedup,
               phase.after_write_pass ? "true" : "false");
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
      "Figure 9: Join (WilosUser:Role = 40:1), original vs transformed");
  std::printf("%10s %14s %14s %14s %14s %8s\n", "users", "orig ms",
              "eqsql ms", "orig KB", "eqsql KB", "speedup");

  auto program = eqsql::bench::ValueOrDie(
      eqsql::frontend::ParseProgram(eqsql::workloads::JoinProgram()),
      "parse");
  eqsql::core::OptimizeOptions options;
  options.transform.table_keys = {{"wilosuser", "id"}, {"role", "id"}};
  eqsql::core::EqSqlOptimizer optimizer(options);
  auto optimized = eqsql::bench::ValueOrDie(
      optimizer.Optimize(program, "userRoles"), "optimize");
  if (!optimized.any_extracted()) {
    EQSQL_LOG(Error, "join did not extract");
    return 1;
  }

  std::vector<Measurement> runs;
  for (int users : {1000, 4000, 16000}) {
    eqsql::storage::Database db;
    eqsql::bench::CheckOk(eqsql::workloads::SetupJoinDatabase(&db, users),
                          "setup");
    auto original = eqsql::bench::RunInterpreted(program, "userRoles", &db);
    auto rewritten =
        eqsql::bench::RunInterpreted(optimized.program, "userRoles", &db);
    if (original.result != rewritten.result) {
      EQSQL_LOG(Error, "MISMATCH at %d users", users);
      return 1;
    }
    std::printf("%10d %14.3f %14.3f %14.1f %14.1f %7.2fx\n", users,
                original.ms, rewritten.ms, original.bytes / 1024.0,
                rewritten.bytes / 1024.0, original.ms / rewritten.ms);
    runs.push_back({users, std::move(original), std::move(rewritten)});
  }
  std::string sql = optimized.outcomes[0].sql.empty()
                        ? "(none)"
                        : optimized.outcomes[0].sql[0];
  std::printf("\nExtracted SQL: %s\n", sql.c_str());

  std::printf("\nIndexed phase: selective probe, index scan vs parallel "
              "full scan (8 shards)\n");
  IndexPhase phase = RunIndexedPhase();
  std::printf("%10s %8s %12s %14s %14s %8s %6s\n", "rows", "iters",
              "probe rows", "scan wall ms", "index wall ms", "speedup",
              "gate");
  std::printf("%10d %8d %12lld %14.3f %14.3f %7.2fx %6s\n", phase.rows,
              phase.iters, phase.probe_rows, phase.scan_wall_ms,
              phase.index_wall_ms, phase.speedup,
              phase.pass ? "PASS" : "FAIL");
  std::printf("%10s %8d %12lld %14s %14.3f %7.2fx %6s  (a committed INSERT "
              "before each probe)\n",
              "", phase.iters, phase.probe_rows, "", phase.after_write_wall_ms,
              phase.after_write_speedup,
              phase.after_write_pass ? "PASS" : "FAIL");

  if (json_path != nullptr) {
    if (!WriteJson(json_path, runs, sql, phase)) {
      EQSQL_LOG(Error, "cannot write %s", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  if (!phase.pass) {
    EQSQL_LOG(Error, "index scan did not reach 2x over the parallel scan");
    return 1;
  }
  if (!phase.after_write_pass) {
    EQSQL_LOG(Error,
              "index scan after a committed write did not reach 2x over the "
              "parallel scan");
    return 1;
  }
  return 0;
}
