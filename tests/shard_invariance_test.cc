// Shard-count-invariance property suite — the headline artifact of the
// sharded storage layer. The property: for any program and any data,
// every observable output of the engine is byte-identical whether the
// tables are partitioned across 1, 2, or 8 shards, whether the
// partition-parallel operators are on or off, whether the row or
// the vectorized engine executes the queries, AND whether an operator
// profile is being recorded (the server-stack grids add a profiled
// on/off dimension — EXPLAIN ANALYZE instrumentation may never move a
// counter or the simulated clock). Secondary indexes split the grid
// into two arms, each with its own reference: an index path bills the
// probes and candidates it touches, not the scan it replaces, so the
// indexed arm's bill is its own, identical across both engines and
// every layout, while its answers must equal the unindexed arm's byte
// for byte. "Observable" is strict:
// return value, print stream, AND the simulated cost counters
// (rows/bytes transferred, queries, round trips, simulated_ms down to
// the last bit — the parallel operators charge the same per-query row
// examination cost as the serial ones, in the same order, so even the
// floating-point clock must agree).
//
// Three populations prove it: fuzzer-generated programs (every grammar
// family, including the DML family's real INSERT/UPDATE traffic),
// multi-session transaction schedules (MVCC snapshot reads, conflicts,
// and rollbacks), and the four benchmark workload apps, original and
// rewritten. Run under
// the `tsan` preset too (scripts/verify.sh does): with the parallel
// threshold forced to 0 every vector-engine scan/fold fans out across
// the pool (the row engine is the serial reference), so this suite
// doubles as the race detector for the partition-parallel read path.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/hash.h"
#include "exec/exec_mode.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "storage/database.h"
#include "storage/table.h"
#include "workloads/benchmark_apps.h"

namespace eqsql {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 8};
constexpr exec::ExecMode kExecModes[] = {exec::ExecMode::kRow,
                                         exec::ExecMode::kVector};
constexpr bool kIndexed[] = {false, true};

/// The index-on grid arm: a single-column secondary index over every
/// column of every table, so any equality predicate or equi-join the
/// programs run can (and on covered columns will) take the index path.
/// The answers must not notice.
void CreateIndexesEverywhere(storage::Database* db) {
  for (const std::string& name : db->TableNames()) {
    std::shared_ptr<storage::Table> t = db->SnapshotTable(name);
    ASSERT_NE(t, nullptr) << name;
    for (const catalog::Column& col : t->schema().columns()) {
      ASSERT_TRUE(
          t->CreateIndex("inv_" + name + "_" + col.name, {col.name}).ok())
          << name << "." << col.name;
    }
  }
}

/// Everything one run observably produced, flattened to comparable
/// strings: the answers (return value and print stream) and the bill
/// (the simulated cost counters, printed with full precision: the
/// invariance claim covers the simulated clock too).
struct RunSignature {
  std::string answers;
  std::string bill;

  bool operator==(const RunSignature& other) const {
    return answers == other.answers && bill == other.bill;
  }
};

std::ostream& operator<<(std::ostream& out, const RunSignature& sig) {
  return out << sig.answers << sig.bill;
}

std::string Bill(const net::ConnectionStats& stats) {
  std::ostringstream out;
  out.precision(17);
  out << "queries=" << stats.queries_executed
      << " round_trips=" << stats.round_trips
      << " rows=" << stats.rows_transferred
      << " bytes=" << stats.bytes_transferred
      << " ms=" << stats.simulated_ms << "\n";
  return out.str();
}

RunSignature Signature(const std::string& result_display,
                       const std::vector<std::string>& printed,
                       const net::ConnectionStats& stats) {
  RunSignature sig;
  sig.answers = "return=" + result_display + "\n";
  for (const std::string& line : printed) sig.answers += "print=" + line + "\n";
  sig.bill = Bill(stats);
  return sig;
}

/// The reference cells of one grid, one per index arm. The first cell
/// of an arm becomes its reference; every later cell must equal it, and
/// every indexed cell's answers must equal the unindexed reference's.
class ArmReferences {
 public:
  void Check(bool indexed, const RunSignature& sig, const std::string& where) {
    std::optional<RunSignature>& ref = refs_[indexed ? 1 : 0];
    if (indexed && refs_[0].has_value()) {
      EXPECT_EQ(sig.answers, refs_[0]->answers)
          << where << ": the indexed arm's answers diverge";
    }
    if (!ref.has_value()) {
      ref = sig;
    } else {
      EXPECT_EQ(sig, *ref) << where << " diverges from its arm's reference";
    }
  }

 private:
  std::optional<RunSignature> refs_[2];
};

/// Interprets `source`'s function `f` against a fresh database built
/// from the case's tables, partitioned across `shards`, on the given
/// execution engine, with the parallel operators forced on (threshold
/// 0) whenever a pool is given.
Result<RunSignature> RunAtShardCount(const fuzz::FuzzCase& c, size_t shards,
                                     exec::ExecMode mode, bool indexed) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  storage::Database db(dbo);
  EQSQL_RETURN_IF_ERROR(fuzz::BuildDatabase(c, &db));
  if (indexed) CreateIndexesEverywhere(&db);

  auto program = frontend::ParseProgram(c.source);
  if (!program.ok()) return program.status();

  net::Connection conn(&db);
  conn.set_exec_mode(mode);
  std::unique_ptr<exec::WorkerPool> pool;
  if (shards > 1) {
    pool = std::make_unique<exec::WorkerPool>(2);
    conn.set_worker_pool(pool.get());
    conn.set_parallel_threshold(0);
  }
  interp::Interpreter interp(&*program, &conn);
  auto result = interp.Run(c.function);
  if (!result.ok()) return result.status();
  return Signature(result->DisplayString(), interp.printed(), conn.stats());
}

/// Asserts the case signatures across the full exec-mode x shard-count
/// grid are identical within each index arm: the row engine at 1 shard
/// anchors each arm's reference and every other cell of the arm must
/// match it byte for byte, and the indexed arm's answers must match the
/// unindexed arm's — this sweep IS the corpus-wide batch-vs-row (and
/// indexed-vs-unindexed) differential. Schedule cases (function
/// "@txn"/"@index") are not programs: their signature is the oracle's
/// rendered outcome log (per-statement row counts and error codes in
/// schedule order), and the index dimension is inside the oracle itself
/// (the @index oracle's plain arm IS the index-off run).
void ExpectInvariant(const fuzz::FuzzCase& c, const std::string& label) {
  const bool schedule = !c.function.empty() && c.function[0] == '@';
  ArmReferences refs;
  for (exec::ExecMode mode : kExecModes) {
    for (size_t shards : kShardCounts) {
      for (bool indexed : kIndexed) {
        if (schedule && indexed) continue;  // dimension lives in the oracle
        RunSignature sig;
        if (schedule) {
          fuzz::OracleOptions opts;
          opts.shard_count = shards;
          opts.exec_mode = mode;
          fuzz::OracleReport report = fuzz::RunOracle(c, opts);
          ASSERT_EQ(report.verdict, fuzz::Verdict::kPass)
              << label << " shards=" << shards << " mode="
              << exec::ExecModeName(mode) << ": " << report.detail;
          sig.answers = report.rewritten_source;
          ASSERT_FALSE(sig.answers.empty()) << label;
        } else {
          auto run = RunAtShardCount(c, shards, mode, indexed);
          ASSERT_TRUE(run.ok())
              << label << " shards=" << shards << " mode="
              << exec::ExecModeName(mode) << ": " << run.status().ToString();
          sig = *run;
        }
        refs.Check(indexed, sig,
                   label + " at shards=" + std::to_string(shards) +
                       " mode=" + exec::ExecModeName(mode) +
                       " indexed=" + std::to_string(indexed));
      }
    }
  }
}

TEST(ShardInvarianceTest, FuzzerProgramsAcrossAllFamilies) {
  constexpr int kCases = 96;
  int dml_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    uint64_t seed = SplitMix64(0xbee5 + static_cast<uint64_t>(i));
    fuzz::FuzzCase c = fuzz::GenerateCase(seed);
    if (fuzz::FamilyForSeed(seed) == fuzz::Family::kDml) ++dml_cases;
    ExpectInvariant(c, "seed " + std::to_string(seed));
  }
  // The sweep must include real-DML programs, or the per-shard write
  // path went untested; widen kCases if this ever fires.
  EXPECT_GE(dml_cases, 2) << "fuzz sweep contained too few DML programs";
}

TEST(ShardInvarianceTest, ApplyCorpusSeedsAcrossShardCounts) {
  // The OUTER APPLY reproducers: a NULL lookup key, and sibling applies
  // whose inner scans share one alias (each binds in its own scope).
  for (const char* name : {"apply_null_fk.eqf", "apply_shared_alias.eqf"}) {
    auto c = fuzz::LoadCaseFile(std::string(EQSQL_FUZZ_CORPUS_DIR) + "/" +
                                name);
    ASSERT_TRUE(c.ok()) << name << ": " << c.status().ToString();
    ExpectInvariant(*c, name);
  }
}

TEST(ShardInvarianceTest, DmlFamilySpecifically) {
  // Hunt DML-family seeds so the INSERT / UPDATE / read-back cycle is
  // exercised at every shard count regardless of the mixed sweep's
  // family draw.
  int found = 0;
  for (uint64_t probe = 0; probe < 4000 && found < 8; ++probe) {
    uint64_t seed = SplitMix64(0xd311 + probe);
    if (fuzz::FamilyForSeed(seed) != fuzz::Family::kDml) continue;
    ++found;
    ExpectInvariant(fuzz::GenerateCase(seed), "dml seed " + std::to_string(seed));
  }
  EXPECT_EQ(found, 8);
}

// The full oracle (original vs rewritten differential) must also pass
// at every shard count and on both execution engines: rewrites and
// refusals behave identically on partitioned storage, and in vector
// mode the original (row engine) vs rewrite (vector engine) comparison
// cross-checks the two interpreters against each other.
TEST(ShardInvarianceTest, OraclePassesAtEveryShardCount) {
  for (int i = 0; i < 12; ++i) {
    uint64_t seed = SplitMix64(0xacc7 + static_cast<uint64_t>(i));
    fuzz::FuzzCase c = fuzz::GenerateCase(seed);
    for (exec::ExecMode mode : kExecModes) {
      for (size_t shards : kShardCounts) {
        fuzz::OracleOptions opts;
        opts.shard_count = shards;
        opts.exec_mode = mode;
        fuzz::OracleReport report = fuzz::RunOracle(c, opts);
        EXPECT_EQ(report.verdict, fuzz::Verdict::kPass)
            << "seed " << seed << " shards=" << shards << " mode="
            << exec::ExecModeName(mode) << ": " << report.detail;
      }
    }
  }
}

// Transaction schedules extend the invariance property to MVCC: a
// multi-session BEGIN/COMMIT/ROLLBACK interleaving must produce the
// byte-identical step-by-step outcome log — every per-statement row
// count, every conflict, in the same order — at 1, 2, and 8 shards.
// The txn oracle's deterministic sequential stepping makes this exact:
// snapshot visibility and first-writer-wins conflicts may not depend
// on which shard a key hashes to.
TEST(ShardInvarianceTest, TxnFamilySchedulesAcrossShardCounts) {
  fuzz::GenOptions gopts;
  ASSERT_TRUE(fuzz::RestrictToFamily(&gopts, "txn"));
  for (int i = 0; i < 24; ++i) {
    uint64_t seed = SplitMix64(0x7a57 + static_cast<uint64_t>(i));
    fuzz::FuzzCase c = fuzz::GenerateCase(seed, gopts);
    ASSERT_EQ(c.function, "@txn");
    std::string reference;
    bool have_reference = false;
    for (exec::ExecMode mode : kExecModes) {
      for (size_t shards : kShardCounts) {
        fuzz::OracleOptions opts;
        opts.shard_count = shards;
        opts.exec_mode = mode;
        fuzz::OracleReport report = fuzz::RunOracle(c, opts);
        ASSERT_EQ(report.verdict, fuzz::Verdict::kPass)
            << "txn seed " << seed << " shards=" << shards << " mode="
            << exec::ExecModeName(mode) << ": " << report.detail;
        // rewritten_source carries the rendered outcome log.
        ASSERT_FALSE(report.rewritten_source.empty());
        if (!have_reference) {
          reference = report.rewritten_source;
          have_reference = true;
        } else {
          EXPECT_EQ(report.rewritten_source, reference)
              << "txn seed " << seed << " outcome log diverges at shards="
              << shards << " mode=" << exec::ExecModeName(mode);
        }
      }
    }
  }
}

// The index family extends the schedule invariance to DDL: CREATE
// INDEX statements interleaved with DML and transactions must leave
// the outcome log byte-identical at every shard count on both engines
// — and each oracle run is itself an indexed-vs-unindexed (and
// row-vs-vector) differential, so one green cell certifies four runs.
TEST(ShardInvarianceTest, IndexFamilySchedulesAcrossShardCounts) {
  fuzz::GenOptions gopts;
  ASSERT_TRUE(fuzz::RestrictToFamily(&gopts, "index"));
  for (int i = 0; i < 24; ++i) {
    uint64_t seed = SplitMix64(0x1d40 + static_cast<uint64_t>(i));
    fuzz::FuzzCase c = fuzz::GenerateCase(seed, gopts);
    ASSERT_EQ(c.function, "@index");
    ExpectInvariant(c, "index seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Workload apps: the four benchmark programs, original and rewritten,
// through the full Server/Session stack.

struct App {
  std::string name;
  std::string source;
  std::string function;
};

std::vector<App> BenchmarkApps() {
  return {{"matoso", workloads::MatosoProgram(), "findMaxScore"},
          {"jobportal", workloads::JobPortalProgram(), "jobReport"},
          {"selection", workloads::SelectionProgram(), "unfinished"},
          {"join", workloads::JoinProgram(), "userRoles"}};
}

net::ServerOptions AppServerOptions(size_t shards, exec::ExecMode mode) {
  net::ServerOptions options;
  options.plan_cache_capacity = 64;
  options.database.shard_count = shards;
  options.exec_mode = mode;
  options.exec_threads = 2;
  options.parallel_threshold = 0;  // force the parallel operators on
  options.optimize.transform.table_keys = {{"board", "id"},
                                           {"applicants", "id"},
                                           {"details", "id"},
                                           {"feedback1", "id"},
                                           {"education", "id"},
                                           {"project", "id"},
                                           {"wilosuser", "id"},
                                           {"role", "id"}};
  return options;
}

TEST(ShardInvarianceTest, WorkloadAppsThroughServerStack) {
  ArmReferences refs;
  for (exec::ExecMode mode : kExecModes) {
    for (size_t shards : kShardCounts) {
    for (bool indexed : kIndexed) {
    // The profiled arm runs the identical workload with an operator
    // profile attached to the connection: per-operator row counts and
    // timings are collected, and the signature — including the
    // simulated clock down to the last bit — may not notice.
    for (bool profiled : {false, true}) {
      net::Server server(AppServerOptions(shards, mode));
      ASSERT_TRUE(workloads::SetupMatosoDatabase(server.db(), 40, 4).ok());
      ASSERT_TRUE(workloads::SetupJobPortalDatabase(server.db(), 30).ok());
      ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 60, 25).ok());
      ASSERT_TRUE(workloads::SetupJoinDatabase(server.db(), 40).ok());
      if (indexed) CreateIndexesEverywhere(server.db());

      obs::Profile profile;
      RunSignature sig;
      {
        std::unique_ptr<net::Session> session = server.Connect();
        if (profiled) session->connection()->set_profile(&profile);
        for (const App& app : BenchmarkApps()) {
          auto program = frontend::ParseProgram(app.source);
          ASSERT_TRUE(program.ok()) << app.name;
          auto optimized = session->OptimizeCached(app.source, app.function);
          ASSERT_TRUE(optimized.ok()) << app.name;

          interp::Interpreter original(&*program, session->connection());
          auto r1 = original.Run(app.function);
          ASSERT_TRUE(r1.ok()) << app.name;
          interp::Interpreter rewritten(&(*optimized)->program,
                                        session->connection());
          auto r2 = rewritten.Run(app.function);
          ASSERT_TRUE(r2.ok()) << app.name;
          EXPECT_EQ(r1->DisplayString(), r2->DisplayString()) << app.name;
          sig.answers += app.name + ": " + r2->DisplayString() + "\n";
          for (const std::string& line : rewritten.printed()) {
            sig.answers += app.name + " print: " + line + "\n";
          }
        }
        // Session-cumulative cost counters are the bill; they must not
        // depend on the shard count or the execution engine either.
        sig.bill = Bill(session->stats());
        if (profiled) session->connection()->set_profile(nullptr);
      }
      // The profiled arm must actually have profiled something, or the
      // on/off comparison is vacuous.
      if (profiled) EXPECT_FALSE(profile.empty());
      EXPECT_FALSE(sig.answers.empty());
      refs.Check(indexed, sig,
                 "shards=" + std::to_string(shards) +
                     " mode=" + exec::ExecModeName(mode) +
                     " indexed=" + std::to_string(indexed) +
                     " profiled=" + std::to_string(profiled));
    }
    }
    }
  }
}

// ---------------------------------------------------------------------------
// Counter metrics carry the same invariance contract: for a fixed
// workload, every counter in the server registry whose name is not
// layout-scoped must be byte-identical at 1, 2, and 8 shards. Only
// per-shard breakdowns ("storage.shard.*"), pool/batch bookkeeping
// ("exec.pool.*", "exec.parallel.*"), scheduler bookkeeping
// ("net.scheduler.*" — dispatch counts depend on thread interleaving
// once requests flow through the admission queue), and timing
// histograms may differ — they describe HOW the work was partitioned
// and scheduled, not how much there was.

bool LayoutScoped(const std::string& name) {
  return name.rfind("storage.shard.", 0) == 0 ||
         name.rfind("exec.pool.", 0) == 0 ||
         name.rfind("exec.parallel.", 0) == 0 ||
         // Batch bookkeeping counts how the vectorized engine chunked
         // the work — batch counts follow per-shard chunk boundaries
         // (and are zero on the row engine), so they are layout- and
         // engine-scoped like the pool counters above.
         name.rfind("exec.batch.", 0) == 0 ||
         name.rfind("net.scheduler.", 0) == 0 ||
         // MVCC bookkeeping is layout-scoped too: version installs and
         // GC reclaim counts follow per-shard vacuum sweep boundaries.
         name.rfind("storage.mvcc.", 0) == 0 ||
         // Index counters describe which physical access path ran, not
         // what it produced — probes are zero in the index-off arm of
         // the grid by construction, so they are plan-scoped the way
         // exec.batch.* is engine-scoped.
         name.rfind("storage.index.", 0) == 0 ||
         name.rfind("exec.index.", 0) == 0 ||
         // Observability bookkeeping (sampled-trace and slow-query-log
         // admission counts) describes what the profiler recorded, not
         // what the engine produced — whether a request was sampled
         // depends on the arrival order of trace ids, which follows
         // scheduling like net.scheduler.* does.
         name.rfind("obs.trace.", 0) == 0 ||
         name.rfind("obs.profile.", 0) == 0 ||
         name.rfind("obs.slow_log.", 0) == 0;
}

/// All shard-invariant counters, flattened to one comparable string.
std::string CounterSignature(const obs::MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    if (LayoutScoped(name)) continue;
    out << name << "=" << value << "\n";
  }
  return out.str();
}

TEST(ShardInvarianceTest, CounterMetricsAreShardCountInvariant) {
  // One reference per index arm: the indexed arm bills index probes and
  // candidates where the unindexed arm bills scans.
  std::optional<std::string> references[2];
  for (exec::ExecMode mode : kExecModes) {
    for (size_t shards : kShardCounts) {
    for (bool indexed : kIndexed) {
    for (bool profiled : {false, true}) {
      net::Server server(AppServerOptions(shards, mode));
      ASSERT_TRUE(workloads::SetupMatosoDatabase(server.db(), 40, 4).ok());
      ASSERT_TRUE(workloads::SetupJobPortalDatabase(server.db(), 30).ok());
      ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 60, 25).ok());
      ASSERT_TRUE(workloads::SetupJoinDatabase(server.db(), 40).ok());
      if (indexed) CreateIndexesEverywhere(server.db());

      obs::Profile profile;
      {
        std::unique_ptr<net::Session> session = server.Connect();
        if (profiled) session->connection()->set_profile(&profile);
        for (const App& app : BenchmarkApps()) {
          auto optimized = session->OptimizeCached(app.source, app.function);
          ASSERT_TRUE(optimized.ok()) << app.name;
          interp::Interpreter rewritten(&(*optimized)->program,
                                        session->connection());
          ASSERT_TRUE(rewritten.Run(app.function).ok()) << app.name;
        }
        if (profiled) session->connection()->set_profile(nullptr);
      }

      obs::MetricsSnapshot snap = server.metrics()->Snapshot();
      std::string sig = CounterSignature(snap);
      ASSERT_FALSE(sig.empty());
      // The invariant set must actually cover the hot counters, or the
      // filter grew too wide and this test proves nothing. The vector
      // engine's exact cost-accounting parity is part of the claim:
      // storage.scan.rows/bytes and exec.rows_processed agree with the
      // row engine down to the last unit.
      EXPECT_NE(sig.find("storage.scan.rows="), std::string::npos);
      EXPECT_NE(sig.find("net.queries="), std::string::npos);
      EXPECT_NE(sig.find("extract.runs="), std::string::npos);
      EXPECT_NE(sig.find("exec.rows_processed="), std::string::npos);
      std::optional<std::string>& reference = references[indexed ? 1 : 0];
      if (!reference.has_value()) {
        reference = sig;
      } else {
        EXPECT_EQ(sig, *reference)
            << "counters diverge at shards=" << shards
            << " mode=" << exec::ExecModeName(mode)
            << " indexed=" << indexed << " profiled=" << profiled;
      }

      // Per-shard breakdowns must still reconcile with the invariant
      // totals: the sum over storage.shard.<i>.scan.rows equals
      // storage.scan.rows for the parallel operators' share. Weaker
      // check (<=): the serial path records no per-shard rows.
      int64_t per_shard_rows = 0;
      for (const auto& [name, value] : snap.counters) {
        if (name.rfind("storage.shard.", 0) == 0 &&
            name.size() > 10 &&
            name.compare(name.size() - 10, 10, ".scan.rows") == 0) {
          per_shard_rows += value;
        }
      }
      EXPECT_LE(per_shard_rows, snap.counters.at("storage.scan.rows"));

      // The exclusion must actually be doing work in the indexed arm:
      // the registry carries index counters there, and the signature
      // filter kept them out.
      if (indexed) {
        EXPECT_TRUE(snap.counters.count("storage.index.probes"));
        EXPECT_EQ(sig.find("storage.index."), std::string::npos);
        EXPECT_EQ(sig.find("exec.index."), std::string::npos);
      }
      // Likewise for the observability exclusions: the registry always
      // carries the trace/slow-log admission counters (the scheduler
      // registers them up front), and the signature filter must have
      // kept them out.
      EXPECT_TRUE(snap.counters.count("obs.trace.sampled"));
      EXPECT_EQ(sig.find("obs.trace."), std::string::npos);
      EXPECT_EQ(sig.find("obs.slow_log."), std::string::npos);
      if (profiled) EXPECT_FALSE(profile.empty());
    }
    }
    }
  }
}

}  // namespace
}  // namespace eqsql
