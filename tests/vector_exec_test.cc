// Batch-vs-row differential harness — the acceptance artifact of the
// vectorized execution path. The property: for any query and any data,
// the vectorized engine (exec::ExecMode::kVector) and the row engine
// (kRow) produce byte-identical observable outcomes — result-set
// schema, row contents in order, error status on failure, AND the
// simulated cost counters (rows/bytes transferred, simulated_ms down
// to the last bit: vector operators charge the exact per-row costs of
// their row counterparts, in the same order).
//
// Two populations prove it:
//  1. Hand-written edge cases aimed at the batch machinery itself:
//     empty tables, single-row shards, row counts straddling
//     exec::kBatchCapacity (1023/1024/1025), NULL-heavy columns,
//     runtime errors surfacing mid-batch, and tombstoned MVCC versions
//     punched into the middle of a chunk by DELETE/UPDATE.
//  2. The fuzzer's program families: every family's generated programs
//     run to completion on both engines with identical return values,
//     print streams, and transfer counters.
// Every case sweeps shard counts 1, 2, and 8, each with no pool and —
// above one shard — with a pool and the fan-out forced on (threshold
// 0), so the inline shard tasks, the pooled ones, and the row fallback
// paths all get compared. Each cell must also match the 1-shard row
// engine's rendering: two engines that fan out alike can agree on a
// wrong answer, but not with the serial reference. scripts/verify.sh
// runs this suite under TSan too.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/hash.h"
#include "exec/batch.h"
#include "exec/exec_mode.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace eqsql {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;

constexpr size_t kShardCounts[] = {1, 2, 8};

struct QuerySpec {
  std::string sql;
  std::vector<Value> params;
};

/// One query outcome flattened to a comparable string: schema, every
/// row in order, the connection's cost counters (full precision — the
/// parity claim covers the simulated clock), and the storage.scan.rows
/// the statement charged. Errors render their full status so both
/// engines must fail identically too, scan charges included.
std::string RenderOutcome(const net::Outcome& out,
                          const net::ConnectionStats& stats,
                          int64_t scan_rows) {
  std::ostringstream s;
  s.precision(17);
  if (!out.ok()) {
    s << "error: " << out.status.ToString() << "\n";
  } else if (out.kind == net::Outcome::Kind::kResultSet) {
    s << "schema:";
    for (const Column& c : out.rows.schema->columns()) {
      s << " " << c.name << ":" << catalog::DataTypeToString(c.type);
    }
    s << "\n";
    for (const Row& row : out.rows.rows) {
      for (const Value& v : row) s << v.ToString() << "|";
      s << "\n";
    }
    s << "wire=" << out.rows.WireSize() << "\n";
  } else {
    s << "rowcount=" << out.row_count << "\n";
  }
  s << "stats: queries=" << stats.queries_executed
    << " rows=" << stats.rows_transferred
    << " bytes=" << stats.bytes_transferred << " ms=" << stats.simulated_ms
    << " scan_rows=" << scan_rows << "\n";
  return s.str();
}

/// Runs one query on a fresh connection in the given mode; the fresh
/// connection and registry make the trailing stats line exactly this
/// query's cost.
std::string RunOne(storage::Database* db, exec::WorkerPool* pool,
                   const QuerySpec& q, exec::ExecMode mode) {
  net::Connection conn(db);
  obs::MetricsRegistry reg;
  conn.set_metrics(&reg);
  conn.set_exec_mode(mode);
  if (pool != nullptr) {
    conn.set_worker_pool(pool);
    conn.set_parallel_threshold(0);  // force the shard fan-out on
  }
  net::Outcome out = conn.Perform(net::Request::Query(q.sql, q.params));
  return RenderOutcome(out, conn.stats(),
                       reg.Snapshot().counters.at("storage.scan.rows"));
}

using SetupFn = std::function<void(storage::Database*)>;

/// The differential core: builds a fresh database per shard count,
/// applies `setup`, then requires every query to render identically on
/// both engines, with and without a pool, and identically to the
/// 1-shard row engine's rendering.
void SweepShards(const SetupFn& setup, const std::vector<QuerySpec>& queries,
                 const std::string& label) {
  std::vector<std::string> reference(queries.size());
  for (size_t shards : kShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    setup(&db);
    exec::WorkerPool pool(2);
    for (bool pooled : {false, true}) {
      if (pooled && shards == 1) continue;
      for (size_t i = 0; i < queries.size(); ++i) {
        const QuerySpec& q = queries[i];
        exec::WorkerPool* p = pooled ? &pool : nullptr;
        std::string row = RunOne(&db, p, q, exec::ExecMode::kRow);
        std::string vec = RunOne(&db, p, q, exec::ExecMode::kVector);
        EXPECT_EQ(vec, row) << label << " shards=" << shards
                            << " pooled=" << pooled << " query: " << q.sql;
        if (shards == 1) {
          reference[i] = row;
        } else {
          EXPECT_EQ(row, reference[i])
              << label << " row engine diverges from 1 shard at shards="
              << shards << " pooled=" << pooled << " query: " << q.sql;
          EXPECT_EQ(vec, reference[i])
              << label << " vector engine diverges from 1 shard at shards="
              << shards << " pooled=" << pooled << " query: " << q.sql;
        }
      }
    }
  }
}

/// The standard fact table: id, group key, two int values (w carries
/// zeroes for division-error cases), a nullable int, and a string.
Schema FactSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"fk", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"w", DataType::kInt64},
                 {"nv", DataType::kInt64},
                 {"name", DataType::kString}});
}

storage::Table* MakeFact(storage::Database* db, size_t n) {
  auto table = db->CreateTable("fact", FactSchema());
  EXPECT_TRUE(table.ok());
  for (size_t i = 0; i < n; ++i) {
    int64_t id = static_cast<int64_t>(i);
    Row row = {Value::Int(id),
               Value::Int(id % 4),
               Value::Int((id * 7) % 29 - 11),
               Value::Int(id % 5 + 1),
               i % 3 == 0 ? Value::Int(id % 13) : Value::Null(),
               Value::String("n" + std::to_string(id))};
    EXPECT_TRUE((*table)->Insert(std::move(row)).ok());
  }
  return *table;
}

/// The query mix every data shape runs: scan, filter, projection
/// arithmetic, int group-by fold, scalar aggregates, and the operators
/// that fall back to the row engine (ORDER BY, DISTINCT, EXISTS) —
/// fallbacks must be differential no-ops, not differently-behaving
/// paths.
std::vector<QuerySpec> StandardQueries() {
  return {
      {"SELECT * FROM fact AS m", {}},
      {"SELECT * FROM fact AS m WHERE m.v > 0", {}},
      {"SELECT * FROM fact AS m WHERE m.v > ? AND m.fk = ?",
       {Value::Int(-3), Value::Int(2)}},
      {"SELECT m.v + m.w AS s, m.v * 2 AS d FROM fact AS m", {}},
      {"SELECT m.fk, COUNT(*) AS c, MAX(m.v) AS mx, SUM(m.w) AS sw "
       "FROM fact AS m GROUP BY m.fk",
       {}},
      {"SELECT m.fk, MIN(m.v) AS mn FROM fact AS m WHERE m.v > 0 "
       "GROUP BY m.fk",
       {}},
      {"SELECT COUNT(*) AS c FROM fact AS m", {}},
      {"SELECT MAX(m.v) AS mx FROM fact AS m WHERE m.fk = 1", {}},
      {"SELECT SUM(m.nv) AS s FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m ORDER BY m.v DESC LIMIT 3", {}},
      {"SELECT DISTINCT m.fk AS g FROM fact AS m", {}},
      {"SELECT m.name AS name FROM fact AS m WHERE m.nv IS NULL "
       "AND m.v < 0",
       {}},
      {"SELECT CASE WHEN m.v > 0 THEN m.v ELSE 0 - m.v END AS av "
       "FROM fact AS m",
       {}},
      {"SELECT GREATEST(m.v, m.w, m.nv) AS g FROM fact AS m", {}},
  };
}

// ---------------------------------------------------------------------------
// Hand-written edge cases.

TEST(VectorExecTest, EmptyTables) {
  SweepShards([](storage::Database* db) { MakeFact(db, 0); },
              StandardQueries(), "empty");
}

TEST(VectorExecTest, SingleRowTable) {
  SweepShards([](storage::Database* db) { MakeFact(db, 1); },
              StandardQueries(), "single-row");
}

// At 8 shards an 8-row table leaves ~1 row per shard — every per-shard
// cursor produces a 1-row batch (or none), the smallest parallel fold.
TEST(VectorExecTest, SingleRowShards) {
  SweepShards([](storage::Database* db) { MakeFact(db, 8); },
              StandardQueries(), "one-row-per-shard");
}

// Row counts straddling exec::kBatchCapacity: one lane short of a full
// batch, exactly one full batch, and a full batch plus one spill lane.
TEST(VectorExecTest, BatchBoundaryRowCounts) {
  static_assert(exec::kBatchCapacity == 1024,
                "edge-case row counts below assume 1024-row batches");
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    SweepShards([n](storage::Database* db) { MakeFact(db, n); },
                StandardQueries(), "rows=" + std::to_string(n));
  }
}

// A column that is mostly NULL stresses the boxed lanes: three-valued
// filter logic, NULL-propagating arithmetic, IS NULL, and aggregates
// that skip NULL inputs must agree lane for lane.
TEST(VectorExecTest, NullHeavyColumns) {
  auto setup = [](storage::Database* db) {
    auto table = db->CreateTable("fact", FactSchema());
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < 1500; ++i) {
      int64_t id = static_cast<int64_t>(i);
      // ~90% NULL in nv; v itself goes NULL-heavy on a second stripe.
      Row row = {Value::Int(id),
                 Value::Int(id % 3),
                 i % 7 == 0 ? Value::Null() : Value::Int(id % 23 - 11),
                 Value::Int(id % 4 + 1),
                 i % 10 == 0 ? Value::Int(id % 5) : Value::Null(),
                 Value::String("s" + std::to_string(id % 11))};
      ASSERT_TRUE((*table)->Insert(std::move(row)).ok());
    }
  };
  std::vector<QuerySpec> queries = StandardQueries();
  queries.push_back({"SELECT m.nv + m.v AS s FROM fact AS m", {}});
  queries.push_back(
      {"SELECT m.id AS id FROM fact AS m WHERE m.nv > 2 OR m.v > 9", {}});
  queries.push_back(
      {"SELECT m.fk, COUNT(*) AS c, SUM(m.nv) AS s, MAX(m.v) AS mx "
       "FROM fact AS m WHERE m.nv IS NULL GROUP BY m.fk",
       {}});
  SweepShards(setup, queries, "null-heavy");
}

// Runtime errors must surface identically: same status, raised at the
// same logical row, with the same cost charged before the failure. The
// zero divisor sits mid-batch (row 700 of 1100), so the vector engine
// has already produced full clean batches before the poisoned lane.
TEST(VectorExecTest, MidBatchRuntimeErrors) {
  auto setup = [](storage::Database* db) {
    auto table = db->CreateTable("fact", FactSchema());
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < 1100; ++i) {
      int64_t id = static_cast<int64_t>(i);
      Row row = {Value::Int(id),
                 Value::Int(id % 4),
                 Value::Int(id % 19 + 1),
                 // One zero divisor, mid-batch.
                 Value::Int(i == 700 ? 0 : id % 5 + 1),
                 Value::Null(),
                 Value::String("e")};
      ASSERT_TRUE((*table)->Insert(std::move(row)).ok());
    }
  };
  std::vector<QuerySpec> queries = {
      // Integer division by zero yields NULL (MySQL semantics), so
      // these are value-parity cases, not failures — the boxed lane
      // must agree with the row engine's NULL.
      {"SELECT m.v / m.w AS q FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.v / m.w > 2", {}},
      {"SELECT m.fk, SUM(m.v / m.w) AS s FROM fact AS m GROUP BY m.fk", {}},
      // String arithmetic is a genuine runtime error: both engines
      // must fail with the same status at the same first row.
      {"SELECT m.v + m.name AS bad FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.name > 3", {}},
      // A group-by over a failing filter: the filter runs over the whole
      // scan before the fold sees a row, so the predicate's error (row
      // 100) outranks the key's (row 1) however the scan is split.
      {"SELECT COUNT(*) AS c FROM fact AS m "
       "WHERE CASE WHEN m.id = 100 THEN m.name < 5 ELSE TRUE END "
       "GROUP BY CASE WHEN m.id = 1 THEN m.name * 2 ELSE m.fk END",
       {}},
      // The same failing filter alone: the scan is charged in full
      // (storage.scan.rows = 1100) before the error surfaces.
      {"SELECT m.id AS id FROM fact AS m "
       "WHERE CASE WHEN m.id = 100 THEN m.name < 5 ELSE TRUE END",
       {}},
  };
  SweepShards(setup, queries, "mid-batch-errors");
}

// DELETE and UPDATE punch tombstoned versions into the middle of what
// a batch scan covers: the cursor must skip invisible versions without
// disturbing seq order, chunk sizes, or the charged scan cost.
TEST(VectorExecTest, TombstonedVersionsMidBatch) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 1100);
    net::Connection admin(db);
    // A contiguous hole spanning a batch boundary, scattered single
    // holes, and an update stripe whose superseded versions are also
    // mid-chain tombstones at the read snapshot.
    auto dml = [&](const std::string& sql) {
      net::Outcome out = admin.Perform(net::Request::Statement(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    };
    dml("DELETE FROM fact WHERE id >= 990 AND id < 1050");
    dml("DELETE FROM fact WHERE v = 3");
    dml("UPDATE fact SET v = v + 100 WHERE id >= 200 AND id < 300");
  };
  SweepShards(setup, StandardQueries(), "tombstoned");
}

// Same data, after Vacuum() retired the dead versions: the contract
// must hold both while tombstones sit in the version chains and after
// GC compacts them away.
TEST(VectorExecTest, TombstonesSurviveVacuum) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 1100);
    net::Connection admin(db);
    auto dml = [&](const std::string& sql) {
      net::Outcome out = admin.Perform(net::Request::Statement(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    };
    dml("DELETE FROM fact WHERE id >= 990 AND id < 1050");
    dml("UPDATE fact SET v = 0 - v WHERE fk = 1");
    db->Vacuum();
  };
  SweepShards(setup, StandardQueries(), "post-vacuum");
}

// ---------------------------------------------------------------------------
// Fuzzer families: every program family runs on both engines with
// identical observable behavior.

/// Interprets the case's function in the given mode; signature covers
/// return value, print stream, and the connection's cost counters.
Result<std::string> RunProgram(const fuzz::FuzzCase& c, size_t shards,
                               exec::ExecMode mode) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  storage::Database db(dbo);
  EQSQL_RETURN_IF_ERROR(fuzz::BuildDatabase(c, &db));
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

  std::ostringstream out;
  out.precision(17);
  out << "return=" << result->DisplayString() << "\n";
  for (const std::string& line : interp.printed()) out << "print=" << line << "\n";
  const net::ConnectionStats& stats = conn.stats();
  out << "queries=" << stats.queries_executed
      << " rows=" << stats.rows_transferred
      << " bytes=" << stats.bytes_transferred << " ms=" << stats.simulated_ms
      << "\n";
  return out.str();
}

TEST(VectorExecTest, EveryFuzzerFamilyAgreesAcrossModes) {
  constexpr fuzz::Family kFamilies[] = {
      fuzz::Family::kFilterCollect, fuzz::Family::kScalarAgg,
      fuzz::Family::kMaxMin,        fuzz::Family::kExists,
      fuzz::Family::kJoin,          fuzz::Family::kGroupBy,
      fuzz::Family::kArgmax,        fuzz::Family::kApply,
      fuzz::Family::kPrint,         fuzz::Family::kBreak,
      fuzz::Family::kPartial,       fuzz::Family::kMultiAgg,
      fuzz::Family::kConcat,        fuzz::Family::kCorrExists,
      fuzz::Family::kDml,           fuzz::Family::kTxn,
  };
  for (fuzz::Family family : kFamilies) {
    fuzz::GenOptions gopts;
    ASSERT_TRUE(fuzz::RestrictToFamily(&gopts, fuzz::FamilyName(family)));
    for (uint64_t probe = 0; probe < 3; ++probe) {
      uint64_t seed = SplitMix64(0xba7c4 + probe * 131 +
                                 static_cast<uint64_t>(family));
      fuzz::FuzzCase c = fuzz::GenerateCase(seed, gopts);
      const std::string label = std::string(fuzz::FamilyName(family)) +
                                " seed " + std::to_string(seed);
      for (size_t shards : kShardCounts) {
        if (c.function == "@txn") {
          // Schedules compare through the txn oracle's outcome log.
          std::string logs[2];
          int i = 0;
          for (exec::ExecMode mode :
               {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
            fuzz::OracleOptions opts;
            opts.shard_count = shards;
            opts.exec_mode = mode;
            fuzz::OracleReport report = fuzz::RunOracle(c, opts);
            ASSERT_EQ(report.verdict, fuzz::Verdict::kPass)
                << label << " shards=" << shards << ": " << report.detail;
            logs[i++] = report.rewritten_source;
          }
          EXPECT_EQ(logs[1], logs[0]) << label << " shards=" << shards;
        } else {
          auto row = RunProgram(c, shards, exec::ExecMode::kRow);
          auto vec = RunProgram(c, shards, exec::ExecMode::kVector);
          ASSERT_TRUE(row.ok()) << label << ": " << row.status().ToString();
          ASSERT_TRUE(vec.ok()) << label << ": " << vec.status().ToString();
          EXPECT_EQ(*vec, *row) << label << " shards=" << shards;
        }
      }
    }
  }
}

// The rewritten programs (extracted SQL) must agree too: the oracle in
// vector mode runs the original on the row engine and the rewrite on
// the vector engine, so a kPass verdict is itself a cross-engine
// equivalence proof over the extracted GROUP BY/JOIN/APPLY queries.
TEST(VectorExecTest, ExtractedSqlAgreesAcrossModes) {
  int extracted = 0;
  for (uint64_t i = 0; i < 24; ++i) {
    uint64_t seed = SplitMix64(0x5eed + i);
    fuzz::FuzzCase c = fuzz::GenerateCase(seed);
    for (size_t shards : kShardCounts) {
      fuzz::OracleOptions opts;
      opts.shard_count = shards;
      opts.exec_mode = exec::ExecMode::kVector;
      fuzz::OracleReport report = fuzz::RunOracle(c, opts);
      EXPECT_EQ(report.verdict, fuzz::Verdict::kPass)
          << "seed " << seed << " shards=" << shards << ": " << report.detail;
      if (report.extracted && shards == 1) ++extracted;
    }
  }
  // The sweep must actually cover extracted rewrites, or the
  // cross-engine claim above is vacuous.
  EXPECT_GE(extracted, 8);
}

}  // namespace
}  // namespace eqsql
