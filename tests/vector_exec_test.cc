// Batch-engine differential harness. The executor has one engine: Select,
// Project and GroupBy evaluate their expressions a batch at a time,
// compiled (exec::CompiledExpr), except that an operator whose
// expressions contain a subquery evaluates them one row at a time. Three
// references check it:
//  1. Layout invariance: every query renders byte-identically -- result
//     schema, rows in order, error status, the simulated cost counters
//     down to the last bit, and storage.scan.rows -- at 1, 2 and 8
//     shards, each above one shard with no pool and with a pool and the
//     fan-out forced on (threshold 0). The reference is the 1-shard run
//     without a pool.
//  2. Recorded renderings: that reference rendering must hash to the
//     Fnv1a digest recorded when a row-at-a-time engine still ran beside
//     this one and both rendered it identically, so the batch engine
//     cannot drift from what the row engine answered and billed.
//  3. A lane differential: every Select predicate, Project item and
//     GroupBy key and argument of each query, compiled and evaluated over
//     its operator's input rows, agrees lane by lane with per-row
//     evaluation (Executor::Eval) on the value or on the full error
//     status.
//
// The data shapes aim at the batch machinery itself: empty tables,
// single-row shards, row counts straddling exec::kBatchCapacity
// (1023/1024/1025), NULL-heavy columns, runtime errors mid-batch, and
// tombstoned MVCC versions punched into the middle of a chunk by
// DELETE/UPDATE. Further cases cover what compiles since the row engine
// went: outer references below the top frame, deferred-error names and
// unbound parameters, and subquery operators that evaluate per row.
// scripts/verify.sh runs this suite under ASan and TSan too.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/hash.h"
#include "exec/batch.h"
#include "exec/binder.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/shard_guard.h"

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
/// the statement charged. Errors render their full status, so every
/// layout must fail identically too, scan charges included.
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

/// A fresh connection over `db`; with `pool`, the shard fan-out is
/// forced on.
std::unique_ptr<net::Connection> Connect(storage::Database* db,
                                         exec::WorkerPool* pool) {
  auto conn = std::make_unique<net::Connection>(db);
  if (pool != nullptr) {
    conn->set_worker_pool(pool);
    conn->set_parallel_threshold(0);
  }
  return conn;
}

/// Runs one query on a fresh connection; the fresh connection and
/// registry make the trailing stats line exactly this query's cost.
std::string RunOne(storage::Database* db, exec::WorkerPool* pool,
                   const QuerySpec& q) {
  std::unique_ptr<net::Connection> conn = Connect(db, pool);
  obs::MetricsRegistry reg;
  conn->set_metrics(&reg);
  net::Outcome out = conn->Perform(net::Request::Query(q.sql, q.params));
  return RenderOutcome(out, conn->stats(),
                       reg.Snapshot().counters.at("storage.scan.rows"));
}

/// True when a compiled lane and a per-row result agree: the same value
/// (and rendering, so an int never matches a double), or the same full
/// error status.
bool LaneMatches(const exec::Vec& v, size_t i, const Result<Value>& want) {
  if (!want.ok()) {
    return v.ErrAt(i) && v.ErrStatus(i).ToString() == want.status().ToString();
  }
  return !v.ErrAt(i) && v.At(i) == *want &&
         v.At(i).ToString() == want->ToString();
}

/// The lane differential: every Select predicate, Project item and
/// GroupBy key and argument of `q`, compiled and evaluated over its
/// operator's input rows in kBatchCapacity-lane batches, agrees lane by
/// lane with per-row evaluation through Executor::Eval. It covers the
/// top frame's operators: an operator's input rows are its child plan's
/// answer; an operator whose input fails never runs and is skipped, and
/// so is an expression with a subquery, which never compiles. Operators
/// below the top frame read outer rows, and the renderings cover them.
void ExpectLanesMatchPerRow(storage::Database* db, const QuerySpec& q,
                            const std::string& label) {
  Result<ra::RaNodePtr> plan = sql::ParseSql(q.sql);
  ASSERT_TRUE(plan.ok()) << q.sql << ": " << plan.status().ToString();
  const storage::ReadGuard guard =
      storage::ReadGuard::Acquire(*db, ra::CollectScannedTables(*plan));
  const std::shared_ptr<const exec::BoundPlan> bound =
      exec::BindPlan(**plan, guard);
  exec::Executor ex(db);
  exec::EvalContext ctx(&q.params);
  std::function<void(const exec::BoundNode&)> visit =
      [&](const exec::BoundNode& node) {
        if (node.depth > 0) return;
        for (const exec::BoundNode& child : node.children) visit(child);
        std::vector<const exec::BoundExpr*> exprs;
        if (node.op == ra::RaOp::kSelect) exprs.push_back(&node.predicate);
        if (node.op == ra::RaOp::kProject && !node.over_chain) {
          for (const exec::BoundExpr& item : node.items) exprs.push_back(&item);
        }
        if (node.op == ra::RaOp::kGroupBy) {
          for (const exec::BoundExpr& k : node.keys) exprs.push_back(&k);
          const auto& aggs = node.source->aggregates();
          for (size_t a = 0; a < aggs.size(); ++a) {
            if (aggs[a].func != ra::AggFunc::kCountStar) {
              exprs.push_back(&node.aggs[a]);
            }
          }
        }
        if (exprs.empty()) return;
        Result<exec::ResultSet> in = ex.Execute(node.source->child(0), q.params);
        if (!in.ok()) return;
        std::vector<const Row*> rows;
        for (const Row& row : in->rows) rows.push_back(&row);
        for (const exec::BoundExpr* e : exprs) {
          std::unique_ptr<exec::CompiledExpr> compiled =
              exec::CompiledExpr::Compile(*e, node.depth, ctx);
          if (compiled == nullptr) continue;
          exec::Vec v;
          for (size_t off = 0; off < rows.size();
               off += exec::kBatchCapacity) {
            const size_t n = std::min(exec::kBatchCapacity, rows.size() - off);
            compiled->Eval(rows.data() + off, n, &v);
            ASSERT_EQ(v.n, n) << label << ": " << q.sql;
            for (size_t i = 0; i < n; ++i) {
              ctx.PushFrame(rows[off + i]);
              Result<Value> want = ex.Eval(*e, &ctx);
              ctx.PopFrame();
              ASSERT_TRUE(LaneMatches(v, i, want))
                  << label << ": lane " << off + i << " of a "
                  << ra::RaOpToString(node.op) << " expression in " << q.sql
                  << ": per-row "
                  << (want.ok() ? want->ToString() : want.status().ToString())
                  << ", compiled "
                  << (v.ErrAt(i) ? v.ErrStatus(i).ToString()
                                 : v.At(i).ToString());
            }
          }
        }
      };
  visit(bound->root());
}

using SetupFn = std::function<void(storage::Database*)>;

/// The differential core: builds a fresh database per shard count,
/// applies `setup`, then requires every query to render identically at
/// every layout -- no pool, and above one shard a forced pool -- to the
/// 1-shard unpooled rendering, whose concatenation over `queries` must
/// hash to `digest`. At 1 shard every query also runs the lane
/// differential.
void SweepShards(const SetupFn& setup, const std::vector<QuerySpec>& queries,
                 const std::string& label, uint64_t digest) {
  std::vector<std::string> reference(queries.size());
  for (size_t shards : kShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    setup(&db);
    if (shards == 1) {
      for (const QuerySpec& q : queries) ExpectLanesMatchPerRow(&db, q, label);
    }
    exec::WorkerPool pool(2);
    for (bool pooled : {false, true}) {
      if (pooled && shards == 1) continue;
      for (size_t i = 0; i < queries.size(); ++i) {
        const QuerySpec& q = queries[i];
        const std::string got = RunOne(&db, pooled ? &pool : nullptr, q);
        if (shards == 1) {
          reference[i] = got;
        } else {
          EXPECT_EQ(got, reference[i])
              << label << " diverges from 1 shard at shards=" << shards
              << " pooled=" << pooled << " query: " << q.sql;
        }
      }
    }
  }
  std::string all;
  for (const std::string& r : reference) all += r;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, Fnv1a(all));
  EXPECT_EQ(Fnv1a(all), digest)
      << label << ": the 1-shard rendering hashes to " << hex
      << ", not to the recorded digest. It reads:\n"
      << all;
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

storage::Table* MakeFact(storage::Database* db, size_t n,
                         const std::string& name = "fact") {
  auto table = db->CreateTable(name, FactSchema());
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
/// that evaluate row at a time (ORDER BY, DISTINCT).
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
      // GREATEST/LEAST over int-only arguments take the typed fold;
      // NULL (m.nv), string (m.name) and error lanes stay boxed.
      {"SELECT GREATEST(m.v, m.w) AS g, LEAST(m.v, m.w, m.fk) AS l "
       "FROM fact AS m",
       {}},
      {"SELECT MAX(GREATEST(GREATEST(GREATEST(m.v, m.w), m.fk), m.id)) AS g, "
       "MIN(LEAST(m.v, m.w)) AS l FROM fact AS m",
       {}},
      {"SELECT m.fk, MAX(GREATEST(m.v, m.w)) AS g, SUM(LEAST(m.v, m.w)) AS l "
       "FROM fact AS m GROUP BY m.fk",
       {}},
      {"SELECT LEAST(m.v, m.nv) AS l, GREATEST(m.nv, m.w) AS g "
       "FROM fact AS m",
       {}},
      {"SELECT MAX(GREATEST(m.v, m.nv)) AS g FROM fact AS m", {}},
      {"SELECT GREATEST(m.v, m.name) AS g, LEAST(m.name, m.w) AS l "
       "FROM fact AS m",
       {}},
      {"SELECT LEAST(m.v, m.v + m.name) AS bad FROM fact AS m", {}},
  };
}

// ---------------------------------------------------------------------------
// Hand-written edge cases. Each digest was recorded from the 1-shard
// rendering of a build whose row-at-a-time engine rendered it
// identically.

TEST(VectorExecTest, EmptyTables) {
  SweepShards([](storage::Database* db) { MakeFact(db, 0); },
              StandardQueries(), "empty", 0xd1368973f395fdecULL);
}

TEST(VectorExecTest, SingleRowTable) {
  SweepShards([](storage::Database* db) { MakeFact(db, 1); },
              StandardQueries(), "single-row", 0xfe4816b08e070a23ULL);
}

// At 8 shards an 8-row table leaves ~1 row per shard — every per-shard
// cursor produces a 1-row batch (or none), the smallest parallel fold.
TEST(VectorExecTest, SingleRowShards) {
  SweepShards([](storage::Database* db) { MakeFact(db, 8); },
              StandardQueries(), "one-row-per-shard",
              0xdf72fd138a2f9996ULL);
}

// Row counts straddling exec::kBatchCapacity: one lane short of a full
// batch, exactly one full batch, and a full batch plus one spill lane.
TEST(VectorExecTest, BatchBoundaryRowCounts) {
  static_assert(exec::kBatchCapacity == 1024,
                "edge-case row counts below assume 1024-row batches");
  const size_t kRows[] = {1023, 1024, 1025};
  const uint64_t kDigests[] = {0x49787e4d3ac5a54eULL, 0x495c944bf539d206ULL,
                               0x13280b5ba90bf014ULL};
  for (size_t i = 0; i < 3; ++i) {
    const size_t n = kRows[i];
    SweepShards([n](storage::Database* db) { MakeFact(db, n); },
                StandardQueries(), "rows=" + std::to_string(n), kDigests[i]);
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
  SweepShards(setup, queries, "null-heavy", 0xa74cac79860cf06fULL);
}

// Runtime errors must surface identically: same status, raised at the
// same logical row, with the same cost charged before the failure. The
// zero divisor sits mid-batch (row 700 of 1100), so full clean batches
// run before the poisoned lane.
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
      // these are value cases, not failures — the boxed lane must be
      // the per-row NULL.
      {"SELECT m.v / m.w AS q FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.v / m.w > 2", {}},
      {"SELECT m.fk, SUM(m.v / m.w) AS s FROM fact AS m GROUP BY m.fk", {}},
      // String arithmetic is a genuine runtime error: every layout must
      // fail with the same status at the same first row.
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
  SweepShards(setup, queries, "mid-batch-errors", 0xdba06ee5ce4f4ac7ULL);
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
  SweepShards(setup, StandardQueries(), "tombstoned", 0x30e7e38b0eab7986ULL);
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
  SweepShards(setup, StandardQueries(), "post-vacuum", 0x65a4bb1ce4c020ceULL);
}

/// `dim(k, g, tag)`: 40 unkeyed rows whose k and g repeat, for the
/// correlated subplans below.
void MakeDim(storage::Database* db) {
  auto dim = db->CreateTable("dim", Schema({{"k", DataType::kInt64},
                                            {"g", DataType::kInt64},
                                            {"tag", DataType::kString}}));
  ASSERT_TRUE(dim.ok());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*dim)
                    ->Insert({Value::Int(i % 13), Value::Int(i % 4),
                              Value::String("t" + std::to_string(i))})
                    .ok());
  }
}

// References to an outer frame fold to this execution's value when the
// operator below the top frame compiles: the correlated scan filter
// under EXISTS (unkeyed, so a filter fused with its scan), a GroupBy
// subplan run per left row by an apply, and a probe level that finds no
// key or index and falls through to the filter over its scan. The
// answers and bills are the row engine's, at every layout.
TEST(VectorExecTest, OuterReferencesBelowTheTopFrame) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 300);
    MakeDim(db);
  };
  const std::vector<QuerySpec> queries = {
      {"SELECT m.id AS id FROM fact AS m WHERE EXISTS "
       "(SELECT d.tag AS t FROM dim AS d WHERE d.k = m.nv AND d.g < m.w)",
       {}},
      {"SELECT m.id AS i, c AS c, s AS s FROM fact AS m OUTER APPLY "
       "(SELECT COUNT(*) AS c, SUM(d.k + m.v) AS s FROM dim AS d "
       "WHERE d.g = m.fk)",
       {}},
      {"SELECT m.id AS i, c AS c FROM fact AS m OUTER APPLY "
       "(SELECT d.g AS g, COUNT(*) AS c FROM dim AS d "
       "WHERE d.k < m.w + ? GROUP BY d.g)",
       {Value::Int(2)}},
      {"SELECT m.id AS i, t AS t FROM fact AS m OUTER APPLY "
       "(SELECT d.tag AS t FROM dim AS d WHERE d.k = m.fk AND d.g = m.w - 1)",
       {}},
      {"SELECT m.id AS i, t AS t FROM fact AS m OUTER APPLY "
       "(SELECT d.k * m.v AS t FROM dim AS d WHERE d.k = m.nv)",
       {}},
  };
  SweepShards(setup, queries, "outer-references", 0xed4dda6be188ae25ULL);
}

// A name bound to a deferred error and an unbound `?` compile to lanes
// that carry the error: it surfaces on the first row that evaluates it,
// with the row engine's status, never behind a FALSE AND or an untaken
// CASE branch, and never over empty input.
TEST(VectorExecTest, DeferredErrorsAndUnboundParameters) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 1100);
    MakeFact(db, 0, "empty");
  };
  const std::vector<QuerySpec> queries = {
      {"SELECT m.id AS id FROM fact AS m WHERE m.nosuch = 1", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.id < 0 AND m.nosuch = 1",
       {}},
      {"SELECT m.id AS id, m.nosuch AS x FROM fact AS m", {}},
      {"SELECT m.nosuch AS x FROM empty AS m", {}},
      {"SELECT m.id AS id FROM empty AS m WHERE m.nosuch = 1", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.v > ?", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.id < 0 AND m.v > ?", {}},
      {"SELECT m.v + ? AS x FROM empty AS m", {}},
      {"SELECT m.fk, SUM(CASE WHEN m.id < 0 THEN m.nosuch ELSE m.v END) AS s "
       "FROM fact AS m GROUP BY m.fk",
       {}},
      {"SELECT m.fk, MAX(m.v + ?) AS s FROM fact AS m GROUP BY m.fk", {}},
      {"SELECT COUNT(*) AS c FROM empty AS m WHERE m.nosuch = ?", {}},
  };
  SweepShards(setup, queries, "deferred-errors", 0x8b982468e2760f30ULL);
}

/// `label[execs]` per profile node, children in parentheses.
std::string RenderExecs(const obs::ProfileNode* n) {
  if (n == nullptr) return "";
  std::string out = n->label + "[" + std::to_string(n->execs) + "]";
  if (n->children.empty()) return out;
  out += "(";
  for (size_t i = 0; i < n->children.size(); ++i) {
    if (i > 0) out += ",";
    out += RenderExecs(n->children[i].get());
  }
  return out + ")";
}

// An operator whose expressions contain EXISTS evaluates them all one
// row at a time, in row order, and stops at the first failing row: the
// subplan runs for exactly the rows the row engine ran it for. Each
// query's status, storage.scan.rows and profile execs are pinned to the
// values the row engine produced, at every layout.
TEST(VectorExecTest, SubqueryOperatorsRunPerRowInRowOrder) {
  const char* kExists =
      "EXISTS (SELECT k.id AS j FROM keyed AS k WHERE k.id = m.fk)";
  const std::string filter =
      std::string("SELECT m.id AS id FROM fact AS m WHERE ") + kExists +
      " AND CASE WHEN m.id = 700 THEN m.name > 3 ELSE TRUE END";
  const std::string project =
      std::string("SELECT m.id AS id, CASE WHEN ") + kExists +
      " THEN 1 ELSE 0 END AS e, CASE WHEN m.id = 700 THEN m.v - m.name "
      "ELSE m.v END AS bad FROM fact AS m";
  const std::string aggregate =
      std::string("SELECT m.fk, SUM(CASE WHEN ") + kExists +
      " THEN m.v ELSE 0 END) AS s, MAX(CASE WHEN m.id = 700 THEN "
      "m.v - m.name ELSE m.v END) AS bad FROM fact AS m GROUP BY m.fk";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {filter,
       "RuntimeError: cannot compare 'n700' with 3 scan=1100 "
       "Project[1](Select[1](Scan[1],Project[701](KeyLookup[701])))"},
      {project,
       "RuntimeError: arithmetic on non-numeric values: 17 vs 'n700' "
       "scan=1100 Project[1](Scan[1],Project[701](KeyLookup[701]))"},
      {aggregate,
       "RuntimeError: arithmetic on non-numeric values: 17 vs 'n700' "
       "scan=1100 "
       "Project[1](GroupBy[1](Scan[1],Project[701](KeyLookup[701])))"},
  };
  for (size_t shards : kShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    MakeFact(&db, 1100);
    auto keyed = db.CreateTable(
        "keyed", Schema({{"id", DataType::kInt64}, {"w", DataType::kInt64}}));
    ASSERT_TRUE(keyed.ok());
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*keyed)->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
    ASSERT_TRUE((*keyed)->DeclareUniqueKey("id").ok());
    exec::WorkerPool pool(2);
    for (bool pooled : {false, true}) {
      if (pooled && shards == 1) continue;
      for (const auto& [sql, want] : cases) {
        std::unique_ptr<net::Connection> conn =
            Connect(&db, pooled ? &pool : nullptr);
        obs::MetricsRegistry reg;
        conn->set_metrics(&reg);
        obs::Profile profile;
        conn->set_profile(&profile);
        net::Outcome out = conn->Perform(net::Request::Query(sql));
        conn->set_profile(nullptr);
        const std::string got =
            (out.ok() ? std::string("ok") : out.status.ToString()) +
            " scan=" +
            std::to_string(reg.Snapshot().counters.at("storage.scan.rows")) +
            " " + RenderExecs(profile.root());
        EXPECT_EQ(got, want) << "shards=" << shards << " pooled=" << pooled
                             << " query: " << sql;
      }
    }
  }
}

/// Runs `SELECT *` over fact on `conn` under a fresh registry. Returns
/// the rows and sets *scan_bytes to the storage.scan.bytes it charged.
std::vector<Row> ScanFact(net::Connection* conn, int64_t* scan_bytes) {
  obs::MetricsRegistry reg;
  conn->set_metrics(&reg);
  net::Outcome out =
      conn->Perform(net::Request::Query("SELECT * FROM fact AS m"));
  conn->set_metrics(nullptr);
  EXPECT_TRUE(out.ok()) << out.status.ToString();
  *scan_bytes = reg.Snapshot().counters.at("storage.scan.bytes");
  return out.rows.rows;
}

int64_t WireSizeOf(const std::vector<Row>& rows) {
  int64_t bytes = 0;
  for (const Row& row : rows) {
    bytes += static_cast<int64_t>(catalog::RowWireSize(row));
  }
  return bytes;
}

// storage.scan.bytes charges the wire size each version stored when it
// was installed. After UPDATEs that widen and narrow a string, a SELECT
// * must charge exactly the wire size of the rows it returns at 1, 2
// and 8 shards, pooled or not, and a transaction reading at an older
// snapshot must be charged for the versions it sees, not for the newer
// ones in the same slots. The shard-invariance grid compares shard
// counts with each other, so it cannot see a size that is wrong the
// same way at every count.
TEST(VectorExecTest, ScanBytesFollowTheVisibleVersion) {
  for (size_t shards : kShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    MakeFact(&db, 1100);
    const storage::Table* fact = *db.GetTable("fact");
    net::Connection writer(&db);
    auto dml = [&writer](const std::string& sql) {
      net::Outcome out = writer.Perform(net::Request::Statement(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    };
    dml("UPDATE fact SET name = 'a name wide enough for the heap' "
        "WHERE fk = 1");
    dml("UPDATE fact SET name = '' WHERE fk = 2");
    exec::WorkerPool pool(2);
    int round = 0;
    for (bool pooled : {false, true}) {
      if (pooled && shards == 1) continue;
      const std::string label = "shards=" + std::to_string(shards) +
                                " pooled=" + std::to_string(pooled);
      std::unique_ptr<net::Connection> reader =
          Connect(&db, pooled ? &pool : nullptr);
      int64_t bytes = 0;
      std::vector<Row> latest = ScanFact(reader.get(), &bytes);
      EXPECT_EQ(bytes, WireSizeOf(latest)) << label;
      EXPECT_EQ(static_cast<int64_t>(fact->byte_count()), bytes) << label;

      // A snapshot taken now, then a commit that narrows the wide
      // names and widens the empty ones (wider each round).
      ASSERT_TRUE(reader->Perform(net::Request::Begin()).ok()) << label;
      ++round;
      const int wide = round % 2 == 0 ? 1 : 2;
      dml("UPDATE fact SET name = '" + std::string(20 + 8 * round, 'w') +
          "' WHERE fk = " + std::to_string(wide));
      dml("UPDATE fact SET name = 'x' WHERE fk = " + std::to_string(3 - wide));
      std::vector<Row> old = ScanFact(reader.get(), &bytes);
      EXPECT_EQ(old, latest) << label;
      EXPECT_EQ(bytes, WireSizeOf(old)) << label;
      EXPECT_NE(WireSizeOf(fact->rows()), bytes) << label;
      ASSERT_TRUE(reader->Perform(net::Request::Rollback()).ok()) << label;

      latest = ScanFact(reader.get(), &bytes);
      EXPECT_EQ(bytes, WireSizeOf(latest)) << label;
      EXPECT_EQ(static_cast<int64_t>(fact->byte_count()), bytes) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzer families: every program family's observable behavior is the
// same at every layout, and the oracle -- the original program,
// interpreted, against the extracted SQL -- passes at each.

/// Interprets the case's function at one layout; the signature covers
/// the return value, the print stream, and the connection's cost
/// counters.
Result<std::string> RunProgram(const fuzz::FuzzCase& c, size_t shards,
                               bool pooled) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  storage::Database db(dbo);
  EQSQL_RETURN_IF_ERROR(fuzz::BuildDatabase(c, &db));
  auto program = frontend::ParseProgram(c.source);
  if (!program.ok()) return program.status();

  exec::WorkerPool pool(2);
  std::unique_ptr<net::Connection> conn =
      Connect(&db, pooled ? &pool : nullptr);
  interp::Interpreter interp(&*program, conn.get());
  auto result = interp.Run(c.function);
  if (!result.ok()) return result.status();

  std::ostringstream out;
  out.precision(17);
  out << "return=" << result->DisplayString() << "\n";
  for (const std::string& line : interp.printed()) out << "print=" << line << "\n";
  const net::ConnectionStats& stats = conn->stats();
  out << "queries=" << stats.queries_executed
      << " rows=" << stats.rows_transferred
      << " bytes=" << stats.bytes_transferred << " ms=" << stats.simulated_ms
      << "\n";
  return out.str();
}

// Each family's programs render identically at every (shards, pooled)
// cell as at 1 shard without a pool; schedule cases compare the txn
// oracle's outcome logs across shard counts.
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
      std::string reference;
      for (size_t shards : kShardCounts) {
        if (c.function == "@txn") {
          // Schedules compare through the txn oracle's outcome log.
          fuzz::OracleOptions opts;
          opts.shard_count = shards;
          fuzz::OracleReport report = fuzz::RunOracle(c, opts);
          ASSERT_EQ(report.verdict, fuzz::Verdict::kPass)
              << label << " shards=" << shards << ": " << report.detail;
          if (reference.empty()) reference = report.rewritten_source;
          EXPECT_EQ(report.rewritten_source, reference)
              << label << " shards=" << shards;
          continue;
        }
        for (bool pooled : {false, true}) {
          if (pooled && shards == 1) continue;
          auto run = RunProgram(c, shards, pooled);
          ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
          if (reference.empty()) reference = *run;
          EXPECT_EQ(*run, reference)
              << label << " shards=" << shards << " pooled=" << pooled;
        }
      }
    }
  }
}

// The rewritten programs (extracted SQL) must agree with the original
// programs, interpreted, at every shard count: a kPass verdict covers
// the extracted GROUP BY/JOIN/APPLY queries.
TEST(VectorExecTest, ExtractedSqlAgreesAcrossModes) {
  int extracted = 0;
  for (uint64_t i = 0; i < 24; ++i) {
    uint64_t seed = SplitMix64(0x5eed + i);
    fuzz::FuzzCase c = fuzz::GenerateCase(seed);
    for (size_t shards : kShardCounts) {
      fuzz::OracleOptions opts;
      opts.shard_count = shards;
      fuzz::OracleReport report = fuzz::RunOracle(c, opts);
      EXPECT_EQ(report.verdict, fuzz::Verdict::kPass)
          << "seed " << seed << " shards=" << shards << ": " << report.detail;
      if (report.extracted && shards == 1) ++extracted;
    }
  }
  // The sweep must actually cover extracted rewrites, or the claim
  // above is vacuous.
  EXPECT_GE(extracted, 8);
}

}  // namespace
}  // namespace eqsql
