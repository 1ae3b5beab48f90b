#include "fuzz/oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/hash.h"
#include "core/optimizer.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/explain.h"
#include "obs/trace.h"

namespace eqsql::fuzz {

using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kReturnMismatch: return "return-mismatch";
    case Verdict::kPrintMismatch: return "print-mismatch";
    case Verdict::kRowRegression: return "row-regression";
    case Verdict::kInfraError: return "infra-error";
  }
  return "?";
}

namespace {

/// Corrupts a SQL string the way a subtly unsound rule would: widen a
/// strict comparison, bump a constant, flip an aggregate or sort
/// direction. Returns the original string when nothing matched.
std::string CorruptSql(const std::string& sql) {
  size_t pos;
  if ((pos = sql.find(" > ")) != std::string::npos) {
    return sql.substr(0, pos) + " >= " + sql.substr(pos + 3);
  }
  if ((pos = sql.find(" < ")) != std::string::npos) {
    return sql.substr(0, pos) + " <= " + sql.substr(pos + 3);
  }
  if ((pos = sql.find(" >= ")) != std::string::npos) {
    return sql.substr(0, pos) + " > " + sql.substr(pos + 4);
  }
  if ((pos = sql.find(" <= ")) != std::string::npos) {
    return sql.substr(0, pos) + " < " + sql.substr(pos + 4);
  }
  if ((pos = sql.find("MAX(")) != std::string::npos) {
    return sql.substr(0, pos) + "MIN(" + sql.substr(pos + 4);
  }
  if ((pos = sql.find("MIN(")) != std::string::npos) {
    return sql.substr(0, pos) + "MAX(" + sql.substr(pos + 4);
  }
  if ((pos = sql.find("COUNT(*)")) != std::string::npos) {
    return sql.substr(0, pos) + "COUNT(*) + 1" + sql.substr(pos + 8);
  }
  if ((pos = sql.find(" DESC")) != std::string::npos) {
    return sql.substr(0, pos) + sql.substr(pos + 5);
  }
  if ((pos = sql.find(" = ")) != std::string::npos) {
    return sql.substr(0, pos) + " <> " + sql.substr(pos + 3);
  }
  // Last resort: increment the first free-standing digit run (e.g. a
  // LIMIT or literal) — digits inside identifiers like "t0" stay put,
  // since renaming a table produces a parse error, not a semantic bug.
  for (size_t i = 0; i < sql.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(sql[i]))) {
      if (i > 0) {
        unsigned char prev = static_cast<unsigned char>(sql[i - 1]);
        if (std::isalnum(prev) || prev == '_') continue;
      }
      size_t end = i;
      while (end < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[end]))) {
        ++end;
      }
      int64_t n = std::strtoll(sql.substr(i, end - i).c_str(), nullptr, 10);
      return sql.substr(0, i) + std::to_string(n + 1) + sql.substr(end);
    }
  }
  return sql;
}

ExprPtr InjectIntoExpr(const ExprPtr& e, bool* done);

std::vector<ExprPtr> InjectIntoExprs(const std::vector<ExprPtr>& args,
                                     bool* done) {
  std::vector<ExprPtr> out;
  out.reserve(args.size());
  for (const ExprPtr& a : args) out.push_back(InjectIntoExpr(a, done));
  return out;
}

/// Rebuilds `e` with the first executeQuery("...") string corrupted.
ExprPtr InjectIntoExpr(const ExprPtr& e, bool* done) {
  if (e == nullptr || *done) return e;
  if (e->kind() == ExprKind::kCall && e->name() == "executeQuery" &&
      !e->args().empty() && e->arg(0)->kind() == ExprKind::kStringLit) {
    std::string corrupted = CorruptSql(e->arg(0)->string_value());
    if (corrupted != e->arg(0)->string_value()) {
      *done = true;
      std::vector<ExprPtr> args = e->args();
      args[0] = Expr::StringLit(std::move(corrupted));
      return Expr::Call(e->name(), std::move(args));
    }
  }
  switch (e->kind()) {
    case ExprKind::kUnary:
      return Expr::Unary(e->un_op(), InjectIntoExpr(e->arg(0), done));
    case ExprKind::kBinary:
      return Expr::Binary(e->bin_op(), InjectIntoExpr(e->arg(0), done),
                          InjectIntoExpr(e->arg(1), done));
    case ExprKind::kTernary:
      return Expr::Ternary(InjectIntoExpr(e->arg(0), done),
                           InjectIntoExpr(e->arg(1), done),
                           InjectIntoExpr(e->arg(2), done));
    case ExprKind::kCall:
      return Expr::Call(e->name(), InjectIntoExprs(e->args(), done));
    case ExprKind::kMethodCall:
      return Expr::MethodCall(InjectIntoExpr(e->object(), done), e->name(),
                              InjectIntoExprs(e->args(), done));
    case ExprKind::kFieldAccess:
      return Expr::FieldAccess(InjectIntoExpr(e->object(), done), e->name());
    default:
      return e;
  }
}

std::vector<StmtPtr> InjectIntoBody(const std::vector<StmtPtr>& body,
                                    bool* done) {
  std::vector<StmtPtr> out;
  out.reserve(body.size());
  for (const StmtPtr& s : body) {
    if (*done) {
      out.push_back(s);
      continue;
    }
    switch (s->kind()) {
      case StmtKind::kAssign:
        out.push_back(Stmt::Assign(s->target(),
                                   InjectIntoExpr(s->expr(), done)));
        break;
      case StmtKind::kExprStmt:
        out.push_back(Stmt::ExprStmt(InjectIntoExpr(s->expr(), done)));
        break;
      case StmtKind::kIf:
        out.push_back(Stmt::If(InjectIntoExpr(s->expr(), done),
                               InjectIntoBody(s->body(), done),
                               InjectIntoBody(s->else_body(), done)));
        break;
      case StmtKind::kForEach:
        out.push_back(Stmt::ForEach(s->target(),
                                    InjectIntoExpr(s->expr(), done),
                                    InjectIntoBody(s->body(), done)));
        break;
      case StmtKind::kWhile:
        out.push_back(Stmt::While(InjectIntoExpr(s->expr(), done),
                                  InjectIntoBody(s->body(), done)));
        break;
      case StmtKind::kReturn:
        out.push_back(Stmt::Return(InjectIntoExpr(s->expr(), done)));
        break;
      case StmtKind::kPrint:
        out.push_back(Stmt::Print(InjectIntoExpr(s->expr(), done)));
        break;
      case StmtKind::kBreak:
        out.push_back(s);
        break;
    }
  }
  return out;
}

/// Corrupts the first embedded query of `program`; returns whether a
/// corruption point was found.
bool InjectSqlBug(frontend::Program* program, const std::string& function) {
  bool done = false;
  for (frontend::Function& f : program->functions) {
    if (f.name != function) continue;
    f.body = InjectIntoBody(f.body, &done);
  }
  return done;
}

std::string DescribePrintDiff(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  std::ostringstream out;
  out << "printed " << a.size() << " vs " << b.size() << " lines";
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      out << "; first diff at line " << i << ": '" << a[i] << "' vs '"
          << b[i] << "'";
      break;
    }
  }
  return out.str();
}

/// Compares the two runs and renders the verdict. Expects the
/// transfer counters on `report` to be filled in already.
void JudgeRuns(const interp::RtValue& r1,
               const std::vector<std::string>& printed1,
               const interp::RtValue& r2,
               const std::vector<std::string>& printed2,
               OracleReport* report) {
  if (r1.DisplayString() != r2.DisplayString()) {
    report->verdict = Verdict::kReturnMismatch;
    report->detail = "returned '" + r1.DisplayString() + "' vs '" +
                     r2.DisplayString() + "'";
    return;
  }
  if (printed1 != printed2) {
    report->verdict = Verdict::kPrintMismatch;
    report->detail = DescribePrintDiff(printed1, printed2);
    return;
  }
  // The optimization invariant: never ship more rows than the original,
  // modulo the one-row floor of each scalar-aggregate query.
  int64_t allowed =
      std::max(report->original_rows, report->rewritten_queries);
  if (report->rewritten_rows > allowed) {
    report->verdict = Verdict::kRowRegression;
    std::ostringstream out;
    out << "rewrite shipped " << report->rewritten_rows << " rows vs "
        << report->original_rows << " original ("
        << report->rewritten_queries << " queries)";
    report->detail = out.str();
    return;
  }
  report->verdict = Verdict::kPass;
}

/// Judges the batching arm: the ORIGINAL program re-run under the
/// batching executor must agree with the plain original run on both the
/// return value and printed output. Together with JudgeRuns above this
/// makes every program case a three-way differential —
/// interpreter vs extracted SQL vs batching rewrite — since agreement
/// is transitive. Leaves the verdict untouched on agreement (the caller
/// only invokes this after the two-way comparison passed).
void JudgeBatchingRun(const interp::RtValue& r1,
                      const std::vector<std::string>& printed1,
                      const interp::RtValue& r3,
                      const std::vector<std::string>& printed3,
                      OracleReport* report) {
  if (r1.DisplayString() != r3.DisplayString()) {
    report->verdict = Verdict::kReturnMismatch;
    report->detail = "batching arm: returned '" + r3.DisplayString() +
                     "' vs original '" + r1.DisplayString() + "'";
    return;
  }
  if (printed1 != printed3) {
    report->verdict = Verdict::kPrintMismatch;
    report->detail = "batching arm: " + DescribePrintDiff(printed1, printed3);
  }
}

// --- txn-family oracle ---------------------------------------------------
//
// A "@txn" case carries no ImpLang program: its source is a
// multi-session schedule (`<session> <SQL>` per line). The oracle
// executes it interleaved — every session holds its own transaction
// context against one shared database, so transactions overlap, writers
// park pending versions, and conflicts fire — then replays just the
// committed statements single-threaded, in commit order, on a fresh
// database. Snapshot-isolation serializability is exactly the claim
// that the two agree: per-statement row counts (including SELECT
// cardinalities — commit validation promises a committed transaction's
// reads match its commit point) and final table contents as multisets
// (replay assigns different insertion sequences, so order is not
// comparable, but the bag of rows is).

/// One schedule line.
struct TxnStep {
  int session = 0;
  std::string sql;
};

Result<std::vector<TxnStep>> ParseTxnSchedule(const std::string& src) {
  std::vector<TxnStep> steps;
  std::istringstream in(src);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0) {
      return Status::ParseError("bad schedule line: " + line);
    }
    TxnStep step;
    step.session = std::atoi(line.substr(0, sp).c_str());
    step.sql = line.substr(sp + 1);
    if (step.session < 0 || step.session > 15 || step.sql.empty()) {
      return Status::ParseError("bad schedule line: " + line);
    }
    steps.push_back(std::move(step));
  }
  if (steps.empty()) return Status::ParseError("empty txn schedule");
  return steps;
}

/// What one executed statement observably did.
struct StepRecord {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  int64_t rows = 0;  // affected rows (DML) or result cardinality (SELECT)
};

StepRecord ExecuteStep(net::Client* client, const std::string& sql) {
  net::Outcome out = client->Perform(net::Request::Statement(sql));
  StepRecord r;
  r.ok = out.ok();
  if (!r.ok) {
    r.code = out.status.code();
  } else if (out.kind == net::Outcome::Kind::kRowCount) {
    r.rows = out.row_count;
  } else if (out.kind == net::Outcome::Kind::kResultSet) {
    r.rows = static_cast<int64_t>(out.rows.rows.size());
  }
  return r;
}

/// A committed unit: the statements of one committed transaction (or a
/// single autocommitted statement), each with its live-run row count.
using TxnUnit = std::vector<std::pair<std::string, int64_t>>;

/// Runs the schedule interleaved across `clients` (one per session),
/// appending each transaction's statements to `units` at the moment it
/// commits — sequential stepping makes the order successful commits
/// appear in the schedule THE commit order. Tracks each session's
/// open/closed state from observed outcomes, not from the schedule: a
/// kTxnConflict mid-transaction aborts the whole transaction, dropping
/// its buffered statements.
std::vector<StepRecord> RunTxnSchedule(
    const std::vector<TxnStep>& steps,
    const std::vector<net::Client*>& clients, std::vector<TxnUnit>* units) {
  std::vector<StepRecord> records;
  records.reserve(steps.size());
  std::vector<TxnUnit> buffer(clients.size());
  std::vector<bool> open(clients.size(), false);
  for (const TxnStep& step : steps) {
    const size_t s = static_cast<size_t>(step.session);
    const net::Request::Kind kind = net::ClassifyStatement(
        net::Request::Kind::kStatement, step.sql);
    StepRecord rec = ExecuteStep(clients[s], step.sql);
    records.push_back(rec);
    switch (kind) {
      case net::Request::Kind::kBegin:
        if (rec.ok) {
          open[s] = true;
          buffer[s].clear();
        }
        break;
      case net::Request::Kind::kCommit:
        if (open[s]) {
          if (rec.ok) units->push_back(std::move(buffer[s]));
          buffer[s].clear();  // failed COMMIT already rolled back
          open[s] = false;
        }
        break;
      case net::Request::Kind::kRollback:
        buffer[s].clear();
        open[s] = false;
        break;
      default:  // DML or SELECT
        if (rec.ok) {
          if (open[s]) {
            buffer[s].emplace_back(step.sql, rec.rows);
          } else {
            units->push_back({{step.sql, rec.rows}});  // autocommitted
          }
        } else if (rec.code == StatusCode::kTxnConflict) {
          // First-writer-wins: the conflict aborted the whole
          // transaction and the session fell back to autocommit.
          buffer[s].clear();
          open[s] = false;
        }
        // Any other statement error (duplicate key, eval error outside
        // a txn) had no committed effect; inside a txn it leaves the
        // transaction open with its earlier writes intact.
        break;
    }
  }
  return records;
}

/// Final contents of every case table as table -> sorted bag of
/// row-renderings (insertion order is not comparable across live and
/// replay runs — aborted transactions burn sequence numbers). The walk
/// is also the reference for each table's committed statistics
/// counters: the first table whose row or byte counter differs from it
/// is described in `*drift` (left alone when every table agrees).
std::map<std::string, std::vector<std::string>> TableBags(
    storage::Database* db, const FuzzCase& c, std::string* drift) {
  std::map<std::string, std::vector<std::string>> bags;
  for (const TableSpec& t : c.tables) {
    std::shared_ptr<storage::Table> table = db->SnapshotTable(t.name);
    std::vector<std::string>& bag = bags[t.name];
    if (table == nullptr) continue;
    size_t bytes = 0;
    for (const catalog::Row& row : table->rows()) {
      bytes += catalog::RowWireSize(row);
      std::string key;
      for (const catalog::Value& v : row) {
        key += v.ToString();
        key.push_back('|');
      }
      bag.push_back(std::move(key));
    }
    std::sort(bag.begin(), bag.end());
    if (drift->empty() &&
        (table->row_count() != bag.size() || table->byte_count() != bytes)) {
      *drift = "committed statistics of " + t.name + " drifted: counters " +
               std::to_string(table->row_count()) + " row(s) / " +
               std::to_string(table->byte_count()) + " byte(s) vs walk " +
               std::to_string(bag.size()) + " / " + std::to_string(bytes);
    }
  }
  return bags;
}

/// Renders the live run as text: deterministic for a fixed case, so
/// the shard-invariance suite can compare it byte for byte across
/// layouts, and failures print a readable timeline.
std::string RenderTxnLog(const std::vector<TxnStep>& steps,
                         const std::vector<StepRecord>& records) {
  std::ostringstream out;
  for (size_t i = 0; i < steps.size(); ++i) {
    out << "S" << steps[i].session << " " << steps[i].sql << " -> ";
    if (records[i].ok) {
      out << "ok rows=" << records[i].rows;
    } else {
      out << "error code=" << static_cast<int>(records[i].code);
    }
    out << "\n";
  }
  return out.str();
}

OracleReport RunTxnOracle(const FuzzCase& c, const OracleOptions& opts) {
  OracleReport report;
  auto steps = ParseTxnSchedule(c.source);
  if (!steps.ok()) {
    report.detail = "schedule: " + steps.status().ToString();
    return report;
  }
  int sessions = 0;
  for (const TxnStep& s : *steps) sessions = std::max(sessions, s.session + 1);

  storage::DatabaseOptions dbo;
  dbo.shard_count = opts.shard_count == 0 ? 1 : opts.shard_count;
  const bool async =
      opts.async_every_n > 0 &&
      SplitMix64(c.seed) % static_cast<uint64_t>(opts.async_every_n) == 0;

  // --- live interleaved run.
  std::vector<StepRecord> live;
  std::vector<TxnUnit> units;
  std::map<std::string, std::vector<std::string>> live_bags;
  std::string drift;
  if (async) {
    // Session::Submit -> scheduler worker per statement: the txn
    // context crosses threads between consecutive statements of one
    // transaction, which is the handoff TSan sweeps care about.
    net::ServerOptions so;
    so.database = dbo;
    so.scheduler_workers = 2;
    so.exec_mode = opts.exec_mode;
    so.trace_sample = opts.trace_sample;
    net::Server server(so);
    if (Status s = BuildDatabase(c, server.db()); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    std::vector<std::unique_ptr<net::Session>> owned;
    std::vector<net::Client*> clients;
    for (int i = 0; i < sessions; ++i) {
      owned.push_back(server.Connect());
      clients.push_back(owned.back().get());
    }
    live = RunTxnSchedule(*steps, clients, &units);
    // GC must not change observable contents (an implicit oracle check).
    server.db()->Vacuum();
    live_bags = TableBags(server.db(), c, &drift);
  } else {
    storage::Database db(dbo);
    if (Status s = BuildDatabase(c, &db); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    std::vector<std::unique_ptr<net::Connection>> owned;
    std::vector<net::Client*> clients;
    for (int i = 0; i < sessions; ++i) {
      owned.push_back(std::make_unique<net::Connection>(&db));
      owned.back()->set_exec_mode(opts.exec_mode);
      clients.push_back(owned.back().get());
    }
    live = RunTxnSchedule(*steps, clients, &units);
    db.Vacuum();
    live_bags = TableBags(&db, c, &drift);
  }
  report.rewritten_source = RenderTxnLog(*steps, live);
  report.original_queries = static_cast<int64_t>(steps->size());
  for (const StepRecord& r : live) report.original_rows += r.rows;

  // --- single-threaded commit-order replay on a fresh database.
  storage::Database replay_db(dbo);
  if (Status s = BuildDatabase(c, &replay_db); !s.ok()) {
    report.detail = "replay database setup: " + s.ToString();
    return report;
  }
  // The replay connection deliberately keeps its default row engine:
  // when the live run executed on the vector engine, live-vs-replay
  // agreement doubles as a row-vs-vector differential over the
  // schedule's SELECT cardinalities and final table contents.
  net::Connection replay_conn(&replay_db);
  for (size_t u = 0; u < units.size(); ++u) {
    for (const auto& [sql, live_rows] : units[u]) {
      ++report.rewritten_queries;
      StepRecord rec = ExecuteStep(&replay_conn, sql);
      report.rewritten_rows += rec.rows;
      if (!rec.ok) {
        report.verdict = Verdict::kReturnMismatch;
        report.detail = "commit-order replay failed on committed statement '" +
                        sql + "' (unit " + std::to_string(u) +
                        "): " + std::to_string(static_cast<int>(rec.code));
        return report;
      }
      if (rec.rows != live_rows) {
        report.verdict = Verdict::kReturnMismatch;
        report.detail = "row count diverged on '" + sql + "' (unit " +
                        std::to_string(u) + "): live " +
                        std::to_string(live_rows) + " vs replay " +
                        std::to_string(rec.rows);
        return report;
      }
    }
  }
  std::map<std::string, std::vector<std::string>> replay_bags =
      TableBags(&replay_db, c, &drift);
  for (const TableSpec& t : c.tables) {
    if (live_bags[t.name] != replay_bags[t.name]) {
      report.verdict = Verdict::kReturnMismatch;
      report.detail = "final contents of " + t.name + " diverged: live " +
                      std::to_string(live_bags[t.name].size()) +
                      " row(s) vs replay " +
                      std::to_string(replay_bags[t.name].size());
      return report;
    }
  }
  if (!drift.empty()) {
    report.verdict = Verdict::kReturnMismatch;
    report.detail = drift;
    return report;
  }
  report.verdict = Verdict::kPass;
  report.detail = std::to_string(units.size()) + " committed unit(s)";
  return report;
}

// --- index-family oracle -------------------------------------------------
//
// An "@index" case is a txn-style schedule interleaving CREATE INDEX
// with DML, transactions, and selective SELECTs. The oracle runs it
// twice: the indexed arm executes the CREATE INDEX statements (so
// index builds race live writers, DML maintains live indexes, and
// later SELECTs take the secondary-index scan / index-nested-loop
// paths) under the requested shard layout and engine; the plain arm
// suppresses the creates — synthesizing the `ok rows=0` record an
// executed CREATE INDEX reports — on a single-shard, row-engine
// database. Indexes are pure access-path state, so the two runs must
// agree byte for byte on the statement log and on final contents;
// one comparison is simultaneously an indexed-vs-unindexed, a
// layout, and a row-vs-vector differential.

std::vector<StepRecord> RunIndexSchedule(
    const std::vector<TxnStep>& steps,
    const std::vector<net::Client*>& clients, bool execute_creates,
    bool corrupt_after_create, bool* injected) {
  std::vector<StepRecord> records;
  records.reserve(steps.size());
  bool any_index = false;
  for (const TxnStep& step : steps) {
    const net::Request::Kind kind =
        net::ClassifyStatement(net::Request::Kind::kStatement, step.sql);
    if (kind == net::Request::Kind::kCreateIndex) {
      // CREATE INDEX is the one statement that intentionally differs
      // between the arms (only the indexed arm executes it), so its
      // own outcome is excluded from the comparison: both arms record
      // a synthesized success. A create that fails when executed (say
      // a shrinker-dropped table) then simply leaves the indexed arm
      // index-free rather than manufacturing a spurious divergence.
      if (execute_creates) {
        StepRecord real =
            ExecuteStep(clients[static_cast<size_t>(step.session)], step.sql);
        if (real.ok) any_index = true;
      }
      StepRecord rec;
      rec.ok = true;
      rec.rows = 0;
      records.push_back(rec);
      continue;
    }
    std::string sql = step.sql;
    if (corrupt_after_create && any_index && !*injected &&
        kind == net::Request::Kind::kQuery) {
      // Planted bug: silently drop the rows of the first SELECT that
      // could have used an index. Only reachable after a CREATE INDEX
      // executed, so a shrinker that drops the create un-triggers it.
      sql += sql.find(" WHERE ") == std::string::npos ? " WHERE 0 = 1"
                                                      : " AND 0 = 1";
      *injected = true;
    }
    StepRecord rec =
        ExecuteStep(clients[static_cast<size_t>(step.session)], sql);
    records.push_back(rec);
  }
  return records;
}

OracleReport RunIndexOracle(const FuzzCase& c, const OracleOptions& opts) {
  OracleReport report;
  auto steps = ParseTxnSchedule(c.source);
  if (!steps.ok()) {
    report.detail = "schedule: " + steps.status().ToString();
    return report;
  }
  int sessions = 0;
  for (const TxnStep& s : *steps) sessions = std::max(sessions, s.session + 1);

  storage::DatabaseOptions dbo;
  dbo.shard_count = opts.shard_count == 0 ? 1 : opts.shard_count;
  const bool async =
      opts.async_every_n > 0 &&
      SplitMix64(c.seed) % static_cast<uint64_t>(opts.async_every_n) == 0;

  // --- indexed arm, requested layout and engine.
  std::vector<StepRecord> indexed;
  std::map<std::string, std::vector<std::string>> indexed_bags;
  std::string drift;
  bool injected = false;
  if (async) {
    // Statements cross scheduler workers, whose connections carry the
    // server's worker pool — CREATE INDEX builds its shards in
    // parallel there.
    net::ServerOptions so;
    so.database = dbo;
    so.scheduler_workers = 2;
    so.exec_mode = opts.exec_mode;
    so.trace_sample = opts.trace_sample;
    net::Server server(so);
    if (Status s = BuildDatabase(c, server.db()); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    std::vector<std::unique_ptr<net::Session>> owned;
    std::vector<net::Client*> clients;
    for (int i = 0; i < sessions; ++i) {
      owned.push_back(server.Connect());
      clients.push_back(owned.back().get());
    }
    indexed = RunIndexSchedule(*steps, clients, /*execute_creates=*/true,
                               opts.inject_sql_bug, &injected);
    server.db()->Vacuum();  // also prunes dead index entries
    indexed_bags = TableBags(server.db(), c, &drift);
  } else {
    storage::Database db(dbo);
    if (Status s = BuildDatabase(c, &db); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    std::vector<std::unique_ptr<net::Connection>> owned;
    std::vector<net::Client*> clients;
    for (int i = 0; i < sessions; ++i) {
      owned.push_back(std::make_unique<net::Connection>(&db));
      owned.back()->set_exec_mode(opts.exec_mode);
      clients.push_back(owned.back().get());
    }
    indexed = RunIndexSchedule(*steps, clients, /*execute_creates=*/true,
                               opts.inject_sql_bug, &injected);
    db.Vacuum();
    indexed_bags = TableBags(&db, c, &drift);
  }
  report.injected = injected;

  // --- plain arm: creates suppressed, single shard, row engine.
  storage::DatabaseOptions plain_dbo;
  plain_dbo.shard_count = 1;
  storage::Database plain_db(plain_dbo);
  if (Status s = BuildDatabase(c, &plain_db); !s.ok()) {
    report.detail = "plain database setup: " + s.ToString();
    return report;
  }
  std::vector<std::unique_ptr<net::Connection>> plain_owned;
  std::vector<net::Client*> plain_clients;
  for (int i = 0; i < sessions; ++i) {
    plain_owned.push_back(std::make_unique<net::Connection>(&plain_db));
    plain_clients.push_back(plain_owned.back().get());
  }
  bool plain_injected = false;
  std::vector<StepRecord> plain =
      RunIndexSchedule(*steps, plain_clients, /*execute_creates=*/false,
                       /*corrupt_after_create=*/false, &plain_injected);
  plain_db.Vacuum();
  std::map<std::string, std::vector<std::string>> plain_bags =
      TableBags(&plain_db, c, &drift);

  const std::string indexed_log = RenderTxnLog(*steps, indexed);
  const std::string plain_log = RenderTxnLog(*steps, plain);
  report.rewritten_source = indexed_log;
  report.original_queries = static_cast<int64_t>(steps->size());
  report.rewritten_queries = static_cast<int64_t>(steps->size());
  for (const StepRecord& r : plain) report.original_rows += r.rows;
  for (const StepRecord& r : indexed) report.rewritten_rows += r.rows;

  if (indexed_log != plain_log) {
    report.verdict = Verdict::kReturnMismatch;
    for (size_t i = 0; i < steps->size(); ++i) {
      const bool same = indexed[i].ok == plain[i].ok &&
                        indexed[i].code == plain[i].code &&
                        indexed[i].rows == plain[i].rows;
      if (!same) {
        report.detail =
            "indexed and plain runs diverged at step " + std::to_string(i) +
            " ('" + (*steps)[i].sql + "'): indexed " +
            (indexed[i].ok ? "ok rows=" + std::to_string(indexed[i].rows)
                           : "error code=" + std::to_string(
                                 static_cast<int>(indexed[i].code))) +
            " vs plain " +
            (plain[i].ok ? "ok rows=" + std::to_string(plain[i].rows)
                         : "error code=" + std::to_string(
                               static_cast<int>(plain[i].code)));
        break;
      }
    }
    return report;
  }
  for (const TableSpec& t : c.tables) {
    if (indexed_bags[t.name] != plain_bags[t.name]) {
      report.verdict = Verdict::kReturnMismatch;
      report.detail = "final contents of " + t.name + " diverged: indexed " +
                      std::to_string(indexed_bags[t.name].size()) +
                      " row(s) vs plain " +
                      std::to_string(plain_bags[t.name].size());
      return report;
    }
  }
  if (!drift.empty()) {
    report.verdict = Verdict::kReturnMismatch;
    report.detail = drift;
    return report;
  }
  report.verdict = Verdict::kPass;
  report.detail = "indexed and unindexed runs agree";
  return report;
}

/// The differential run proper. RunOracle below wraps it in an
/// optional pipeline trace when diagnostics are requested.
OracleReport RunOracleImpl(const FuzzCase& c, const OracleOptions& opts) {
  if (c.function == "@txn") return RunTxnOracle(c, opts);
  if (c.function == "@index") return RunIndexOracle(c, opts);
  OracleReport report;

  auto program = frontend::ParseProgram(c.source);
  if (!program.ok()) {
    report.detail = "parse: " + program.status().ToString();
    return report;
  }

  core::OptimizeOptions options;
  options.transform.table_keys = TableKeys(c);
  core::EqSqlOptimizer optimizer(options);
  auto optimized = optimizer.Optimize(*program, c.function);
  if (!optimized.ok()) {
    report.detail = "optimize: " + optimized.status().ToString();
    return report;
  }
  report.extracted = optimized->any_extracted();
  if (opts.collect_diagnostics) {
    report.explain_text = obs::RenderExplainText(*optimized, c.function);
  }
  std::set<std::string> rules;
  for (const core::VarOutcome& o : optimized->outcomes) {
    if (!o.extracted) continue;
    rules.insert(o.rules.begin(), o.rules.end());
  }
  report.rules.assign(rules.begin(), rules.end());

  if (opts.inject_sql_bug) {
    report.injected = InjectSqlBug(&optimized->program, c.function);
  }
  report.rewritten_source = optimized->program.ToString();

  // Each interpreter run gets its own freshly built database: programs
  // may execute real DML (INSERT/UPDATE into their tables), so sharing
  // one database would leak the original run's writes into the
  // rewritten run and every mismatch would be a harness artifact, not
  // a rewrite bug.
  storage::DatabaseOptions dbo;
  dbo.shard_count = opts.shard_count == 0 ? 1 : opts.shard_count;

  // Deterministic 1-in-N coin flip on the case seed: scheduler-backed
  // execution for the selected cases, direct connections for the rest.
  const bool async =
      opts.async_every_n > 0 &&
      SplitMix64(c.seed) % static_cast<uint64_t>(opts.async_every_n) == 0;

  if (async) {
    // Every statement of both programs travels Session::Submit ->
    // admission queue -> scheduler worker against the program's own
    // server. Transfer stats land on the worker links, so they are
    // read from the server-wide totals; per-query traces stay empty
    // (the submitting session's connection never executes anything).
    net::ServerOptions so;
    so.database = dbo;
    so.scheduler_workers = 2;
    so.trace_sample = opts.trace_sample;
    if (dbo.shard_count > 1) {
      so.exec_threads = 2;
      so.parallel_threshold = 0;  // force parallel operators on
    }
    // Original on the row engine, rewrite on opts.exec_mode: the
    // comparison below is then a rewrite differential AND an engine
    // differential in one pass.
    net::ServerOptions so1 = so, so2 = so;
    so1.exec_mode = exec::ExecMode::kRow;
    so2.exec_mode = opts.exec_mode;
    net::Server s1(so1), s2(so2);
    if (Status s = BuildDatabase(c, s1.db()); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    if (Status s = BuildDatabase(c, s2.db()); !s.ok()) {
      report.detail = "database setup: " + s.ToString();
      return report;
    }
    std::unique_ptr<net::Session> sess1 = s1.Connect();
    std::unique_ptr<net::Session> sess2 = s2.Connect();
    interp::Interpreter i1(&*program, sess1.get());
    interp::Interpreter i2(&optimized->program, sess2.get());
    auto r1 = i1.Run(c.function);
    if (!r1.ok()) {
      report.detail = "original run (scheduler): " + r1.status().ToString();
      return report;
    }
    auto r2 = i2.Run(c.function);
    if (!r2.ok()) {
      report.detail = "rewritten run (scheduler): " + r2.status().ToString();
      return report;
    }
    report.original_rows = s1.stats().totals.rows_transferred;
    report.rewritten_rows = s2.stats().totals.rows_transferred;
    report.original_queries = s1.stats().totals.queries_executed;
    report.rewritten_queries = s2.stats().totals.queries_executed;
    JudgeRuns(*r1, i1.printed(), *r2, i2.printed(), &report);
    if (report.verdict != Verdict::kPass) return report;
    // --- batching arm, scheduler path: the original program again,
    // batching executor on, against its own fresh server. Temp-table
    // upload happens on the session connection; the batched probes
    // travel Submit -> worker like every other statement.
    net::ServerOptions so3 = so;
    so3.exec_mode = opts.exec_mode;
    net::Server s3(so3);
    if (Status s = BuildDatabase(c, s3.db()); !s.ok()) {
      report.verdict = Verdict::kInfraError;
      report.detail = "batching database setup: " + s.ToString();
      return report;
    }
    std::unique_ptr<net::Session> sess3 = s3.Connect();
    interp::Interpreter i3(&*program, sess3.get());
    i3.set_batching(true);
    auto r3 = i3.Run(c.function);
    if (!r3.ok()) {
      report.verdict = Verdict::kInfraError;
      report.detail = "batching run (scheduler): " + r3.status().ToString();
      return report;
    }
    JudgeBatchingRun(*r1, i1.printed(), *r3, i3.printed(), &report);
    return report;
  }

  storage::Database db1(dbo), db2(dbo);
  if (Status s = BuildDatabase(c, &db1); !s.ok()) {
    report.detail = "database setup: " + s.ToString();
    return report;
  }
  if (Status s = BuildDatabase(c, &db2); !s.ok()) {
    report.detail = "database setup: " + s.ToString();
    return report;
  }

  net::Connection c1(&db1), c2(&db2);
  std::unique_ptr<exec::WorkerPool> pool;
  if (dbo.shard_count > 1) {
    pool = std::make_unique<exec::WorkerPool>(2);
    c1.set_worker_pool(pool.get());
    c1.set_parallel_threshold(0);  // force parallel operators on
    c2.set_worker_pool(pool.get());
    c2.set_parallel_threshold(0);
  }
  // c1 keeps the Connection default (row engine); the rewrite runs on
  // the requested engine so every pass is also a row-vs-vector check.
  c2.set_exec_mode(opts.exec_mode);
  c2.set_trace(true);
  interp::Interpreter i1(&*program, &c1);
  interp::Interpreter i2(&optimized->program, &c2);
  auto r1 = i1.Run(c.function);
  if (!r1.ok()) {
    report.detail = "original run: " + r1.status().ToString();
    return report;
  }
  auto r2 = i2.Run(c.function);
  if (!r2.ok()) {
    report.detail = "rewritten run: " + r2.status().ToString();
    return report;
  }

  report.original_rows = c1.stats().rows_transferred;
  report.rewritten_rows = c2.stats().rows_transferred;
  report.original_queries = c1.stats().queries_executed;
  report.rewritten_queries = c2.stats().queries_executed;
  report.rewritten_trace = c2.trace();
  JudgeRuns(*r1, i1.printed(), *r2, i2.printed(), &report);
  if (report.verdict != Verdict::kPass) return report;

  // --- batching arm: the original program once more with the batching
  // executor enabled, on its own fresh database (the body may run DML).
  // Loops the analysis declines fall back to plain iteration inside the
  // interpreter, so this arm is never skipped — it just degenerates to
  // a second original run for non-batchable programs.
  storage::Database db3(dbo);
  if (Status s = BuildDatabase(c, &db3); !s.ok()) {
    report.verdict = Verdict::kInfraError;
    report.detail = "batching database setup: " + s.ToString();
    return report;
  }
  net::Connection c3(&db3);
  if (dbo.shard_count > 1) {
    c3.set_worker_pool(pool.get());
    c3.set_parallel_threshold(0);
  }
  c3.set_exec_mode(opts.exec_mode);
  interp::Interpreter i3(&*program, &c3);
  i3.set_batching(true);
  auto r3 = i3.Run(c.function);
  if (!r3.ok()) {
    report.verdict = Verdict::kInfraError;
    report.detail = "batching run: " + r3.status().ToString();
    return report;
  }
  JudgeBatchingRun(*r1, i1.printed(), *r3, i3.printed(), &report);
  return report;
}

}  // namespace

OracleReport RunOracle(const FuzzCase& c, const OracleOptions& opts) {
  if (!opts.collect_diagnostics) return RunOracleImpl(c, opts);
  // One trace spans the whole differential run: extraction pipeline
  // spans plus both interpreter executions (per-query execute spans).
  obs::Trace trace;
  OracleReport report;
  {
    obs::ScopedTrace scoped(&trace);
    report = RunOracleImpl(c, opts);
  }
  report.trace_json = trace.ToJson();
  return report;
}

}  // namespace eqsql::fuzz
