// serve_read and serve_rw: the warm request path of `eqsql --run`. Each
// app request is a warm Session::SelectPlan followed by
// Interpreter::Run of the chosen program, with the Session (through a
// ForwardingClient) as the interpreter's client, so every statement goes
// through the scheduler.
//
// serve_read runs one session over all five apps, batchfold included.
// serve_rw runs four sessions over the four paper apps, and a seeded 1
// in 4 of its requests are write transactions. It leaves batching out
// because two server bugs make concurrent batching unsafe:
// net::GatherTableStats dereferences a raw Table* that another
// session's DropTempTable can free, and every Interpreter names its
// parameter table __batch_p1, so concurrent batching sessions read each
// other's parameters.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "interp/interpreter.h"
#include "net/connection.h"
#include "wallbench/forwarding_client.h"
#include "wallbench/serve_apps.h"
#include "wallbench/workloads.h"

namespace wallbench {

namespace {

using eqsql::core::AlternativeKind;
using eqsql::core::ExtractionPlan;
using eqsql::catalog::Value;

/// Attempts per write transaction before it counts as failed, and the
/// cap of the randomized exponential backoff between attempts. Commit
/// validation is table-granular, so without backoff a transaction that
/// updates three tables can lose to its peers attempt after attempt.
constexpr int kTxnAttempts = 256;
constexpr int64_t kMaxBackoffUs = 8000;

/// Timed runs per feasible alternative in the regret probe (after one
/// warm-up run).
constexpr int kRegretReps = 5;

/// The request mix. Each block of requests holds every app `app_reps`
/// times plus `writes` write transactions, in a seeded order, so the mix
/// is exact over whole blocks and the measured phase ends on a block
/// boundary.
struct Shape {
  int sessions = 1;
  int app_reps = 1;
  int writes = 0;
  bool batchfold = true;
};

Shape ShapeOf(const std::string& workload) {
  if (workload == "serve_rw") return {4, 3, 4, false};
  return {1, 1, 0, true};
}

/// Runs `program` through `client`, in batching mode on request.
eqsql::Result<Answer> RunProgram(const eqsql::frontend::Program& program,
                                 const std::string& function, bool batching,
                                 eqsql::net::Client* client, SpanLog* spans) {
  eqsql::interp::Interpreter interp(&program, client);
  interp.set_batching(batching);
  EQSQL_ASSIGN_OR_RETURN(
      eqsql::interp::RtValue value,
      InSpan(spans, "interp.Run", [&] { return interp.Run(function); }));
  return Answer{value.DisplayString(), interp.printed()};
}

const eqsql::frontend::Program& ProgramFor(const ExtractionPlan& plan,
                                           AlternativeKind kind,
                                           const ServeApp& app) {
  return kind == AlternativeKind::kExtractedSql ? plan.optimized->program
                                                : app.original;
}

/// `answer` against `app`'s reference, abbreviated for the report.
eqsql::Status CheckAnswer(const ServeApp& app, const Answer& answer) {
  if (answer == app.reference) return eqsql::Status::OK();
  return eqsql::Status::Internal(
      "wrong answer: " + answer.result.substr(0, 60) + " (" +
      std::to_string(answer.printed.size()) + " lines), expected " +
      app.reference.result.substr(0, 60) + " (" +
      std::to_string(app.reference.printed.size()) + " lines)");
}

/// One app request: an error, a wrong answer, or OK. A batching pick
/// fails without running when `allow_batching` is off.
eqsql::Status ServeRequest(net::Session* session, ForwardingClient* client,
                  const ServeApp& app, bool allow_batching, SpanLog* spans,
                  Observed* tally, AlternativeKind* chosen) {
  ++tally->app_requests;
  auto plan = InSpan(spans, "core.SelectPlan", [&] {
    return session->SelectPlan(app.source, app.function);
  });
  if (!plan.ok()) return plan.status();
  const ExtractionPlan& selected = **plan;
  ++tally->selections;
  ++tally->chosen[selected.chosen];
  *chosen = selected.chosen;
  for (const eqsql::core::VarOutcome& o : selected.optimized->outcomes) {
    ++tally->vars;
    if (o.extracted) ++tally->vars_extracted;
  }
  const bool batching = selected.chosen == AlternativeKind::kBatching;
  if (batching && !allow_batching) {
    return eqsql::Status::Unsupported("batching picked with several sessions");
  }
  const int64_t uploads = client->temp_tables();
  eqsql::Result<Answer> answer =
      RunProgram(ProgramFor(selected, selected.chosen, app), app.function,
                 batching, client, spans);
  if (batching) {
    ++tally->batching_runs;
    if (client->temp_tables() == uploads) ++tally->batching_fallbacks;
  }
  return answer.ok() ? CheckAnswer(app, *answer) : answer.status();
}

/// Ids of the board rows outside matoso's `rnd_id = 1` predicate.
std::vector<int64_t> BoardIdsOutsideRoundOne(eqsql::storage::Database* db) {
  net::Connection conn(db);
  net::Outcome out = conn.Perform(net::Request::Query(
      "SELECT b.id AS id FROM board AS b WHERE b.rnd_id <> 1"));
  if (!out.ok()) Fatal("board ids", out.status);
  std::vector<int64_t> ids;
  for (const eqsql::catalog::Row& row : out.rows.rows) {
    ids.push_back(row[0].AsInt());
  }
  if (ids.empty()) Fatal("board ids", eqsql::Status::Internal("none"));
  return ids;
}

struct WriteStmt {
  std::string sql;
  std::vector<Value> params;
};

/// 2-3 UPDATEs that change no app's answer: board scores outside round
/// 1, project descriptions and applicant names, none of which any app
/// reads. New strings keep the old width and updates keep row counts,
/// so the table statistics the selector prices with stay the same.
std::vector<WriteStmt> WriteStatements(uint64_t seed, uint64_t stream,
                                       uint64_t n,
                                       const std::vector<int64_t>& board_ids) {
  std::vector<WriteStmt> stmts;
  const int count = 2 + static_cast<int>(Draw(seed, stream, n * 8) % 2);
  for (int k = 1; k <= count; ++k) {
    const uint64_t r = Draw(seed, stream, n * 8 + k);
    const bool alt = (r >> 8) % 2 == 1;
    switch (r % 3) {
      case 0: {
        const int64_t id =
            board_ids[static_cast<size_t>((r >> 16) % board_ids.size())];
        stmts.push_back(
            {"UPDATE board SET p1 = ? WHERE id = ? AND rnd_id <> 1",
             {Value::Int(static_cast<int64_t>((r >> 32) % 1000)),
              Value::Int(id)}});
        break;
      }
      case 1: {
        const int64_t id = static_cast<int64_t>((r >> 16) % kProjectRows);
        const std::string descr = std::string("long project description ") +
                                  (alt ? "edit #" : "text #") +
                                  std::to_string(id);
        stmts.push_back({"UPDATE project SET descr = ? WHERE id = ?",
                         {Value::String(descr), Value::Int(id)}});
        break;
      }
      default: {
        const int64_t id = static_cast<int64_t>((r >> 16) % kApplicants);
        stmts.push_back({"UPDATE applicants SET name = ? WHERE id = ?",
                         {Value::String((alt ? "Applicant" : "applicant") +
                                        std::to_string(id)),
                          Value::Int(id)}});
        break;
      }
    }
  }
  return stmts;
}

/// BEGIN, the statements, COMMIT; restarted from BEGIN on kTxnConflict
/// after a seeded random backoff, up to kTxnAttempts times. Fails on any
/// other error, an UPDATE that did not hit exactly one row, or running
/// out of attempts.
eqsql::Status WriteTxn(net::Session* session,
                       const std::vector<WriteStmt>& stmts,
                       uint64_t backoff_seed, SpanLog* spans,
                       Observed* tally) {
  const auto conflict = [](const net::Outcome& out) {
    return out.status.code() == eqsql::StatusCode::kTxnConflict;
  };
  for (int attempt = 0; attempt < kTxnAttempts; ++attempt) {
    ++tally->txn_attempts;
    net::Outcome begin = InSpan(spans, "storage.Begin", [&] {
      return session->Execute(net::Request::Begin());
    });
    if (!begin.ok()) return begin.status;
    bool conflicted = false;
    for (const WriteStmt& stmt : stmts) {
      net::Outcome out = InSpan(spans, "storage.Dml", [&] {
        return session->Execute(net::Request::Dml(stmt.sql, stmt.params));
      });
      if (conflict(out)) {  // the server already rolled back
        conflicted = true;
        break;
      }
      if (!out.ok() || out.row_count != 1) {
        session->Execute(net::Request::Rollback());
        return out.ok() ? eqsql::Status::Internal(
                              stmt.sql + " hit " +
                              std::to_string(out.row_count) + " rows")
                        : out.status;
      }
    }
    if (!conflicted) {
      net::Outcome commit = InSpan(spans, "storage.Commit", [&] {
        return session->Execute(net::Request::Commit());
      });
      if (commit.ok()) return eqsql::Status::OK();
      if (!conflict(commit)) return commit.status;
    }
    ++tally->txn_conflicts;
    const int64_t ceiling_us =
        std::min<int64_t>(kMaxBackoffUs, int64_t{250} << std::min(attempt, 5));
    const uint64_t r = Draw(backoff_seed, 0, static_cast<uint64_t>(attempt));
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(r % static_cast<uint64_t>(ceiling_us))));
  }
  return eqsql::Status::Internal("write transaction conflicted " +
                                 std::to_string(kTxnAttempts) + " times");
}

/// A served database with reference answers and a warm plan cache.
struct Rig {
  std::unique_ptr<net::Server> server;
  /// Set-up session; the regret probe reuses it on the same thread.
  std::unique_ptr<net::Session> session;
  std::vector<ServeApp> apps;
  std::vector<int64_t> board_ids;
};

Rig SetUp(const Shape& shape, Observed* observed) {
  Rig rig;
  rig.server = std::make_unique<net::Server>(ServeServerOptions());
  eqsql::storage::Database* db = rig.server->db();
  eqsql::Status status = SetupServeDatabase(db, shape.batchfold);
  if (!status.ok()) Fatal("table set-up", status);
  auto apps = MakeServeApps(shape.batchfold);
  if (!apps.ok()) Fatal("app parse", apps.status());
  rig.apps = std::move(*apps);
  for (ServeApp& app : rig.apps) {
    auto reference = ReferenceAnswer(db, app);
    if (!reference.ok()) Fatal("reference " + app.name, reference.status());
    app.reference = std::move(*reference);
  }
  rig.board_ids = BoardIdsOutsideRoundOne(db);
  // Warm-up: every app twice down the served path, checked like a
  // measured request. It fills the plan cache and the selector's stats.
  rig.session = rig.server->Connect();
  SpanLog off;
  ForwardingClient client(rig.session.get(), &off);
  Observed warmup;
  AlternativeKind chosen;
  for (int round = 0; round < 2; ++round) {
    for (const ServeApp& app : rig.apps) {
      ++observed->attempted;
      eqsql::Status status =
          ServeRequest(rig.session.get(), &client, app, shape.sessions == 1,
                       &off, &warmup, &chosen);
      if (!status.ok()) observed->Fail("warm-up " + app.name + ": " +
                                       status.ToString());
    }
  }
  return rig;
}

/// Runs every feasible alternative of each app (one warm-up, then
/// kRegretReps timed runs), checks each answer, and records the chosen
/// alternative's median wall time over the fastest one's.
void RegretProbe(Rig* rig, Observed* observed) {
  SpanLog off;
  ForwardingClient client(rig->session.get(), &off);
  for (const ServeApp& app : rig->apps) {
    ++observed->attempted;
    auto plan = rig->session->SelectPlan(app.source, app.function);
    if (!plan.ok()) {
      observed->Fail("regret " + app.name + ": " + plan.status().ToString());
      continue;
    }
    double chosen_ms = 0;
    double best_ms = std::numeric_limits<double>::infinity();
    std::string row = "regret app=" + app.name;
    for (const eqsql::core::PlanAlternative& alt : (*plan)->alternatives) {
      if (!alt.feasible) continue;
      std::vector<double> ms;
      for (int rep = 0; rep <= kRegretReps; ++rep) {
        const int64_t t0 = NowNs();
        eqsql::Result<Answer> answer =
            RunProgram(ProgramFor(**plan, alt.kind, app), app.function,
                       alt.kind == AlternativeKind::kBatching, &client, &off);
        if (rep > 0) ms.push_back((NowNs() - t0) / 1e6);
        ++observed->attempted;
        eqsql::Status status =
            answer.ok() ? CheckAnswer(app, *answer) : answer.status();
        if (!status.ok()) {
          observed->Fail("regret " + app.name + " " +
                         eqsql::core::AlternativeKindName(alt.kind) + ": " +
                         status.ToString());
        }
      }
      const double median = Median(ms);
      if (alt.kind == (*plan)->chosen) chosen_ms = median;
      best_ms = std::min(best_ms, median);
      row += std::string(" ") + eqsql::core::AlternativeKindName(alt.kind) +
             "_ms=" + std::to_string(median);
    }
    const double regret = Ratio(chosen_ms, best_ms);
    observed->regrets.push_back(regret);
    observed->report.push_back(
        row + " chosen=" + eqsql::core::AlternativeKindName((*plan)->chosen) +
        " regret=" + std::to_string(regret));
  }
}

/// The shared, read-only inputs of the session threads.
struct Env {
  net::Server* server = nullptr;
  const std::vector<ServeApp>* apps = nullptr;
  const std::vector<int64_t>* board_ids = nullptr;
  Shape shape;
  uint64_t seed = 0;
  bool trace = false;
  int64_t deadline = 0;
};

/// One session thread's state, merged into the run's Observed after the
/// thread joins.
struct SessionState {
  std::unique_ptr<net::Session> session;
  SpanLog spans;
  eqsql::core::PlanCache sql_cache;  // the stage probe's SQL resolver
  Observed tally;
  std::vector<std::vector<double>> app_ms;  // untraced, per app
  std::vector<AlternativeKind> last_choice;  // per app
};

void RunSession(const Env& env, int index, SessionState* st) {
  const std::vector<ServeApp>& apps = *env.apps;
  ForwardingClient client(st->session.get(), &st->spans);
  st->app_ms.assign(apps.size(), {});
  st->last_choice.assign(apps.size(), AlternativeKind::kInterpreted);
  std::vector<int> slots;  // app index, or -1 for a write transaction
  for (int r = 0; r < env.shape.app_reps; ++r) {
    for (size_t a = 0; a < apps.size(); ++a) {
      slots.push_back(static_cast<int>(a));
    }
  }
  slots.insert(slots.end(), env.shape.writes, -1);
  const uint64_t stream = 1 + static_cast<uint64_t>(index);
  const bool allow_batching = env.shape.sessions == 1;

  for (int64_t block = 0; NowNs() < env.deadline; ++block) {
    for (size_t i = slots.size() - 1; i > 0; --i) {  // seeded shuffle
      const uint64_t r = Draw(env.seed, stream, block * 64 + i);
      std::swap(slots[i], slots[static_cast<size_t>(r % (i + 1))]);
    }
    // The traced run records every other block; the rest gives the
    // tracing overhead.
    const bool traced = env.trace && block % 2 == 0;
    st->spans.set_enabled(traced);
    for (size_t pos = 0; pos < slots.size(); ++pos) {
      const int slot = slots[pos];
      const int64_t request = block * 64 + static_cast<int64_t>(pos);
      st->spans.set_request(request, slot);
      const std::vector<WriteStmt> stmts =
          slot < 0 ? WriteStatements(env.seed, stream,
                                     static_cast<uint64_t>(request),
                                     *env.board_ids)
                   : std::vector<WriteStmt>();
      eqsql::Status status;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(&st->spans, "request");
        status = slot >= 0
                     ? ServeRequest(st->session.get(), &client, apps[slot],
                                    allow_batching, &st->spans, &st->tally,
                                    &st->last_choice[slot])
                     : WriteTxn(st->session.get(), stmts,
                                Draw(env.seed, stream,
                                     static_cast<uint64_t>(request)),
                                &st->spans, &st->tally);
      }
      const int64_t t1 = NowNs();
      const double ms = (t1 - t0) / 1e6;
      if (traced) {
        st->tally.traced_req_ms.push_back(ms);
      } else {
        st->tally.req.push_back({t1, ms});
      }
      if (slot < 0) st->tally.txn_ms.push_back(ms);
      if (slot >= 0 && !traced) st->app_ms[slot].push_back(ms);
      ++st->tally.attempted;
      const std::string what = slot >= 0 ? apps[slot].name : "write";
      if (!status.ok()) st->tally.Fail(what + ": " + status.ToString());
      if (traced && slot >= 0 &&
          !RunStageProbe(env.server, &st->sql_cache, apps[slot].source,
                         apps[slot].function, &st->spans, &st->tally.stages)) {
        st->tally.Fail("stage probe " + what);
      }
    }
  }
  st->tally.performs = client.performs();
}

void Merge(const Observed& from, Observed* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& f : from.failures) {
    if (into->failures.size() < Observed::kKeptFailures) {
      into->failures.push_back(f);
    }
  }
  into->req.insert(into->req.end(), from.req.begin(), from.req.end());
  into->traced_req_ms.insert(into->traced_req_ms.end(),
                             from.traced_req_ms.begin(),
                             from.traced_req_ms.end());
  into->txn_ms.insert(into->txn_ms.end(), from.txn_ms.begin(),
                      from.txn_ms.end());
  into->app_requests += from.app_requests;
  into->selections += from.selections;
  into->vars += from.vars;
  into->vars_extracted += from.vars_extracted;
  for (const auto& [kind, n] : from.chosen) into->chosen[kind] += n;
  into->performs += from.performs;
  into->batching_runs += from.batching_runs;
  into->batching_fallbacks += from.batching_fallbacks;
  into->txn_attempts += from.txn_attempts;
  into->txn_conflicts += from.txn_conflicts;
  into->stages.loops += from.stages.loops;
  into->stages.loops_converted += from.stages.loops_converted;
}

}  // namespace

Observed RunServe(const RunConfig& config) {
  Observed observed;
  const Shape shape = ShapeOf(config.workload);
  // Reset, not reassigned: ~Rig closes the session before its server.
  std::optional<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig.emplace(SetUp(shape, &observed));
    observed.setup_s.push_back((NowNs() - t0) / 1e9);
  }
  net::Server* server = rig->server.get();
  if (config.trace) RegretProbe(&*rig, &observed);

  std::vector<std::unique_ptr<SessionState>> states;
  for (int i = 0; i < shape.sessions; ++i) {
    states.push_back(std::make_unique<SessionState>());
    states.back()->session = server->Connect();
  }
  Env env;
  env.server = server;
  env.apps = &rig->apps;
  env.board_ids = &rig->board_ids;
  env.shape = shape;
  env.seed = config.seed;
  env.trace = config.trace;

  observed.delta.Begin(server);
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  observed.phase_start_ns = start;
  env.deadline = start + config.seconds * int64_t{1000000000};
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < shape.sessions; ++i) {
      threads.emplace_back(RunSession, std::cref(env), i, states[i].get());
    }
  }
  observed.phase_cpu_s = ProcessCpuSeconds() - cpu_start;
  observed.delta.End(server);

  std::vector<const SpanLog*> logs;
  for (const auto& st : states) {
    Merge(st->tally, &observed);
    logs.push_back(&st->spans);
  }
  observed.spans = SummarizeSpans(logs);

  // Writes must leave every reference answer intact.
  if (shape.writes > 0) {
    for (const ServeApp& app : rig->apps) {
      ++observed.attempted;
      auto answer = ReferenceAnswer(server->db(), app);
      eqsql::Status status =
          answer.ok() ? CheckAnswer(app, *answer) : answer.status();
      if (!status.ok()) {
        observed.Fail("after writes " + app.name + ": " + status.ToString());
      }
    }
  }

  observed.report.push_back("provenance " + ProvenanceJson(server));
  observed.report.push_back(
      "sessions=" + std::to_string(shape.sessions) + " blocks of " +
      std::to_string(shape.app_reps) + "x" + std::to_string(rig->apps.size()) +
      " apps + " + std::to_string(shape.writes) + " writes");
  for (size_t a = 0; a < rig->apps.size(); ++a) {
    std::vector<double> ms;
    for (const auto& st : states) {
      ms.insert(ms.end(), st->app_ms[a].begin(), st->app_ms[a].end());
    }
    std::string row = "app " + rig->apps[a].name + " chosen=" +
                      eqsql::core::AlternativeKindName(
                          states[0]->last_choice[a]) +
                      " requests=" + std::to_string(ms.size()) +
                      " p50_ms=" + std::to_string(Quantile(ms, 0.5));
    if (config.trace) {
      const auto by_app = SummarizeSpans(logs, static_cast<int32_t>(a));
      row += " request_us=" + std::to_string(MeanUs(by_app, "request")) +
             " interp_self_us=" + std::to_string(SelfUs(by_app, "interp.Run")) +
             " perform_us=" + std::to_string(MeanUs(by_app, "net.Perform"));
    }
    observed.report.push_back(row);
  }
  if (!config.spans_path.empty() && !WriteSpans(config.spans_path, logs)) {
    std::fprintf(stderr, "wallbench: cannot write %s\n",
                 config.spans_path.c_str());
  }
  return observed;
}

}  // namespace wallbench
