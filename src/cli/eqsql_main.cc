// Command-line front door for the extraction pipeline: runs a program
// (a built-in benchmark app or a source file) through the server's
// cached parse -> analyze -> extract pipeline and reports what happened.
//
//   eqsql --app matoso --explain            EXPLAIN EXTRACTION report
//   eqsql --app join --run --metrics        run + registry snapshot
//   eqsql --file prog.imp --function f --explain-json --trace
//
// Flags:
//   --app NAME        built-in workload: matoso|jobportal|selection|join
//   --file PATH       ImpLang source file (default function: first in file)
//   --db NAME         with --file: seed the named workload's tables so a
//                     custom program can query/mutate them (BEGIN/
//                     COMMIT/ROLLBACK and DML run against real data)
//   --function NAME   entry function (defaults per app / first in file)
//   --explain         print the EXPLAIN EXTRACTION text report
//   --explain-json    print the same report as JSON
//   --run             interpret the rewritten program against the
//                     (seeded, for --app) database and print its result;
//                     every statement goes through the server's
//                     scheduler (Session::Submit -> worker execution)
//   --trace           print the pipeline trace as a flame summary
//   --trace-json      print the pipeline trace as JSON
//   --metrics         print the server metrics registry as text
//   --metrics-json    print the server metrics registry as JSON
//   --shards N        storage hash partitions per table
//   --workers N       scheduler worker threads (0 = default)
//   --queue-depth N   scheduler admission-queue capacity
//   --analyze SQL     execute EXPLAIN ANALYZE on the given statement
//                     (against the --app / --db seeded tables) and print
//                     the operator tree, estimated vs actual
//   --trace-sample N  sample every N-th scheduled request into the
//                     server's trace ring (1 = all; 0, the default, = off)
//   --slow-query-ms X requests slower than X ms append a JSON line to
//                     the slow-query log
//   --slow-query-log P  flush the slow-query log to file P on shutdown
//   --dump-profiles   print the sampled-trace ring as JSON on exit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/alternative_selector.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/server.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/benchmark_apps.h"

namespace {

struct CliOptions {
  std::string app;
  std::string file;
  std::string db;
  std::string function;
  bool explain = false;
  bool explain_json = false;
  bool run = false;
  bool trace = false;
  bool trace_json = false;
  bool metrics = false;
  bool metrics_json = false;
  size_t shards = 0;       // 0 = storage default
  size_t workers = 0;      // 0 = scheduler default
  size_t queue_depth = 0;  // 0 = scheduler default
  std::string analyze_sql;     // EXPLAIN ANALYZE target statement
  size_t trace_sample = 0;     // 0 = off
  double slow_query_ms = 0;    // <= 0 = off
  std::string slow_query_log;  // flush path (empty = in-memory only)
  bool dump_profiles = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--app matoso|jobportal|selection|join | --file "
               "PATH) [--function NAME]\n"
               "          [--db matoso|jobportal|selection|join]\n"
               "          [--explain] [--explain-json] [--run] [--trace] "
               "[--trace-json]\n"
               "          [--metrics] [--metrics-json] [--shards N]\n"
               "          [--workers N] [--queue-depth N] [--analyze SQL]\n"
               "          [--trace-sample N] [--slow-query-ms X]\n"
               "          [--slow-query-log PATH] [--dump-profiles]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--app") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->app = v;
    } else if (std::strcmp(arg, "--file") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->file = v;
    } else if (std::strcmp(arg, "--db") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->db = v;
    } else if (std::strcmp(arg, "--function") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->function = v;
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->shards = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->workers = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--queue-depth") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->queue_depth = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--analyze") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->analyze_sql = v;
    } else if (std::strcmp(arg, "--trace-sample") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->trace_sample = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--slow-query-ms") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->slow_query_ms = std::atof(v);
    } else if (std::strcmp(arg, "--slow-query-log") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      out->slow_query_log = v;
    } else if (std::strcmp(arg, "--dump-profiles") == 0) {
      out->dump_profiles = true;
    } else if (std::strcmp(arg, "--explain") == 0) {
      out->explain = true;
    } else if (std::strcmp(arg, "--explain-json") == 0) {
      out->explain_json = true;
    } else if (std::strcmp(arg, "--run") == 0) {
      out->run = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      out->trace = true;
    } else if (std::strcmp(arg, "--trace-json") == 0) {
      out->trace_json = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      out->metrics = true;
    } else if (std::strcmp(arg, "--metrics-json") == 0) {
      out->metrics_json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return false;
    }
  }
  if (out->app.empty() == out->file.empty()) return false;  // exactly one
  if (!out->db.empty() && out->file.empty()) return false;  // --db needs --file
  // Default action: if nothing was requested, explain is the most
  // useful single report.
  if (!out->explain && !out->explain_json && !out->run && !out->trace &&
      !out->trace_json && !out->metrics && !out->metrics_json &&
      out->analyze_sql.empty() && !out->dump_profiles) {
    out->explain = true;
  }
  return true;
}

struct LoadedProgram {
  std::string source;
  std::string function;
};

/// Seeds the named workload's tables into `db` (shared by --app and
/// the file-mode --db flag).
bool SetupWorkloadDatabase(const std::string& name,
                           eqsql::storage::Database* db) {
  namespace wl = eqsql::workloads;
  eqsql::Status setup = eqsql::Status::OK();
  if (name == "matoso") {
    setup = wl::SetupMatosoDatabase(db, 60, 4);
  } else if (name == "jobportal") {
    setup = wl::SetupJobPortalDatabase(db, 40);
  } else if (name == "selection") {
    setup = wl::SetupSelectionDatabase(db, 80, 25);
  } else if (name == "join") {
    setup = wl::SetupJoinDatabase(db, 40);
  } else {
    std::fprintf(stderr, "unknown workload database: %s\n", name.c_str());
    return false;
  }
  if (!setup.ok()) {
    std::fprintf(stderr, "database setup failed: %s\n",
                 setup.ToString().c_str());
    return false;
  }
  return true;
}

bool LoadApp(const std::string& app, eqsql::storage::Database* db,
             LoadedProgram* out) {
  namespace wl = eqsql::workloads;
  if (app == "matoso") {
    out->source = wl::MatosoProgram();
    out->function = "findMaxScore";
  } else if (app == "jobportal") {
    out->source = wl::JobPortalProgram();
    out->function = "jobReport";
  } else if (app == "selection") {
    out->source = wl::SelectionProgram();
    out->function = "unfinished";
  } else if (app == "join") {
    out->source = wl::JoinProgram();
    out->function = "userRoles";
  } else {
    std::fprintf(stderr, "unknown app: %s\n", app.c_str());
    return false;
  }
  if (!SetupWorkloadDatabase(app, db)) return false;
  return true;
}

bool LoadFile(const std::string& path, LoadedProgram* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out->source = buf.str();
  // Default entry point: the first function in the file.
  auto program = eqsql::frontend::ParseProgram(out->source);
  if (!program.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 program.status().ToString().c_str());
    return false;
  }
  if (program->functions.empty()) {
    std::fprintf(stderr, "no functions in %s\n", path.c_str());
    return false;
  }
  out->function = program->functions.front().name;
  return true;
}

eqsql::net::ServerOptions MakeServerOptions(const CliOptions& cli) {
  eqsql::net::ServerOptions options;
  if (cli.shards != 0) options.database.shard_count = cli.shards;
  if (cli.workers != 0) options.scheduler_workers = cli.workers;
  if (cli.queue_depth != 0) {
    options.scheduler_queue_capacity = cli.queue_depth;
  }
  options.trace_sample = cli.trace_sample;
  options.slow_query_ms = cli.slow_query_ms;
  options.slow_query_log_path = cli.slow_query_log;
  // Key columns for every table the built-in apps and the repo's test
  // corpus use; harmless for tables that do not exist.
  options.optimize.transform.table_keys = {
      {"board", "id"},      {"applicants", "id"}, {"details", "id"},
      {"feedback1", "id"},  {"education", "id"},  {"project", "id"},
      {"wilosuser", "id"},  {"role", "id"},       {"wuser", "id"},
  };
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage(argv[0]);

  eqsql::net::Server server(MakeServerOptions(cli));

  LoadedProgram prog;
  if (!cli.app.empty()) {
    if (!LoadApp(cli.app, server.db(), &prog)) return 1;
  } else {
    if (!LoadFile(cli.file, &prog)) return 1;
    if (!cli.db.empty() && !SetupWorkloadDatabase(cli.db, server.db())) {
      return 1;
    }
  }
  if (!cli.function.empty()) prog.function = cli.function;

  std::unique_ptr<eqsql::net::Session> session = server.Connect();

  // The whole pipeline — cached extraction and (optionally) execution —
  // runs under one trace, so --trace covers parse through shard scans.
  eqsql::obs::Trace trace;
  int status = 0;
  {
    eqsql::obs::ScopedTrace scoped(&trace);

    auto optimized = session->OptimizeCached(prog.source, prog.function);
    if (!optimized.ok()) {
      std::fprintf(stderr, "extraction failed: %s\n",
                   optimized.status().ToString().c_str());
      return 1;
    }

    if (cli.explain || cli.explain_json) {
      // Through the scheduler like a served EXPLAIN EXTRACTION request:
      // the payload carries the cost-ranked alternatives (extracted SQL
      // vs batching vs interpreted) priced against live table stats.
      auto explained =
          session->ExplainExtraction(prog.source, prog.function);
      if (!explained.ok()) {
        std::fprintf(stderr, "explain failed: %s\n",
                     explained.status().ToString().c_str());
        return 1;
      }
      if (cli.explain) std::fputs(explained->text.c_str(), stdout);
      if (cli.explain_json) std::printf("%s\n", explained->json.c_str());
    }

    if (!cli.analyze_sql.empty()) {
      // Submitted through the scheduler like any served statement, so
      // the profile covers the same path (and, when sampling is on, the
      // request also lands in the trace ring).
      eqsql::net::Outcome out = session->Execute(
          eqsql::net::Request::ExplainAnalyze("EXPLAIN ANALYZE " +
                                              cli.analyze_sql));
      if (!out.ok()) {
        std::fprintf(stderr, "explain analyze failed: %s\n",
                     out.status.ToString().c_str());
        status = 1;
      } else {
        std::fputs(out.explain.text.c_str(), stdout);
      }
    }

    if (cli.run) {
      // Cost-based strategy pick: run whichever of extracted SQL, the
      // batching rewrite, or the plain interpreted original the
      // selector prices cheapest (the same selection EXPLAIN EXTRACTION
      // reports). Selection failure falls back to the extracted form.
      eqsql::core::AlternativeKind strategy =
          eqsql::core::AlternativeKind::kExtractedSql;
      if (auto plan = session->SelectPlan(prog.source, prog.function);
          plan.ok()) {
        strategy = (*plan)->chosen;
      }
      auto original = eqsql::frontend::ParseProgram(prog.source);
      const eqsql::frontend::Program* to_run = &(*optimized)->program;
      bool batch = false;
      if (original.ok() &&
          strategy == eqsql::core::AlternativeKind::kBatching) {
        to_run = &*original;
        batch = true;
      } else if (original.ok() &&
                 strategy == eqsql::core::AlternativeKind::kInterpreted) {
        to_run = &*original;
      }
      // The Session is the interpreter's net::Client: every statement
      // is submitted to the scheduler and executed on a worker thread,
      // so a CLI run exercises the same path a served request takes.
      eqsql::interp::Interpreter interp(to_run, session.get());
      interp.set_batching(batch);
      auto result = interp.Run(prog.function);
      if (!result.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     result.status().ToString().c_str());
        status = 1;
      } else {
        for (const std::string& line : interp.printed()) {
          std::printf("%s\n", line.c_str());
        }
        std::printf("%s() = %s\n", prog.function.c_str(),
                    result->DisplayString().c_str());
        std::printf("strategy=%s\n",
                    eqsql::core::AlternativeKindName(strategy));
        // Server-wide totals: scheduler-executed work lands on the
        // worker links, not on this session's own connection.
        const eqsql::net::ConnectionStats stats = server.stats().totals;
        std::printf(
            "queries=%lld round_trips=%lld rows=%lld bytes=%lld "
            "simulated_ms=%.3f\n",
            static_cast<long long>(stats.queries_executed),
            static_cast<long long>(stats.round_trips),
            static_cast<long long>(stats.rows_transferred),
            static_cast<long long>(stats.bytes_transferred),
            stats.simulated_ms);
      }
    }
  }

  if (cli.trace) std::fputs(trace.FlameSummary().c_str(), stdout);
  if (cli.trace_json) std::printf("%s\n", trace.ToJson().c_str());
  if (cli.metrics) {
    std::fputs(server.metrics()->Snapshot().ToText().c_str(), stdout);
  }
  if (cli.metrics_json) {
    std::printf("%s\n", server.metrics()->Snapshot().ToJson().c_str());
  }
  if (cli.dump_profiles) {
    std::printf("%s\n", server.trace_ring()->ToJson().c_str());
  }
  return status;
}
