// fuzz_eqsql — standalone differential fuzzing driver.
//
// Generates random ImpLang programs + data, checks the optimizer's
// rewrite for observational equivalence and row-transfer regressions,
// and on failure shrinks to a minimal reproducer and writes it to the
// corpus directory. Fully deterministic: --seed N --iters M always
// replays the same scenarios.
//
// Usage:
//   fuzz_eqsql [--seed N] [--iters M] [--corpus DIR] [--replay FILE]
//              [--case-seed S] [--family NAME] [--inject-bug]
//              [--max-rows K] [--shards P] [--async-every N]
//              [--trace-sample N] [--no-shrink] [--verbose]
//
// --async-every N routes a deterministic 1-in-N of the generated cases
// through a scheduler-backed server (Session::Submit) instead of direct
// connections, differentially testing the async execution path. Default
// 8; 0 keeps every case on the direct path.
//
// --family NAME restricts generation to one program family (as printed
// in the family-mix line), e.g. --family txn sweeps only multi-session
// transaction schedules.
//
// Exit status: 0 when every scenario passes, 1 on any violation or
// infra error, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/shrink.h"

namespace eqsql::fuzz {
namespace {

struct Args {
  uint64_t seed = 1;
  int iters = 500;
  std::string corpus_dir;
  std::string replay_file;
  uint64_t case_seed = 0;
  bool has_case_seed = false;
  bool inject_bug = false;
  bool no_shrink = false;
  bool verbose = false;
  int max_rows = 40;
  int shards = 1;
  int async_every = 8;
  int trace_sample = 0;
  std::string family;
};

void PrintReport(const FuzzCase& c, const OracleReport& r) {
  std::fprintf(stderr, "--- verdict: %s (%s)\n", VerdictName(r.verdict),
               r.detail.c_str());
  std::fprintf(stderr, "--- case (seed %llu):\n%s",
               static_cast<unsigned long long>(c.seed),
               SerializeCase(c).c_str());
  std::fprintf(stderr, "--- rewritten program:\n%s",
               r.rewritten_source.c_str());
  for (const net::QueryTrace& t : r.rewritten_trace) {
    std::fprintf(stderr, "--- rewritten query [%lld rows, %lld bytes]: %s\n",
                 static_cast<long long>(t.rows),
                 static_cast<long long>(t.bytes), t.sql.c_str());
  }
}

/// Shrinks a failing case, reports it, and saves the reproducer.
void HandleFailure(const Args& args, const FuzzCase& c,
                   const OracleReport& report, const OracleOptions& oopts) {
  // Schedule cases carry their family in the "@family" function tag.
  std::fprintf(stderr, "FAIL seed=%llu family=%s\n",
               static_cast<unsigned long long>(c.seed),
               !c.function.empty() && c.function[0] == '@'
                   ? c.function.c_str() + 1
                   : FamilyName(FamilyForSeed(c.seed)));
  FuzzCase to_save = c;
  OracleReport final_report = report;
  // ImpLang programs get the statement/expression passes; schedule
  // cases ("@txn", "@index") get line-level ddmin (see shrink.h).
  if (!args.no_shrink && IsViolation(report.verdict)) {
    ShrinkOutcome shrunk = Shrink(c, oopts);
    EQSQL_LOG(Info, "shrunk after %d oracle runs", shrunk.oracle_runs);
    to_save = std::move(shrunk.reduced);
    final_report = std::move(shrunk.report);
  }
  PrintReport(to_save, final_report);
  std::string dir = args.corpus_dir.empty() ? "." : args.corpus_dir;
  auto path = SaveCaseFile(to_save, dir);
  if (path.ok()) {
    std::fprintf(stderr, "reproducer written to %s\n", path->c_str());
    // Re-run the minimal case with diagnostics on and attach the
    // EXPLAIN EXTRACTION report and pipeline trace next to it, so a
    // mismatch arrives with the optimizer's own account of which
    // preconditions held and which rules fired.
    OracleOptions diag = oopts;
    diag.collect_diagnostics = true;
    OracleReport rerun = RunOracle(to_save, diag);
    std::ofstream explain(*path + ".explain.txt");
    explain << rerun.explain_text;
    std::ofstream trace(*path + ".trace.json");
    trace << rerun.trace_json << "\n";
    if (explain && trace) {
      std::fprintf(stderr, "diagnostics written to %s.{explain.txt,trace.json}\n",
                   path->c_str());
    } else {
      EQSQL_LOG(Warn, "could not write diagnostics next to %s",
                path->c_str());
    }
  } else {
    std::fprintf(stderr, "cannot write reproducer: %s\n",
                 path.status().ToString().c_str());
  }
}

int Run(const Args& args) {
  OracleOptions oopts;
  oopts.inject_sql_bug = args.inject_bug;
  oopts.shard_count = args.shards < 1 ? 1 : static_cast<size_t>(args.shards);
  oopts.async_every_n =
      args.async_every < 1 ? 0 : static_cast<size_t>(args.async_every);
  oopts.trace_sample =
      args.trace_sample < 1 ? 0 : static_cast<size_t>(args.trace_sample);
  GenOptions gopts;
  gopts.data.max_rows = args.max_rows;
  if (!args.family.empty() && !RestrictToFamily(&gopts, args.family)) {
    std::fprintf(stderr, "unknown family: %s\n", args.family.c_str());
    return 2;
  }

  // Replay a single corpus file.
  if (!args.replay_file.empty()) {
    auto c = LoadCaseFile(args.replay_file);
    if (!c.ok()) {
      std::fprintf(stderr, "%s\n", c.status().ToString().c_str());
      return 2;
    }
    OracleReport report = RunOracle(*c, oopts);
    PrintReport(*c, report);
    return report.verdict == Verdict::kPass ? 0 : 1;
  }

  int failures = 0;

  // Replay the whole corpus first: past failures are regression tests.
  if (!args.corpus_dir.empty()) {
    auto files = ListCorpusFiles(args.corpus_dir);
    if (!files.ok()) {
      std::fprintf(stderr, "%s\n", files.status().ToString().c_str());
      return 2;
    }
    for (const std::string& file : *files) {
      auto c = LoadCaseFile(file);
      if (!c.ok()) {
        std::fprintf(stderr, "%s\n", c.status().ToString().c_str());
        ++failures;
        continue;
      }
      // Corpus replays ignore --inject-bug (they are regression tests
      // for real failures) but do honor --shards, --async-every, and
      // --trace-sample, so the saved reproducers also sweep the
      // sharded, scheduler-backed, and profiled configurations.
      OracleOptions replay_opts;
      replay_opts.shard_count = oopts.shard_count;
      replay_opts.async_every_n = oopts.async_every_n;
      replay_opts.trace_sample = oopts.trace_sample;
      OracleReport report = RunOracle(*c, replay_opts);
      if (report.verdict != Verdict::kPass) {
        std::fprintf(stderr, "corpus regression: %s\n", file.c_str());
        PrintReport(*c, report);
        ++failures;
      } else if (args.verbose) {
        std::printf("corpus ok: %s\n", file.c_str());
      }
    }
    std::printf("corpus: %zu file(s) replayed\n", files->size());
  }

  std::map<std::string, int> rule_hits;
  std::map<std::string, int> family_counts;
  int extracted = 0;

  auto run_one = [&](uint64_t case_seed) {
    FuzzCase c = GenerateCase(case_seed, gopts);
    family_counts[FamilyName(FamilyForSeed(case_seed, gopts))]++;
    OracleReport report = RunOracle(c, oopts);
    if (report.extracted) ++extracted;
    for (const std::string& rule : report.rules) rule_hits[rule]++;
    if (args.verbose) {
      std::printf("seed %llu: %s%s\n",
                  static_cast<unsigned long long>(case_seed),
                  VerdictName(report.verdict),
                  report.extracted ? " [extracted]" : "");
    }
    if (report.verdict != Verdict::kPass) {
      HandleFailure(args, c, report, oopts);
      ++failures;
    }
  };

  if (args.has_case_seed) {
    run_one(args.case_seed);
  } else {
    for (int i = 0; i < args.iters; ++i) {
      run_one(SplitMix64(args.seed + static_cast<uint64_t>(i)));
    }
  }

  std::printf("scenarios: %d  extracted: %d  failures: %d\n",
              args.has_case_seed ? 1 : args.iters, extracted, failures);
  std::printf("family mix:");
  for (const auto& [family, n] : family_counts) {
    std::printf(" %s=%d", family.c_str(), n);
  }
  std::printf("\nrule coverage:");
  for (const auto& [rule, n] : rule_hits) {
    std::printf(" %s=%d", rule.c_str(), n);
  }
  std::printf("\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace eqsql::fuzz

int main(int argc, char** argv) {
  eqsql::fuzz::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--iters") {
      args.iters = std::atoi(next());
    } else if (a == "--corpus") {
      args.corpus_dir = next();
    } else if (a == "--replay") {
      args.replay_file = next();
    } else if (a == "--case-seed") {
      args.case_seed = std::strtoull(next(), nullptr, 10);
      args.has_case_seed = true;
    } else if (a == "--inject-bug") {
      args.inject_bug = true;
    } else if (a == "--no-shrink") {
      args.no_shrink = true;
    } else if (a == "--verbose") {
      args.verbose = true;
    } else if (a == "--max-rows") {
      args.max_rows = std::atoi(next());
    } else if (a == "--shards") {
      args.shards = std::atoi(next());
    } else if (a == "--async-every") {
      args.async_every = std::atoi(next());
    } else if (a == "--trace-sample") {
      args.trace_sample = std::atoi(next());
    } else if (a == "--family") {
      args.family = next();
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: fuzz_eqsql [--seed N] [--iters M] [--corpus DIR]\n"
          "                  [--replay FILE] [--case-seed S] [--family NAME]\n"
          "                  [--inject-bug] [--max-rows K] [--shards P]\n"
          "                  [--async-every N] [--trace-sample N]\n"
          "                  [--no-shrink] [--verbose]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }
  return eqsql::fuzz::Run(args);
}
