#ifndef EQSQL_FUZZ_ORACLE_H_
#define EQSQL_FUZZ_ORACLE_H_

#include <string>
#include <vector>

#include "net/connection.h"
#include "fuzz/scenario.h"

namespace eqsql::fuzz {

/// Oracle verdicts. The first three are equivalence violations (paper
/// Theorem 1 broken); kRowRegression means the rewrite shipped more
/// rows than the original beyond the one-row-per-scalar-query floor;
/// kInfraError means the harness itself failed (parse error, interp
/// error) — always a bug somewhere, never ignorable.
enum class Verdict {
  kPass,
  kReturnMismatch,
  kPrintMismatch,
  kRowRegression,
  kInfraError,
};

const char* VerdictName(Verdict v);

struct OracleOptions {
  /// Sanity-check mode: after optimizing, corrupt the first embedded
  /// SQL string of the rewritten program (flip a comparison, bump a
  /// constant, swap MAX/MIN). Simulates an unsound rule so tests can
  /// prove the oracle catches it and the shrinker minimizes it.
  bool inject_sql_bug = false;
  /// Hash partitions per table in the scratch databases (0 and 1 both
  /// mean a single shard). When > 1 the oracle also attaches a small
  /// worker pool and forces the parallel operators on (threshold 0),
  /// so a sweep at --shards N exercises the partition-parallel
  /// scan/aggregate paths against the exact same programs.
  size_t shard_count = 1;
  /// Collects failure diagnostics: the EXPLAIN EXTRACTION report for
  /// the case's function and a pipeline trace (JSON) covering the
  /// whole differential run. Off by default — the fuzz loop re-runs
  /// only the shrunk reproducer with this on, so the hot path stays
  /// untraced.
  bool collect_diagnostics = false;
  /// When > 0, a deterministic 1-in-N coin flip on the case seed
  /// selects the scheduler-backed execution path: both programs run
  /// against their own net::Server with a Session as the interpreter's
  /// net::Client, so every statement travels Submit -> admission queue
  /// -> worker — the fuzzer then differentially tests the PR-5
  /// execution model against itself, not just the direct connection.
  /// 0 (default) keeps every case on the direct path; per-query traces
  /// are unavailable for scheduler-backed cases (execution happens on
  /// worker links).
  size_t async_every_n = 0;
  /// Forwarded to every scheduler-backed server the oracle builds
  /// (ServerOptions::trace_sample): every N-th scheduled request is
  /// captured — span tree plus operator profile — into the server's
  /// trace ring. Profiling must never change results or the simulated
  /// clock, so a sweep with --trace-sample 1 differentially tests
  /// exactly that (and, under TSan, races in the ring/sampler).
  size_t trace_sample = 0;
};

/// Everything one differential run learned.
struct OracleReport {
  Verdict verdict = Verdict::kInfraError;
  std::string detail;       // human-readable mismatch description
  bool extracted = false;   // did the optimizer rewrite anything?
  bool injected = false;    // did inject_sql_bug find SQL to corrupt?
  std::vector<std::string> rules;  // union of applied rule names
  int64_t original_rows = 0;
  int64_t rewritten_rows = 0;
  int64_t original_queries = 0;
  int64_t rewritten_queries = 0;
  std::string rewritten_source;
  std::vector<net::QueryTrace> rewritten_trace;
  /// Populated only under OracleOptions::collect_diagnostics.
  std::string explain_text;  // EXPLAIN EXTRACTION report
  std::string trace_json;    // pipeline span tree (obs::Trace::ToJson)
};

/// Runs the differential oracle on one case: interpret the program
/// as-is, optimize it, interpret the rewrite against the same data,
/// then compare return values, print streams, and row transfer
/// (rewritten_rows <= max(original_rows, rewritten_queries) — every
/// scalar aggregate unavoidably ships one row even when the original
/// shipped none).
OracleReport RunOracle(const FuzzCase& c, const OracleOptions& opts = {});

}  // namespace eqsql::fuzz

#endif  // EQSQL_FUZZ_ORACLE_H_
