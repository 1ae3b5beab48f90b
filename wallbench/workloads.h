// The three workloads and what a run of one observes.
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/alternative_selector.h"
#include "wallbench/harness.h"
#include "wallbench/span_log.h"
#include "wallbench/stage_probe.h"

namespace wallbench {

/// Everything one invocation observed; main() turns it into the reported
/// figures. "Requests" are the measured phase's closed-loop
/// requests: a SelectPlan (compile), an app run (serve_*), or a whole
/// write transaction (serve_rw).
struct Observed {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> setup_s;  // one per set-up repetition
  int64_t phase_start_ns = 0;
  double phase_cpu_s = 0;  // CPU time of all threads in the measured phase
  std::vector<Sample> req;  // untraced requests
  /// Traced run: the requests recorded with spans (every other block).
  std::vector<double> traced_req_ms;
  std::vector<double> txn_ms;   // write transactions, retries included

  int64_t app_requests = 0;  // requests that ran a program
  int64_t selections = 0;    // SelectPlan results received
  int64_t vars = 0;          // VarOutcomes of the selected plans
  int64_t vars_extracted = 0;
  std::map<eqsql::core::AlternativeKind, int64_t> chosen;
  int64_t performs = 0;  // Client::Perform calls of app requests
  int64_t batching_runs = 0;
  int64_t batching_fallbacks = 0;  // batching runs that uploaded nothing
  int64_t txn_attempts = 0;
  int64_t txn_conflicts = 0;
  StageCounts stages;
  std::vector<double> regrets;  // one per app, traced serve runs
  std::map<std::string, SpanStats> spans;
  RegistryDelta delta;
  std::vector<std::string> report;
  /// The first kKeptFailures failures' descriptions, for the report.
  static constexpr size_t kKeptFailures = 8;
  std::vector<std::string> failures;

  /// Counts one failure and keeps its description.
  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < kKeptFailures) failures.push_back(what);
  }

  int64_t requests() const {
    return static_cast<int64_t>(req.size() + traced_req_ms.size());
  }
};

/// compile: SelectPlan on a seeded draw from the 145-program corpus.
Observed RunCompile(const RunConfig& config);

/// serve_read (1 session, five apps) and serve_rw (4 sessions, four
/// apps and 1 in 4 requests a write transaction).
Observed RunServe(const RunConfig& config);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
