// The traced run's view of the compile layers: the pipeline that
// Session::SelectPlan runs on a cache miss, called one public stage at
// a time so each stage gets its own span.
#ifndef WALLBENCH_STAGE_PROBE_H_
#define WALLBENCH_STAGE_PROBE_H_

#include <cstdint>
#include <string>

#include "core/plan_cache.h"
#include "net/server.h"
#include "wallbench/span_log.h"

namespace wallbench {

/// dir::LoopReports from BuildFunction, across probe calls.
struct StageCounts {
  int64_t loops = 0;
  int64_t loops_converted = 0;
};

/// Runs ParseProgram, BuildFunction, Optimize, GatherTableStats and
/// Select on (`source`, `function`), each in its own span; false when a
/// stage returns an error. It leaves the server's telemetry alone: the
/// optimizer records no metrics, and the selector resolves SQL through
/// `sql_cache` instead of the server's plan cache.
bool RunStageProbe(eqsql::net::Server* server,
                   eqsql::core::PlanCache* sql_cache,
                   const std::string& source, const std::string& function,
                   SpanLog* spans, StageCounts* counts);

}  // namespace wallbench

#endif  // WALLBENCH_STAGE_PROBE_H_
