#ifndef EQSQL_OBS_EXPLAIN_H_
#define EQSQL_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "obs/profile.h"

namespace eqsql::obs {

/// Renders an EXPLAIN EXTRACTION report for one optimized function: for
/// every cursor loop, which preconditions P1-P3 held or failed (with
/// the offending DDG edge), which transformation rules fired in order,
/// and the cost-heuristic verdict when an extraction was skipped.
///
/// The text form is stable (golden-tested); timings are deliberately
/// omitted so output is byte-deterministic for a fixed program.
std::string RenderExplainText(const core::OptimizeResult& result,
                              const std::string& function);

/// The same report as JSON: {"function":..,"loops":
/// [{"line":..,"desc":..,"vars":[{"var":..,"extracted":..,
/// "preconditions":{...},"rules":[..],"sql":[..],"reason":..,
/// "cost_skipped":..},..]},..]}.
std::string RenderExplainJson(const core::OptimizeResult& result,
                              const std::string& function);

/// Full selection report: the extraction report above followed by an
/// "alternatives:" section listing every priced strategy — estimated
/// cost, the chosen marker, and skip reasons for infeasible ones — plus
/// the chosen strategy. Byte-deterministic for fixed inputs (the stats
/// epoch is a cache token, not a timing, and appears only in the JSON
/// form).
std::string RenderExplainText(const core::ExtractionPlan& plan,
                              const std::string& function);

/// {"plan":<extraction json>,"alternatives":[{"kind":..,"feasible":..,
/// "est_cost_ms":..,"chosen":..,"detail":..,"skip_reason":..},..],
/// "chosen":..,"stats_epoch":"<hex>"}.
std::string RenderExplainJson(const core::ExtractionPlan& plan,
                              const std::string& function);

/// EXPLAIN ANALYZE rendering: header (returned rows) followed by the
/// operator-profile tree. The JSON form wraps Profile::ToJson with the
/// same header field.
std::string RenderAnalyzeText(const Profile& profile, int64_t rows);
std::string RenderAnalyzeJson(const Profile& profile, int64_t rows);

/// SHOW PROFILES / SHOW TRACES over the trace ring, as an explain-style
/// payload: one stanza per sampled request. The profiles form carries
/// each record's operator tree, the traces form its span tree.
std::string RenderProfilesText(const std::vector<TraceRecord>& records);
std::string RenderProfilesJson(const std::vector<TraceRecord>& records);
std::string RenderTracesText(const std::vector<TraceRecord>& records);
std::string RenderTracesJson(const std::vector<TraceRecord>& records);

}  // namespace eqsql::obs

#endif  // EQSQL_OBS_EXPLAIN_H_
