#include "obs/explain.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

namespace eqsql::obs {

namespace {

using core::VarOutcome;

/// Outcomes grouped by defining loop, preserving first-seen loop order
/// and per-loop outcome order.
std::vector<std::pair<int, std::vector<const VarOutcome*>>> GroupByLoop(
    const core::OptimizeResult& result) {
  std::vector<std::pair<int, std::vector<const VarOutcome*>>> loops;
  for (const VarOutcome& o : result.outcomes) {
    if (loops.empty() || loops.back().first != o.loop_line) {
      loops.emplace_back(o.loop_line, std::vector<const VarOutcome*>());
    }
    loops.back().second.push_back(&o);
  }
  return loops;
}

void RenderVerdict(std::ostringstream& out, const char* label,
                   const analysis::PreconditionVerdict& v) {
  out << "    " << label << ": ";
  if (!v.checked) {
    out << "not checked\n";
    return;
  }
  if (v.held) {
    out << "held";
    if (!v.detail.empty()) out << " (" << v.detail << ")";
  } else {
    out << "FAILED";
    if (!v.detail.empty()) out << ": " << v.detail;
  }
  out << "\n";
}

void RenderVar(std::ostringstream& out, const VarOutcome& o) {
  out << "  var '" << o.var << "':\n";
  if (!o.query_backed) {
    out << "    preconditions not applicable: " << o.reason << "\n";
  } else {
    RenderVerdict(out, "P1 loop-carried accumulation cycle", o.preconditions.p1);
    RenderVerdict(out, "P2 no other loop-carried dependence", o.preconditions.p2);
    RenderVerdict(out, "P3 no external effects in slice", o.preconditions.p3);
    if (!o.preconditions.gate.empty()) {
      out << "    gate: FAILED: " << o.preconditions.gate << "\n";
    }
  }
  out << "    rules fired: ";
  if (o.rules.empty()) {
    out << "(none)";
  } else {
    for (size_t i = 0; i < o.rules.size(); ++i) {
      if (i > 0) out << ", ";
      out << o.rules[i];
    }
  }
  out << "\n";
  if (o.extracted) {
    out << "    => extracted\n";
    for (const std::string& sql : o.sql) {
      out << "       " << sql << "\n";
    }
    if (!o.join_plan.empty()) {
      char costs[96];
      std::snprintf(costs, sizeof(costs),
                    " (index %.3f ms vs scan %.3f ms)", o.cost_index_ms,
                    o.cost_scan_ms);
      out << "    physical plan: " << o.join_plan << costs << "\n";
    }
  } else if (o.cost_skipped) {
    out << "    => skipped by cost heuristic: " << o.reason << "\n";
  } else {
    out << "    => kept imperative: " << o.reason << "\n";
  }
}

}  // namespace

std::string RenderExplainText(const core::OptimizeResult& result,
                              const std::string& function) {
  std::ostringstream out;
  out << "EXPLAIN EXTRACTION for function '" << function << "'\n";
  if (result.outcomes.empty()) {
    out << "no cursor loops with observable variables\n";
    return out.str();
  }
  int extracted = 0;
  for (const auto& [line, vars] : GroupByLoop(result)) {
    out << "loop at line " << line;
    if (!vars.empty()) out << ": " << vars.front()->loop_desc;
    out << "\n";
    for (const VarOutcome* o : vars) {
      RenderVar(out, *o);
      if (o->extracted) ++extracted;
    }
  }
  out << "summary: " << extracted << " of " << result.outcomes.size()
      << " variable(s) extracted\n";
  return out.str();
}

std::string RenderExplainText(const core::ExtractionPlan& plan,
                              const std::string& function) {
  static const core::OptimizeResult kEmpty;
  const core::OptimizeResult& result =
      plan.optimized != nullptr ? *plan.optimized : kEmpty;
  std::ostringstream out;
  out << RenderExplainText(result, function);
  out << "alternatives:\n";
  for (const core::PlanAlternative& a : plan.alternatives) {
    out << "  * " << core::AlternativeKindName(a.kind) << ": ";
    if (a.feasible) {
      char cost[32];
      std::snprintf(cost, sizeof(cost), "est %.3f ms", a.est_cost_ms);
      out << cost;
      if (a.chosen) out << " (chosen)";
      if (!a.detail.empty()) out << " -- " << a.detail;
    } else {
      out << "not applicable -- " << a.skip_reason;
    }
    out << "\n";
  }
  out << "chosen strategy: " << core::AlternativeKindName(plan.chosen)
      << "\n";
  return out.str();
}

std::string RenderExplainJson(const core::ExtractionPlan& plan,
                              const std::string& function) {
  static const core::OptimizeResult kEmpty;
  const core::OptimizeResult& result =
      plan.optimized != nullptr ? *plan.optimized : kEmpty;
  std::ostringstream out;
  out << "{\"plan\":" << RenderExplainJson(result, function)
      << ",\"alternatives\":[";
  bool first = true;
  for (const core::PlanAlternative& a : plan.alternatives) {
    if (!first) out << ",";
    first = false;
    char cost[32];
    std::snprintf(cost, sizeof(cost), "%.3f", a.est_cost_ms);
    out << "{\"kind\":\"" << core::AlternativeKindName(a.kind)
        << "\",\"feasible\":" << (a.feasible ? "true" : "false")
        << ",\"est_cost_ms\":" << (a.feasible ? cost : "null")
        << ",\"chosen\":" << (a.chosen ? "true" : "false")
        << ",\"detail\":\"" << JsonEscapeString(a.detail)
        << "\",\"skip_reason\":\"" << JsonEscapeString(a.skip_reason)
        << "\"}";
  }
  char epoch[32];
  std::snprintf(epoch, sizeof(epoch), "%016llx",
                static_cast<unsigned long long>(plan.stats_epoch));
  out << "],\"chosen\":\"" << core::AlternativeKindName(plan.chosen)
      << "\",\"stats_epoch\":\"" << epoch << "\"}";
  return out.str();
}

std::string RenderAnalyzeText(const Profile& profile, int64_t rows) {
  std::ostringstream out;
  out << "EXPLAIN ANALYZE (rows=" << rows << ")\n";
  out << profile.ToText();
  return out.str();
}

std::string RenderAnalyzeJson(const Profile& profile, int64_t rows) {
  std::ostringstream out;
  out << "{\"rows\":" << rows << ",\"profile\":" << profile.ToJson()
      << "}";
  return out.str();
}

namespace {

/// Common stanza header for one sampled request.
void RecordHeader(std::ostringstream& out, const TraceRecord& rec) {
  out << "trace " << rec.trace_id << ": " << rec.statement << "\n"
      << "  status " << rec.status << ", total " << rec.total_ns
      << " ns, queue wait " << rec.queue_wait_ns << " ns\n";
}

void RecordJsonCommon(std::ostringstream& out, const TraceRecord& rec) {
  out << "{\"trace_id\":" << rec.trace_id << ",\"statement\":\""
      << JsonEscapeString(rec.statement) << "\",\"status\":\""
      << JsonEscapeString(rec.status) << "\",\"queue_wait_ns\":"
      << rec.queue_wait_ns << ",\"total_ns\":" << rec.total_ns;
}

}  // namespace

std::string RenderProfilesText(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  out << "SHOW PROFILES: " << records.size() << " sampled request(s)\n";
  for (const TraceRecord& rec : records) {
    RecordHeader(out, rec);
    out << rec.profile_text;
  }
  return out.str();
}

std::string RenderProfilesJson(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const TraceRecord& rec : records) {
    if (!first) out << ",";
    first = false;
    RecordJsonCommon(out, rec);
    out << ",\"profile\":"
        << (rec.profile_json.empty() ? "null" : rec.profile_json) << "}";
  }
  out << "]";
  return out.str();
}

std::string RenderTracesText(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  out << "SHOW TRACES: " << records.size() << " sampled request(s)\n";
  for (const TraceRecord& rec : records) {
    RecordHeader(out, rec);
    out << rec.trace_json << "\n";
  }
  return out.str();
}

std::string RenderTracesJson(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const TraceRecord& rec : records) {
    if (!first) out << ",";
    first = false;
    RecordJsonCommon(out, rec);
    out << ",\"trace\":"
        << (rec.trace_json.empty() ? "null" : rec.trace_json) << "}";
  }
  out << "]";
  return out.str();
}

std::string RenderExplainJson(const core::OptimizeResult& result,
                              const std::string& function) {
  std::ostringstream out;
  out << "{\"function\":\"" << JsonEscapeString(function) << "\"";
  out << ",\"loops\":[";
  bool first_loop = true;
  auto verdict_json = [&](const char* name,
                          const analysis::PreconditionVerdict& v) {
    out << "\"" << name << "\":{\"checked\":" << (v.checked ? "true" : "false")
        << ",\"held\":" << (v.held ? "true" : "false") << ",\"detail\":\""
        << JsonEscapeString(v.detail) << "\"}";
  };
  for (const auto& [line, vars] : GroupByLoop(result)) {
    if (!first_loop) out << ",";
    first_loop = false;
    out << "{\"line\":" << line << ",\"desc\":\""
        << JsonEscapeString(vars.empty() ? "" : vars.front()->loop_desc)
        << "\",\"vars\":[";
    bool first_var = true;
    for (const VarOutcome* o : vars) {
      if (!first_var) out << ",";
      first_var = false;
      out << "{\"var\":\"" << JsonEscapeString(o->var) << "\",\"extracted\":"
          << (o->extracted ? "true" : "false") << ",\"query_backed\":"
          << (o->query_backed ? "true" : "false") << ",\"cost_skipped\":"
          << (o->cost_skipped ? "true" : "false");
      if (o->query_backed) {
        out << ",\"preconditions\":{";
        verdict_json("p1", o->preconditions.p1);
        out << ",";
        verdict_json("p2", o->preconditions.p2);
        out << ",";
        verdict_json("p3", o->preconditions.p3);
        if (!o->preconditions.gate.empty()) {
          out << ",\"gate\":\"" << JsonEscapeString(o->preconditions.gate)
              << "\"";
        }
        out << "}";
      }
      out << ",\"rules\":[";
      for (size_t i = 0; i < o->rules.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << JsonEscapeString(o->rules[i]) << "\"";
      }
      out << "],\"sql\":[";
      for (size_t i = 0; i < o->sql.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << JsonEscapeString(o->sql[i]) << "\"";
      }
      out << "]";
      if (!o->join_plan.empty()) {
        char costs[96];
        std::snprintf(costs, sizeof(costs),
                      ",\"cost_index_ms\":%.3f,\"cost_scan_ms\":%.3f",
                      o->cost_index_ms, o->cost_scan_ms);
        out << ",\"join_plan\":\"" << JsonEscapeString(o->join_plan) << "\""
            << costs;
      }
      out << ",\"reason\":\"" << JsonEscapeString(o->reason) << "\"}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace eqsql::obs
