#include "core/alternative_selector.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "baselines/batching.h"
#include "baselines/batching_exec.h"
#include "common/strings.h"

namespace eqsql::core {

using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;

const char* AlternativeKindName(AlternativeKind kind) {
  switch (kind) {
    case AlternativeKind::kExtractedSql: return "extracted-sql";
    case AlternativeKind::kBatching: return "batching";
    case AlternativeKind::kInterpreted: return "interpreted";
  }
  return "?";
}

const PlanAlternative* ExtractionPlan::Find(AlternativeKind kind) const {
  for (const PlanAlternative& a : alternatives) {
    if (a.kind == kind) return &a;
  }
  return nullptr;
}

namespace {

constexpr double kDefaultOuterRows = 1000.0;
constexpr double kDefaultRowWidth = 48.0;
/// Approximate uploaded bytes per parameter-table cell (row id or one
/// parameter value).
constexpr double kParamCellBytes = 16.0;

/// Shape of the original function's first query-backed cursor loop:
/// what the interpreted strategy actually pays per execution.
struct LoopProbe {
  bool found = false;
  std::string outer_sql;
  int queries_per_row = 0;
};

void CountQueries(const ExprPtr& e, int* n) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kCall &&
      (e->name() == "executeQuery" || e->name() == "executeUpdate")) {
    ++(*n);
  }
  if (e->object() != nullptr) CountQueries(e->object(), n);
  for (const ExprPtr& a : e->args()) CountQueries(a, n);
}

void CountBodyQueries(const std::vector<StmtPtr>& stmts, int* n) {
  for (const StmtPtr& s : stmts) {
    CountQueries(s->expr(), n);
    CountBodyQueries(s->body(), n);
    CountBodyQueries(s->else_body(), n);
  }
}

LoopProbe ProbeLoop(const frontend::Function* fn) {
  LoopProbe probe;
  if (fn == nullptr) return probe;
  std::map<std::string, std::string> cursor_sql;
  for (const StmtPtr& s : fn->body) {
    if (s->kind() == StmtKind::kAssign && s->expr() != nullptr &&
        s->expr()->kind() == ExprKind::kCall &&
        s->expr()->name() == "executeQuery" &&
        !s->expr()->args().empty() &&
        s->expr()->arg(0)->kind() == ExprKind::kStringLit) {
      cursor_sql[s->target()] = s->expr()->arg(0)->string_value();
    }
    if (s->kind() != StmtKind::kForEach) continue;
    probe.found = true;
    const ExprPtr& iter = s->expr();
    if (iter != nullptr) {
      if (iter->kind() == ExprKind::kVarRef) {
        auto it = cursor_sql.find(iter->name());
        if (it != cursor_sql.end()) probe.outer_sql = it->second;
      } else if (iter->kind() == ExprKind::kCall &&
                 iter->name() == "executeQuery" && !iter->args().empty() &&
                 iter->arg(0)->kind() == ExprKind::kStringLit) {
        probe.outer_sql = iter->arg(0)->string_value();
      }
    }
    CountBodyQueries(s->body(), &probe.queries_per_row);
    return probe;
  }
  return probe;
}

std::string RowsDetail(double rows) {
  return std::to_string(static_cast<long long>(std::llround(rows))) +
         " row(s)";
}

/// Annotates extracted variables with the index-nested-loop join the
/// executor will run, priced against the hash join under the same stats
/// snapshot the alternatives are priced with. A no-op while the
/// database has no secondary indexes.
void AnnotateJoinPlans(const CostEstimator& estimator, bool any_index,
                       const AlternativeSelector::PlanResolver& resolve,
                       OptimizeResult* result) {
  if (!any_index) return;
  for (VarOutcome& o : result->outcomes) {
    if (!o.extracted) continue;
    for (const std::string& sql : o.sql) {
      Result<ra::RaNodePtr> plan = resolve(sql);
      if (!plan.ok()) continue;
      JoinPlanChoice choice = estimator.ChooseJoinPlan(*plan);
      if (!choice.applicable) continue;
      o.join_plan = "index-nested-loop on " + choice.detail;
      o.cost_index_ms = choice.index_ms;
      o.cost_scan_ms = choice.scan_ms;
      break;
    }
  }
}

}  // namespace

ExtractionPlan AlternativeSelector::Select(
    std::shared_ptr<const OptimizeResult> optimized,
    const frontend::Function* original, const PlanResolver& resolve,
    uint64_t stats_epoch) const {
  ExtractionPlan plan;
  plan.stats_epoch = stats_epoch;

  bool any_index = false;
  for (const auto& [table, indexes] : stats_.table_indexes) {
    if (!indexes.empty()) any_index = true;
  }

  const LoopProbe probe = ProbeLoop(original);
  Result<ra::RaNodePtr> outer_plan = probe.outer_sql.empty()
                                         ? Status::NotFound("no outer query")
                                         : resolve(probe.outer_sql);

  // --- extracted-sql: every lifted query runs once.
  PlanAlternative extracted;
  extracted.kind = AlternativeKind::kExtractedSql;
  if (optimized != nullptr && optimized->any_extracted()) {
    extracted.feasible = true;
    int queries = 0;
    double ms = 0;
    for (const VarOutcome& o : optimized->outcomes) {
      if (!o.extracted) continue;
      for (const std::string& sql : o.sql) {
        ++queries;
        Result<ra::RaNodePtr> q = resolve(sql);
        if (q.ok()) {
          ms += estimator_.EstimateQuery(*q).Milliseconds(model_);
        } else {
          ms += model_.round_trip_latency_ms + model_.query_overhead_ms;
        }
      }
    }
    extracted.est_cost_ms = ms;
    extracted.detail = std::to_string(queries) + " set-oriented quer" +
                       (queries == 1 ? "y" : "ies");
  } else {
    extracted.skip_reason = "nothing extracted";
    if (optimized != nullptr) {
      for (const VarOutcome& o : optimized->outcomes) {
        if (!o.extracted && !o.reason.empty()) {
          extracted.skip_reason = o.reason;
          break;
        }
      }
    }
  }

  // --- batching: upload one parameter row per cursor row, replace the
  // per-row probes with one join each against the parameter table.
  PlanAlternative batching;
  batching.kind = AlternativeKind::kBatching;
  baselines::BatchPlan bplan;
  if (original != nullptr) {
    bplan = baselines::FindBatchLoop(*original, "__batch_params");
  }
  if (!bplan.sites.empty()) {
    batching.feasible = true;
    double outer_rows = kDefaultOuterRows;
    double ms = 0;
    Result<ra::RaNodePtr> bouter = bplan.outer_sql.empty()
                                       ? outer_plan
                                       : resolve(bplan.outer_sql);
    if (bouter.ok()) {
      CostEstimate outer_est = estimator_.EstimateQuery(*bouter);
      outer_rows = outer_est.cardinality;
      ms += outer_est.Milliseconds(model_);
    } else {
      ms += model_.round_trip_latency_ms + model_.query_overhead_ms +
            model_.ServerMs(static_cast<size_t>(outer_rows)) +
            model_.TransferMs(
                static_cast<size_t>(outer_rows * kDefaultRowWidth));
    }
    ms += model_.param_table_overhead_ms + model_.round_trip_latency_ms +
          model_.TransferMs(static_cast<size_t>(
              outer_rows * kParamCellBytes *
              static_cast<double>(1 + bplan.param_columns)));
    for (const baselines::BatchSite& site : bplan.sites) {
      const std::string table = AsciiToLower(site.inner_table);
      auto rows_it = stats_.table_rows.find(table);
      const double inner_rows =
          rows_it != stats_.table_rows.end()
              ? static_cast<double>(rows_it->second)
              : kDefaultOuterRows;
      auto bytes_it = stats_.row_bytes.find(table);
      const double inner_width =
          bytes_it != stats_.row_bytes.end()
              ? static_cast<double>(bytes_it->second)
              : kDefaultRowWidth;
      ms += model_.round_trip_latency_ms + model_.query_overhead_ms +
            model_.ServerMs(static_cast<size_t>(inner_rows + outer_rows)) +
            model_.TransferMs(static_cast<size_t>(outer_rows * inner_width));
    }
    ms += model_.ClientLoopMs(outer_rows);
    batching.est_cost_ms = ms;
    batching.detail = std::to_string(bplan.sites.size()) +
                      " probe site(s) over " + RowsDetail(outer_rows);
  } else if (original == nullptr) {
    batching.skip_reason = "original function unavailable";
  } else {
    baselines::Applicability check =
        baselines::CheckBatchingApplicable(*original);
    batching.skip_reason =
        check.applicable ? "no batchable probe site" : check.reason;
  }

  // --- interpreted: fetch the cursor, then one round trip per row per
  // inner query. Always feasible — it is the program as written.
  PlanAlternative interp;
  interp.kind = AlternativeKind::kInterpreted;
  interp.feasible = true;
  if (outer_plan.ok()) {
    CostEstimate loop_est =
        estimator_.EstimateLoop(*outer_plan, probe.queries_per_row);
    interp.est_cost_ms = loop_est.Milliseconds(model_) +
                         model_.ClientLoopMs(loop_est.cardinality);
    interp.detail = std::to_string(loop_est.round_trips) +
                    " round trip(s) over " + RowsDetail(loop_est.cardinality);
  } else if (extracted.feasible) {
    // No query-backed loop to price: the imperative strategy costs what
    // its queries cost (the loop itself stays client-side).
    interp.est_cost_ms =
        extracted.est_cost_ms + model_.ClientLoopMs(kDefaultOuterRows);
    interp.detail = "no query-backed loop; priced as the extracted queries";
  } else {
    interp.est_cost_ms = model_.round_trip_latency_ms;
    interp.detail = "no query-backed loop";
  }

  plan.alternatives = {extracted, batching, interp};
  // Rank: feasible before infeasible, then cheapest first; on a cost
  // tie the more set-oriented strategy wins (declaration order).
  std::stable_sort(plan.alternatives.begin(), plan.alternatives.end(),
                   [](const PlanAlternative& a, const PlanAlternative& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     return a.est_cost_ms < b.est_cost_ms;
                   });
  plan.chosen = plan.alternatives.front().kind;
  for (PlanAlternative& a : plan.alternatives) {
    a.chosen = a.feasible && a.kind == plan.chosen;
  }

  // The cached plan carries a join-annotated copy so EXPLAIN shows the
  // physical choice beside the strategy choice.
  if (optimized != nullptr) {
    OptimizeResult annotated = *optimized;
    AnnotateJoinPlans(estimator_, any_index, resolve, &annotated);
    plan.optimized =
        std::make_shared<const OptimizeResult>(std::move(annotated));
  }
  return plan;
}

}  // namespace eqsql::core
