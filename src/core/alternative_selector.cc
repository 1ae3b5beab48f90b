#include "core/alternative_selector.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "baselines/batching_exec.h"

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

/// Approximate uploaded bytes per parameter-table cell (row id or one
/// parameter value).
constexpr double kParamCellBytes = 16.0;

/// The literal query of `executeQuery("...", ...)`, or null.
const std::string* LiteralQuery(const Expr* e) {
  if (e == nullptr || e->kind() != ExprKind::kCall ||
      e->name() != "executeQuery" || e->args().empty() ||
      e->arg(0)->kind() != ExprKind::kStringLit) {
    return nullptr;
  }
  return &e->arg(0)->string_value();
}

std::string WorkDetail(const net::Work& w) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%.0f round trip(s), %.1f KB, %.0f client statement(s)",
                w.round_trips, w.bytes / 1024, w.client_statements);
  return buf;
}

/// The pricing walk: the bill one run of a function would produce,
/// computed from estimated cardinalities. Every executed statement bills
/// one client op (Interpreter::ExecStmt), every executeQuery /
/// executeUpdate site bills its statement, and a statement counts as
/// often as it is estimated to execute. Calls into other functions of
/// the program bill only the calling statement. With `batching`, each
/// cursor loop the batching rewrite accepts (AnalyzeForEach, resolving
/// probes through the selector's resolver) is billed as the
/// interpreter's batching mode runs it: one parameter-table upload and
/// one join per probe site, the probes then served from the joined
/// rows. Query estimates are kept across walks, so each SQL text
/// resolves once per selection through the selector's resolver (which
/// keeps cached parses cached).
class Pricer {
 public:
  Pricer(const CostEstimator& estimator,
         const AlternativeSelector::PlanResolver& resolve)
      : estimator_(estimator), resolve_(resolve) {}

  net::Work Price(const frontend::Function& fn, bool batching) {
    batching_ = batching;
    work_ = net::Work();
    cursor_sql_.clear();
    served_.clear();
    declined_.clear();
    Block(fn.body, 1);
    return work_;
  }
  /// Probe sites the last walk batched.
  size_t batched_sites() const { return served_.size(); }
  /// Why the last batching walk batched nothing: the first cursor
  /// loop's reason for declining.
  std::string declined() const {
    return declined_.empty() ? "no cursor loop" : declined_;
  }

 private:
  void Block(const std::vector<StmtPtr>& stmts, double times) {
    for (const StmtPtr& s : stmts) Statement(*s, times);
  }

  void Statement(const Stmt& s, double times) {
    work_.client_statements += times;
    Sites(s.expr().get(), times);
    switch (s.kind()) {
      case StmtKind::kAssign:
        if (const std::string* sql = LiteralQuery(s.expr().get())) {
          cursor_sql_[s.target()] = sql;
        } else {
          cursor_sql_.erase(s.target());
        }
        break;
      case StmtKind::kIf:
        // Both branches count: the walk does not know which one runs.
        Block(s.body(), times);
        Block(s.else_body(), times);
        break;
      case StmtKind::kWhile:
        // A loop whose trip count the walk cannot estimate counts once.
        Block(s.body(), times);
        break;
      case StmtKind::kForEach: {
        const double trips = TripCount(s.expr().get());
        cursor_sql_.erase(s.target());
        if (batching_) Batch(s, times, trips);
        Block(s.body(), times * trips);
        break;
      }
      default:
        break;
    }
  }

  /// Bills every query site under `root`, each executed `times` times.
  /// SQL that does not resolve (DML, dynamic text) bills one round trip
  /// and one statement.
  void Sites(const Expr* root, double times) {
    if (root != nullptr) stack_.push_back(root);
    while (!stack_.empty()) {
      const Expr* e = stack_.back();
      stack_.pop_back();
      if (e->object() != nullptr) stack_.push_back(e->object().get());
      for (const ExprPtr& a : e->args()) stack_.push_back(a.get());
      if (e->kind() != ExprKind::kCall ||
          (e->name() != "executeQuery" && e->name() != "executeUpdate") ||
          served_.count(e) > 0) {
        continue;
      }
      const std::string* sql = LiteralQuery(e);
      const CostEstimate* est = sql != nullptr ? Estimate(*sql) : nullptr;
      work_ += est != nullptr
                   ? est->work.Times(times)
                   : net::Work{.round_trips = times, .statements = times};
    }
  }

  /// Estimated rows of the query a foreach iterates: a literal query in
  /// the loop header or one assigned to the iterated variable earlier.
  /// Any other iterable's trip count is unknown, and the body counts
  /// once.
  double TripCount(const Expr* iterable) {
    const std::string* sql = LiteralQuery(iterable);
    if (sql == nullptr && iterable != nullptr &&
        iterable->kind() == ExprKind::kVarRef) {
      auto it = cursor_sql_.find(iterable->name());
      if (it != cursor_sql_.end()) sql = it->second;
    }
    const CostEstimate* est = sql != nullptr ? Estimate(*sql) : nullptr;
    return est != nullptr ? est->cardinality : 1.0;
  }

  /// Bills `loop` as batched when the batching rewrite accepts it: per
  /// execution, an upload of one row id plus each site's parameters per
  /// cursor row, then one join with the inner table per probe site.
  void Batch(const Stmt& loop, double times, double trips) {
    const baselines::BatchPlan plan =
        baselines::AnalyzeForEach(loop, resolve_);
    if (plan.sites.empty()) {
      if (declined_.empty()) declined_ = plan.declined;
      return;
    }
    const double cells = static_cast<double>(1 + plan.param_columns);
    work_ += net::Work{.round_trips = 1,
                       .uploads = 1,
                       .bytes = trips * kParamCellBytes * cells}
                 .Times(times);
    for (const baselines::BatchSite& site : plan.sites) {
      const CostEstimator::NodeEstimate inner =
          estimator_.EstimateScan(site.inner_table);
      work_ += net::Work{.round_trips = 1,
                         .statements = 1,
                         .bytes = trips * inner.row_bytes,
                         .server_rows = inner.rows + trips}
                   .Times(times);
      served_.insert(site.call);
    }
  }

  /// Null when the SQL does not resolve to a plan.
  const CostEstimate* Estimate(const std::string& sql) {
    auto it = std::find_if(estimates_.begin(), estimates_.end(),
                           [&](const auto& e) { return e.first == &sql; });
    if (it == estimates_.end()) {
      Result<ra::RaNodePtr> plan = resolve_(sql);
      it = estimates_.emplace(estimates_.end(), &sql, std::nullopt);
      if (plan.ok()) it->second = estimator_.EstimateQuery(*plan);
    }
    return it->second.has_value() ? &*it->second : nullptr;
  }

  const CostEstimator& estimator_;
  const AlternativeSelector::PlanResolver& resolve_;
  /// Keyed by the SQL literal in the program text.
  std::vector<std::pair<const std::string*, std::optional<CostEstimate>>>
      estimates_;
  // The current walk.
  bool batching_ = false;
  net::Work work_;
  std::string declined_;
  /// Variable -> the literal query last assigned to it.
  std::unordered_map<std::string_view, const std::string*> cursor_sql_;
  /// Probe sites a batched loop serves from its joined rows.
  std::unordered_set<const Expr*> served_;
  std::vector<const Expr*> stack_;  // Sites' work list
};

/// Annotates extracted variables with the index-nested-loop join the
/// executor will run, priced against the hash join under the same stats
/// snapshot the alternatives are priced with. A no-op while no table
/// has a secondary index.
void AnnotateJoinPlans(const CostEstimator& estimator,
                       const AlternativeSelector::PlanResolver& resolve,
                       OptimizeResult* result) {
  if (estimator.stats().table_indexes.empty()) return;
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
  Pricer pricer(estimator_, resolve);
  auto priced = [&](PlanAlternative* alt, const net::Work& work) {
    alt->feasible = true;
    alt->est_cost_ms = estimator_.model().Ms(work);
    alt->detail = WorkDetail(work);
  };
  const char* const kNoOriginal = "original function unavailable";

  // --- extracted-sql: the rewritten function as it runs.
  PlanAlternative extracted;
  extracted.kind = AlternativeKind::kExtractedSql;
  const frontend::Function* rewritten =
      optimized != nullptr && original != nullptr
          ? optimized->program.Find(original->name)
          : nullptr;
  if (optimized == nullptr || !optimized->any_extracted()) {
    extracted.skip_reason = "nothing extracted";
    if (optimized != nullptr) {
      for (const VarOutcome& o : optimized->outcomes) {
        if (!o.extracted && !o.reason.empty()) {
          extracted.skip_reason = o.reason;
          break;
        }
      }
    }
  } else if (rewritten == nullptr) {
    extracted.skip_reason = kNoOriginal;
  } else {
    priced(&extracted, pricer.Price(*rewritten, /*batching=*/false));
  }

  // --- batching: the original with its batchable loops batched.
  PlanAlternative batching;
  batching.kind = AlternativeKind::kBatching;
  if (original == nullptr) {
    batching.skip_reason = kNoOriginal;
  } else {
    const net::Work work = pricer.Price(*original, /*batching=*/true);
    if (pricer.batched_sites() > 0) {
      priced(&batching, work);
      batching.detail = std::to_string(pricer.batched_sites()) +
                        " probe site(s) batched, " + batching.detail;
    } else {
      batching.skip_reason = pricer.declined();
    }
  }

  // --- interpreted: the original as written. Always feasible.
  PlanAlternative interp;
  interp.kind = AlternativeKind::kInterpreted;
  interp.feasible = true;
  if (original == nullptr) {
    interp.detail = kNoOriginal;
  } else {
    priced(&interp, pricer.Price(*original, /*batching=*/false));
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
    AnnotateJoinPlans(estimator_, resolve, &annotated);
    plan.optimized =
        std::make_shared<const OptimizeResult>(std::move(annotated));
  }
  return plan;
}

}  // namespace eqsql::core
