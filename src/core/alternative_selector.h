#ifndef EQSQL_CORE_ALTERNATIVE_SELECTOR_H_
#define EQSQL_CORE_ALTERNATIVE_SELECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cost_estimator.h"
#include "core/optimizer.h"
#include "frontend/ast.h"
#include "net/cost_model.h"
#include "ra/ra_node.h"

namespace eqsql::core {

/// The competing execution strategies for one ImpLang program (Cobra:
/// Emani & Sudarshan — cost-based rewriting treats rewrites as
/// alternatives, not obligations).
enum class AlternativeKind {
  kExtractedSql,  // full SQL extraction (the paper's rewrite)
  kBatching,      // parameter-table batching rewrite [11]
  kInterpreted,   // the original imperative loop, per-row round trips
};

const char* AlternativeKindName(AlternativeKind kind);

/// One priced (or declined) strategy.
struct PlanAlternative {
  AlternativeKind kind = AlternativeKind::kInterpreted;
  /// True when the strategy can actually execute this program. An
  /// infeasible alternative carries `skip_reason` and no cost.
  bool feasible = false;
  double est_cost_ms = 0.0;
  bool chosen = false;
  /// Short account of the estimate's inputs (round trips, rows, probe
  /// sites) so EXPLAIN can show where the number came from.
  std::string detail;
  std::string skip_reason;
};

/// The full selection result for one program: the join-plan-annotated
/// extraction outcome plus every alternative ranked by estimated cost
/// (feasible ones first, cheapest first; the chosen one leads).
/// Cached by core::PlanCache keyed on (source, function, options) and
/// validated against `stats_epoch` — table growth or new indexes bump
/// the database's stats epoch, invalidating the entry so the winner can
/// flip as data changes.
struct ExtractionPlan {
  std::shared_ptr<const OptimizeResult> optimized;
  std::vector<PlanAlternative> alternatives;
  AlternativeKind chosen = AlternativeKind::kInterpreted;
  uint64_t stats_epoch = 0;

  const PlanAlternative* Find(AlternativeKind kind) const;
};

/// Enumerates and prices the alternatives for one optimized program
/// against live table statistics. Pure and deterministic: equal stats,
/// model, and inputs yield an identical plan, so selection can never
/// perturb the cost-parity contract (it only reads VisibleStats).
class AlternativeSelector {
 public:
  /// Resolves SQL text to a relational-algebra plan — the net layer
  /// passes PlanCache::GetOrParseSql so repeated selection never
  /// re-parses.
  using PlanResolver = std::function<Result<ra::RaNodePtr>(const std::string&)>;

  AlternativeSelector(TableStats stats, net::CostModel model)
      : stats_(std::move(stats)),
        estimator_(stats_, model),
        model_(model) {}

  /// Prices extraction, batching, and the interpreted original for
  /// `function` and picks the cheapest feasible strategy. `original`
  /// is the pre-rewrite function (loop shape + probe sites); null is
  /// tolerated and prices extraction vs. a defaulted loop. The returned
  /// plan owns a join-plan-annotated copy of `optimized`.
  ExtractionPlan Select(std::shared_ptr<const OptimizeResult> optimized,
                        const frontend::Function* original,
                        const PlanResolver& resolve,
                        uint64_t stats_epoch) const;

 private:
  TableStats stats_;
  CostEstimator estimator_;
  net::CostModel model_;
};

}  // namespace eqsql::core

#endif  // EQSQL_CORE_ALTERNATIVE_SELECTOR_H_
