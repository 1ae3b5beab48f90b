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
/// validated against `stats_epoch` -- a change to a priced statistic (a
/// table's committed rows or bytes, its ready indexes) moves the
/// database's stats epoch, invalidating the entry so the winner can
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
/// model, and inputs yield an identical plan.
class AlternativeSelector {
 public:
  /// Resolves SQL text to a relational-algebra plan — the net layer
  /// passes PlanCache::GetOrParseSql so repeated selection never
  /// re-parses.
  using PlanResolver = std::function<Result<ra::RaNodePtr>(const std::string&)>;

  AlternativeSelector(TableStats stats, net::CostModel model)
      : estimator_(std::move(stats), model) {}

  /// Prices extraction, batching, and the interpreted original for
  /// `function` and picks the cheapest feasible strategy. Each strategy
  /// is priced as the bill its run would produce: one pricing walk over
  /// the program it runs (the rewritten function for extraction, the
  /// original for the other two), with every query priced by the
  /// estimator and every executed statement as one client op.
  /// `original` is the pre-rewrite function; its name also picks the
  /// rewritten function out of `optimized->program`. Null is tolerated:
  /// with no program to walk, only the interpreted original is
  /// feasible. The returned plan owns a join-plan-annotated copy of
  /// `optimized`.
  ExtractionPlan Select(std::shared_ptr<const OptimizeResult> optimized,
                        const frontend::Function* original,
                        const PlanResolver& resolve,
                        uint64_t stats_epoch) const;

 private:
  CostEstimator estimator_;
};

}  // namespace eqsql::core

#endif  // EQSQL_CORE_ALTERNATIVE_SELECTOR_H_
