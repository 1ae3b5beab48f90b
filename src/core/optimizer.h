#ifndef EQSQL_CORE_OPTIMIZER_H_
#define EQSQL_CORE_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/loop_analysis.h"
#include "common/result.h"
#include "frontend/ast.h"
#include "rules/transform.h"
#include "sql/generator.h"

namespace eqsql::obs {
class MetricsRegistry;
}  // namespace eqsql::obs

namespace eqsql::core {

/// Options for a full optimization run.
struct OptimizeOptions {
  rules::TransformOptions transform;
  /// Dialect used for the *reported* SQL (the rewritten program always
  /// embeds the round-trippable kDefault dialect).
  sql::Dialect dialect = sql::Dialect::kDefault;
  /// When set, Optimize records extraction counters (rules fired,
  /// P1-P3 verdicts, cost-heuristic skips) into this registry. NOT part
  /// of the plan-cache fingerprint: metrics wiring must not change
  /// cache identity (see OptionsFingerprint in plan_cache.cc).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome for one (loop, variable) extraction attempt.
struct VarOutcome {
  std::string var;
  bool extracted = false;
  std::vector<std::string> sql;  // queries embedded in the replacement
  std::string reason;            // failure reason when !extracted
  /// Transformation rules applied while lifting this variable ("T1",
  /// "T5.1", ..., "ARGMAX" for the App. B extension). Populated even
  /// when the Sec. 5.3 cost heuristic later declines the extraction;
  /// the fuzz harness uses this for rule-coverage accounting.
  std::vector<std::string> rules;

  // --- EXPLAIN EXTRACTION payload (obs::RenderExplain*) ---
  /// Source line of the defining loop and a one-line rendering of its
  /// header ("for t in executeQuery(...)").
  int loop_line = 0;
  std::string loop_desc;
  /// True when the loop iterated a query result (P1-P3 were evaluated).
  bool query_backed = false;
  /// Per-precondition verdicts with offending DDG edges on failure.
  analysis::PreconditionReport preconditions;
  /// True when conversion succeeded but the Sec. 5.3 cost heuristic
  /// declined the extraction (nothing of the slice was exclusively
  /// removable, so the loop stays and the query would only add cost).
  bool cost_skipped = false;
  /// Physical plan of the first indexable equi-join in the extracted
  /// SQL, annotated at EXPLAIN time against live table and index stats
  /// (net::Scheduler). Empty when no secondary index applies; the
  /// executor then runs a hash join. Both alternatives' estimated costs
  /// ride along so the report shows the hash join's next to the index's.
  std::string join_plan;       // "index-nested-loop on " + site
  double cost_index_ms = 0.0;
  double cost_scan_ms = 0.0;
};

/// Result of optimizing one function.
struct OptimizeResult {
  frontend::Program program;  // rewritten program (all functions)
  /// The program as parsed, before rewriting, when the producer kept
  /// its parse (PlanCache::GetOrOptimize does): cost-based selection
  /// probes the original loop shapes here instead of parsing again.
  /// Shared, so copies of the result do not copy the program.
  std::shared_ptr<const frontend::Program> original;
  bool changed = false;
  std::vector<VarOutcome> outcomes;
  /// Wall-clock time spent on analysis + transformation + rewriting.
  double extraction_ms = 0.0;

  /// True if at least one variable was extracted.
  bool any_extracted() const {
    for (const VarOutcome& o : outcomes) {
      if (o.extracted) return true;
    }
    return false;
  }
};

/// Result of keyword-search query extraction (paper Experiment 3).
struct KeywordSearchResult {
  /// True when every piece of printed data is covered by extracted
  /// queries (no fold/loop/opaque residue).
  bool complete = false;
  std::vector<std::string> queries;
};

/// The EqSQL optimizer (the paper's primary contribution, Fig. 1):
/// source program -> D-IR -> F-IR -> rule-based transformation ->
/// equivalent SQL -> rewritten program with dead code removed.
class EqSqlOptimizer {
 public:
  explicit EqSqlOptimizer(OptimizeOptions options)
      : options_(std::move(options)) {}

  /// Optimizes `function` inside `program`. Extraction is per variable:
  /// variables whose loops cannot be converted keep their original
  /// imperative code (partial optimization, paper Sec. 7.1).
  Result<OptimizeResult> Optimize(const frontend::Program& program,
                                  const std::string& function);

  /// Extracts the set of queries that retrieve exactly the data printed
  /// by `function` (keyword-search mode: ordering-insensitive, paper
  /// Experiment 3).
  Result<KeywordSearchResult> ExtractQueriesForKeywordSearch(
      const frontend::Program& program, const std::string& function);

 private:
  OptimizeOptions options_;
};

}  // namespace eqsql::core

#endif  // EQSQL_CORE_OPTIMIZER_H_
