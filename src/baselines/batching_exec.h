#ifndef EQSQL_BASELINES_BATCHING_EXEC_H_
#define EQSQL_BASELINES_BATCHING_EXEC_H_

#include <string>
#include <vector>

#include "frontend/ast.h"

namespace eqsql::baselines {

/// One parameterized query site inside a batchable cursor loop: an
/// `executeQuery("... ?", args...)` call whose arguments depend only on
/// the loop variable. The batching rewrite [11] uploads one parameter
/// row per cursor row and replaces the per-row probe with a single
/// set-oriented join against the parameter table, demultiplexing the
/// joined rows back to iterations by the uploaded row id.
struct BatchSite {
  const frontend::Expr* call = nullptr;   // the executeQuery call node
  std::string sql;                        // original parameterized text
  std::vector<frontend::ExprPtr> params;  // arg exprs after the SQL literal
  std::string batched_sql;                // set-oriented rewrite
  std::string inner_table;                // probed table (stats lookup)
  size_t param_offset = 0;  // index of this site's first parameter column
};

/// A cursor loop the batching baseline can execute set-at-a-time.
/// `sites` empty means the loop is not batchable (no parameterized
/// probe, an impure parameter, DML or an unknown call in the body, or a
/// probe whose SQL shape the textual rewrite cannot handle).
struct BatchPlan {
  std::string loop_var;
  std::vector<BatchSite> sites;
  size_t param_columns = 0;  // total parameter columns across sites
};

/// Analyzes one kForEach statement for batchability. Sites are
/// collected from the loop body and its if-branches but not from nested
/// loops (those batch themselves when executed); the whole body is
/// still scanned for disqualifiers (executeUpdate, calls to non-builtin
/// functions) because a prefetched result must not observe writes the
/// body performs. `param_table` names the temp table the rewritten
/// queries join against (aliased `__p` inside the generated SQL).
BatchPlan AnalyzeForEach(const frontend::Stmt& loop,
                         const std::string& param_table);

}  // namespace eqsql::baselines

#endif  // EQSQL_BASELINES_BATCHING_EXEC_H_
