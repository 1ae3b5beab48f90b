#ifndef EQSQL_INTERP_INTERPRETER_H_
#define EQSQL_INTERP_INTERPRETER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "frontend/ast.h"
#include "interp/value.h"
#include "net/api.h"

namespace eqsql::interp {

/// A tree-walking interpreter for ImpLang programs.
///
/// Queries execute through a net::Client — either a raw net::Connection
/// (direct, caller-thread execution) or a net::Session (every statement
/// goes through the server's scheduler) — so running a program also
/// accumulates the simulated cost-model statistics (round trips, bytes,
/// simulated time) that the benchmark harness reports. Prints are
/// captured into `printed()` in order — the equivalence tests compare
/// printed output and return values between the original and rewritten
/// programs.
///
/// Builtins: executeQuery, executeUpdate, scalar, max, min, abs,
/// coalesce, list, set, pair/tuple, concat. max/min ignore NULL
/// arguments (Java's Math.max never sees SQL NULLs; this also makes the
/// T6 rewrite max(init, MAX-query) exact on empty inputs).
///
/// Each function is bound once per interpreter, on its first call:
/// variables become frame slots, call and method names become builtin
/// tags or resolved functions, and every `t.col` site gets a one-entry
/// schema → column cache. The AST is not annotated (its nodes are shared
/// with rewritten programs); the bound form lives here, so `program`
/// must outlive the interpreter and stay unchanged.
class Interpreter {
 public:
  Interpreter(const frontend::Program* program, net::Client* client);
  ~Interpreter();

  /// Runs `function` with scalar arguments; returns its return value
  /// (NULL scalar if the function does not return).
  Result<RtValue> Run(const std::string& function,
                      std::vector<RtValue> args = {});

  /// Enables the batching baseline executor [11]: a query-backed foreach
  /// whose probe sites pass baselines::AnalyzeForEach (probes parsed
  /// with sql::ParseSql) uploads the session's parameter table
  /// (baselines::kParamTable), runs each probe once as the set-oriented
  /// join the analysis built from its plan, rendered with
  /// sql::GenerateSql, and serves per-iteration results from the
  /// demultiplexed row groups. Any failure along the way — a
  /// client without temp-table support, a parameter that will not
  /// evaluate, a rewritten query the engine rejects — falls back to
  /// plain row-at-a-time iteration for that loop, so enabling this never
  /// changes which programs run, only how their loops execute.
  void set_batching(bool on) { batching_ = on; }
  bool batching() const { return batching_; }

  const std::vector<std::string>& printed() const { return printed_; }
  void ClearOutput() { printed_.clear(); }

 private:
  struct BoundExpr;
  struct BoundStmt;
  struct BoundFunction;
  class Binder;
  struct Cursor;

  /// One call's variables by slot; empty until first assigned.
  using Frame = std::vector<std::optional<RtValue>>;

  enum class Signal { kNone, kBreak, kReturn };

  /// Prefetched probe results for one batched loop: per call site, the
  /// joined rows demultiplexed by uploaded row id. `rid` tracks the
  /// current iteration while the loop body executes; executeQuery serves
  /// `sites[call][rid]` instead of a round trip.
  struct BatchOverlay {
    std::map<const frontend::Expr*,
             std::vector<std::shared_ptr<const ResultSetObject>>>
        sites;
    size_t rid = 0;
  };

  /// Calls `program_->functions[index]`, binding it on first use.
  Result<RtValue> Call(size_t index, std::vector<RtValue> args);
  Result<Signal> ExecBlock(const std::vector<BoundStmt>& stmts,
                           Frame* frame, RtValue* ret);
  Result<Signal> ExecStmt(const BoundStmt& stmt, Frame* frame, RtValue* ret);
  Result<Signal> ExecForEach(const BoundStmt& loop, Frame* frame,
                             RtValue* ret);
  Result<RtValue> Eval(const BoundExpr& expr, Frame* frame);
  /// Evaluates `expr` for a caller that only reads the value: a
  /// variable's slot and a literal's bound value come back in place;
  /// anything else is evaluated into `*scratch`.
  Result<const RtValue*> Read(const BoundExpr& expr, Frame* frame,
                              RtValue* scratch);
  /// Reads the field at `expr` (a kFieldAccess) in place. The row's
  /// result set stays alive in its slot or in `*holder`.
  Result<const catalog::Value*> Field(const BoundExpr& expr, Frame* frame,
                                      RtValue* holder);
  Result<RtValue> EvalCall(const BoundExpr& call, Frame* frame);
  Result<RtValue> EvalMethod(const BoundExpr& call, Frame* frame);
  Result<catalog::Value> EvalScalarArg(const BoundExpr& expr, Frame* frame);

  /// Attempts set-oriented prefetch for one foreach over `elements`.
  /// On success pushes an overlay onto `overlays_` and returns true; on
  /// ANY failure returns false with no overlay installed. Either way the
  /// parameter table is dropped before returning, so the caller can
  /// iterate plainly and at most one is live per session.
  bool TryBatchForEach(const frontend::Stmt& loop, const Cursor& elements);

  const frontend::Program* program_;
  net::Client* client_;
  std::vector<std::string> printed_;
  int call_depth_ = 0;
  bool batching_ = false;
  std::vector<BatchOverlay> overlays_;
  /// Per program function, its bound form once called.
  std::vector<std::unique_ptr<BoundFunction>> bound_;
};

}  // namespace eqsql::interp

#endif  // EQSQL_INTERP_INTERPRETER_H_
