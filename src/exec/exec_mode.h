#ifndef EQSQL_EXEC_EXEC_MODE_H_
#define EQSQL_EXEC_EXEC_MODE_H_

#include <cstdlib>
#include <optional>
#include <string_view>

namespace eqsql::exec {

/// Which execution engine the Executor runs.
///
///  * kRow: the serial reference engine — the original row-at-a-time
///    interpreter, one EvalScalar dispatch per expression node per row,
///    column lookup by name, never fanned out over the worker pool. It
///    is what the differential tests and the fuzzer's original-program
///    run compare against, and the per-operator fallback for what the
///    batch compiler cannot handle.
///  * kVector: batch-at-a-time columnar execution (see exec/batch.h) —
///    scans materialize kBatchCapacity-row chunks per shard, predicates
///    and projections are compiled to positional form and evaluated one
///    dispatch per batch, and large sharded scans run their shard tasks
///    on the worker pool. Results, error selection, and cost accounting
///    are byte-identical to kRow (proven differentially by
///    tests/vector_exec_test.cc and the fuzzer's --exec-mode oracle);
///    only speed differs.
enum class ExecMode {
  kRow,
  kVector,
};

inline const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kRow ? "row" : "vector";
}

/// Parses "row" / "vector" (nullopt otherwise).
inline std::optional<ExecMode> ParseExecMode(std::string_view name) {
  if (name == "row") return ExecMode::kRow;
  if (name == "vector") return ExecMode::kVector;
  return std::nullopt;
}

/// The server-stack default: vector, overridable per process with
/// EQSQL_EXEC_MODE=row|vector (row runs the serial reference engine).
/// A bare Executor/Connection still defaults to kRow so the reference
/// stays directly testable.
inline ExecMode DefaultExecMode() {
  const char* env = std::getenv("EQSQL_EXEC_MODE");
  if (env != nullptr) {
    std::optional<ExecMode> parsed = ParseExecMode(env);
    if (parsed.has_value()) return *parsed;
  }
  return ExecMode::kVector;
}

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXEC_MODE_H_
