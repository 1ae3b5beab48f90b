#ifndef EQSQL_EXEC_EXEC_MODE_H_
#define EQSQL_EXEC_EXEC_MODE_H_

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
///    tests/vector_exec_test.cc and the fuzzer's row-engine oracle);
///    only speed differs.
///
/// The server stack runs kVector (ServerOptions::exec_mode). kRow is
/// selected in code only: by tests, the benches' row-vs-vector
/// comparisons and the fuzzer's oracle, through
/// Executor/Connection::set_exec_mode, ServerOptions::exec_mode and
/// OracleOptions::exec_mode. A bare Executor/Connection defaults to it
/// so the reference stays directly testable.
enum class ExecMode {
  kRow,
  kVector,
};

inline const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kRow ? "row" : "vector";
}

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXEC_MODE_H_
