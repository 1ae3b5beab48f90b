#ifndef EQSQL_EXEC_EXEC_MODE_H_
#define EQSQL_EXEC_EXEC_MODE_H_

namespace eqsql::exec {

/// The executor has one engine (exec/executor.h). This enum, its name and
/// net::ServerOptions::exec_mode remain only because the wall-clock
/// benchmark still prints the engine in its provenance line; nothing
/// selects an engine.
enum class ExecMode { kVector };

inline const char* ExecModeName(ExecMode) { return "vector"; }

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXEC_MODE_H_
