#ifndef EQSQL_BENCH_BENCH_UTIL_H_
#define EQSQL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace eqsql::bench {

/// Aborts the benchmark with a message when a setup step fails —
/// benchmarks have no meaningful fallback.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    EQSQL_LOG(Error, "%s: %s", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    EQSQL_LOG(Error, "%s: %s", what, result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Build provenance, injected by bench/CMakeLists.txt at configure time
// (git SHA of the source tree, CMake preset the binary was built with).
#ifndef EQSQL_GIT_SHA
#define EQSQL_GIT_SHA "unknown"
#endif
#ifndef EQSQL_BUILD_PRESET
#define EQSQL_BUILD_PRESET "unknown"
#endif

/// The "provenance" object embedded in every bench --json artifact, so
/// a BENCH_*.json number can always be traced back to the commit,
/// build configuration, engine, and sharding that produced it.
/// `exec_mode` names the engine ("vector", the executor's one engine).
inline std::string ProvenanceJson(const char* exec_mode,
                                  size_t shard_count) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"git_sha\":\"%s\",\"build_preset\":\"%s\","
                "\"exec_mode\":\"%s\",\"shard_count\":%zu}",
                EQSQL_GIT_SHA, EQSQL_BUILD_PRESET, exec_mode, shard_count);
  return buf;
}

}  // namespace eqsql::bench

#endif  // EQSQL_BENCH_BENCH_UTIL_H_
