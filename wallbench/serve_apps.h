// The applications the serve workloads run, the tables they read, and
// their reference answers.
#ifndef WALLBENCH_SERVE_APPS_H_
#define WALLBENCH_SERVE_APPS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "frontend/ast.h"
#include "net/server.h"
#include "storage/database.h"

namespace wallbench {

/// Table sizes. board and project sit above the executor's 512-row
/// parallel threshold; applicants, wilosuser and t0 sit below it.
constexpr int kBoardRows = 5000;
constexpr int kProjectRows = 5000;
constexpr int kApplicants = 500;
constexpr int kUsers = 500;
constexpr int kFoldRows = 500;

/// A program's observable answer: its return value and printed lines.
struct Answer {
  std::string result;
  std::vector<std::string> printed;

  bool operator==(const Answer& other) const {
    return result == other.result && printed == other.printed;
  }
};

/// One served application.
struct ServeApp {
  std::string name;
  std::string source;
  std::string function;
  eqsql::frontend::Program original;  // `source`, parsed
  /// Interpreting `original` over a direct Connection at set-up: no
  /// extraction, scheduler or batching is involved in producing it.
  Answer reference;
};

/// matoso (Fig. 10), jobportal (Fig. 11), selection (Fig. 8) and join
/// (Fig. 9), plus `batchfold` when `with_batchfold`: the string fold of
/// bench_fig8_selection's selection phase, which the selector runs with
/// the batching rewrite. Sources are parsed; references are not set.
eqsql::Result<std::vector<ServeApp>> MakeServeApps(bool with_batchfold);

/// Server defaults plus the key columns of every served table.
eqsql::net::ServerOptions ServeServerOptions();

/// Creates and fills every app's tables at the sizes above.
eqsql::Status SetupServeDatabase(eqsql::storage::Database* db,
                                 bool with_batchfold);

/// Interprets `app.original` over a fresh direct Connection to `db`.
eqsql::Result<Answer> ReferenceAnswer(eqsql::storage::Database* db,
                                      const ServeApp& app);

}  // namespace wallbench

#endif  // WALLBENCH_SERVE_APPS_H_
