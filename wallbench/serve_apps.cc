#include "wallbench/serve_apps.h"

#include <utility>

#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "workloads/benchmark_apps.h"
#include "workloads/wilos_samples.h"

namespace wallbench {

namespace {

using eqsql::Result;
using eqsql::Status;
using eqsql::catalog::DataType;
using eqsql::catalog::Schema;
using eqsql::catalog::Value;

/// A string fold over a per-row point probe: full extraction refuses
/// the shape, so the selector weighs batching against interpretation.
constexpr char kBatchFoldSource[] = R"(
func fold() {
  s = "";
  rows = executeQuery("SELECT * FROM t0 AS a");
  for (a : rows) {
    x = scalar(executeQuery(
        "SELECT b.u AS u FROM t1 AS b WHERE b.id = ?", a.fk));
    s = concat(s, pair(a.name, x));
  }
  return s;
}
)";

/// t0(id, fk, name) with `rows` rows probing t1(id, u) of rows/4 + 1.
Status SetupBatchFoldDatabase(eqsql::storage::Database* db, int rows) {
  EQSQL_ASSIGN_OR_RETURN(
      eqsql::storage::Table * t0,
      db->CreateTable("t0", Schema({{"id", DataType::kInt64},
                                    {"fk", DataType::kInt64},
                                    {"name", DataType::kString}})));
  EQSQL_ASSIGN_OR_RETURN(
      eqsql::storage::Table * t1,
      db->CreateTable("t1", Schema({{"id", DataType::kInt64},
                                    {"u", DataType::kInt64}})));
  const int inner = rows / 4 + 1;
  for (int64_t i = 0; i < inner; ++i) {
    EQSQL_RETURN_IF_ERROR(t1->Insert({Value::Int(i), Value::Int(i * 7)}));
  }
  EQSQL_RETURN_IF_ERROR(t1->DeclareUniqueKey("id"));
  for (int64_t i = 0; i < rows; ++i) {
    EQSQL_RETURN_IF_ERROR(
        t0->Insert({Value::Int(i), Value::Int(i % inner),
                    Value::String("n" + std::to_string(i))}));
  }
  return t0->DeclareUniqueKey("id");
}

}  // namespace

Result<std::vector<ServeApp>> MakeServeApps(bool with_batchfold) {
  namespace wl = eqsql::workloads;
  std::vector<ServeApp> apps = {
      {"matoso", wl::MatosoProgram(), "findMaxScore", {}, {}},
      {"jobportal", wl::JobPortalProgram(), "jobReport", {}, {}},
      {"selection", wl::SelectionProgram(), "unfinished", {}, {}},
      {"join", wl::JoinProgram(), "userRoles", {}, {}},
  };
  if (with_batchfold) {
    apps.push_back({"batchfold", kBatchFoldSource, "fold", {}, {}});
  }
  for (ServeApp& app : apps) {
    EQSQL_ASSIGN_OR_RETURN(app.original,
                           eqsql::frontend::ParseProgram(app.source));
  }
  return apps;
}

eqsql::net::ServerOptions ServeServerOptions() {
  eqsql::net::ServerOptions options;
  options.optimize.transform.table_keys = eqsql::workloads::WilosTableKeys();
  options.optimize.transform.table_keys.insert(
      {{"wilosuser", "id"}, {"t0", "id"}, {"t1", "id"}});
  return options;
}

Status SetupServeDatabase(eqsql::storage::Database* db, bool with_batchfold) {
  namespace wl = eqsql::workloads;
  EQSQL_RETURN_IF_ERROR(wl::SetupMatosoDatabase(db, kBoardRows, 4));
  EQSQL_RETURN_IF_ERROR(wl::SetupJobPortalDatabase(db, kApplicants));
  EQSQL_RETURN_IF_ERROR(wl::SetupSelectionDatabase(db, kProjectRows, 20));
  EQSQL_RETURN_IF_ERROR(wl::SetupJoinDatabase(db, kUsers));
  if (with_batchfold) {
    EQSQL_RETURN_IF_ERROR(SetupBatchFoldDatabase(db, kFoldRows));
  }
  return Status::OK();
}

Result<Answer> ReferenceAnswer(eqsql::storage::Database* db,
                               const ServeApp& app) {
  eqsql::net::Connection conn(db);
  eqsql::interp::Interpreter interp(&app.original, &conn);
  EQSQL_ASSIGN_OR_RETURN(eqsql::interp::RtValue value,
                         interp.Run(app.function));
  return Answer{value.DisplayString(), interp.printed()};
}

}  // namespace wallbench
