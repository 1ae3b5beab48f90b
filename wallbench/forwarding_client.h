// The interpreter's net::Client in every served request. It forwards
// each call to a Session unchanged, counts the calls, and records a
// span around each while tracing. It is the only outside view of how
// much of a request the interpreter spends in its own loop.
#ifndef WALLBENCH_FORWARDING_CLIENT_H_
#define WALLBENCH_FORWARDING_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "net/api.h"
#include "net/server.h"
#include "wallbench/span_log.h"

namespace wallbench {

class ForwardingClient : public eqsql::net::Client {
 public:
  ForwardingClient(eqsql::net::Session* session, SpanLog* spans)
      : session_(session), spans_(spans) {}

  eqsql::net::Outcome Perform(eqsql::net::Request req) override {
    ++performs_;
    ScopedSpan span(spans_, "net.Perform");
    return session_->Perform(std::move(req));
  }

  void ChargeClientOps(int64_t ops) override {
    session_->ChargeClientOps(ops);
  }

  eqsql::Status CreateTempTable(const std::string& name,
                                eqsql::catalog::Schema schema,
                                std::vector<eqsql::catalog::Row> rows)
      override {
    ScopedSpan span(spans_, "baselines.CreateTempTable");
    eqsql::Status status =
        session_->CreateTempTable(name, std::move(schema), std::move(rows));
    if (status.ok()) ++temp_tables_;
    return status;
  }

  void DropTempTable(const std::string& name) override {
    ScopedSpan span(spans_, "baselines.DropTempTable");
    session_->DropTempTable(name);
  }

  /// Statements performed and parameter tables uploaded so far.
  int64_t performs() const { return performs_; }
  int64_t temp_tables() const { return temp_tables_; }

 private:
  eqsql::net::Session* session_;
  SpanLog* spans_;
  int64_t performs_ = 0;
  int64_t temp_tables_ = 0;
};

}  // namespace wallbench

#endif  // WALLBENCH_FORWARDING_CLIENT_H_
