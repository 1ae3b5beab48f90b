#include "net/server.h"

#include <thread>
#include <utility>

#include "common/strings.h"
#include "core/alternative_selector.h"
#include "net/scheduler.h"
#include "net/table_stats.h"
#include "obs/explain.h"

namespace eqsql::net {

namespace {

size_t ResolveExecThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      db_(options_.database),
      plan_cache_(options_.plan_cache_capacity),
      pool_(ResolveExecThreads(options_.exec_threads)),
      trace_ring_(options_.trace_ring_capacity),
      slow_log_(1024, options_.slow_query_log_path) {
  // One registry serves every layer. The optimizer pointer is
  // deliberately NOT part of the plan-cache fingerprint (see
  // OptimizeOptions::metrics), so cached extractions are shared whether
  // or not metrics are on.
  plan_cache_.set_metrics(&metrics_);
  pool_.set_metrics(&metrics_);
  db_.set_metrics(&metrics_);
  options_.optimize.metrics = &metrics_;
  // Last: the scheduler's workers touch everything above, so it is the
  // final member built and (being declared last) the first destroyed.
  SchedulerOptions sched;
  sched.workers = options_.scheduler_workers;
  sched.queue_capacity = options_.scheduler_queue_capacity;
  scheduler_ = std::make_unique<Scheduler>(this, sched);
}

Server::~Server() {
  scheduler_->Shutdown();
  // Workers have joined; anything they logged is buffered. Flush to the
  // configured path (no-op when unset).
  slow_log_.Flush();
}

std::unique_ptr<Session> Server::Connect() {
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = ++sessions_opened_;
  }
  auto session = std::unique_ptr<Session>(new Session(this, id));
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_sessions_[id] = &session->conn_;
  }
  return session;
}

void Server::CloseSession(int64_t id, const ConnectionStats& session_stats) {
  std::lock_guard<std::mutex> lock(mu_);
  live_sessions_.erase(id);
  ++sessions_closed_;
  totals_.queries_executed += session_stats.queries_executed;
  totals_.round_trips += session_stats.round_trips;
  totals_.rows_transferred += session_stats.rows_transferred;
  totals_.bytes_transferred += session_stats.bytes_transferred;
  totals_.simulated_ms += session_stats.simulated_ms;
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.sessions_opened = sessions_opened_;
    out.sessions_closed = sessions_closed_;
    out.totals = totals_;
    // Live sessions contribute the snapshot their owner thread last
    // published (complete up to the last finished operation).
    for (const auto& [id, conn] : live_sessions_) {
      ConnectionStats live = conn->ApproxStats();
      out.totals.queries_executed += live.queries_executed;
      out.totals.round_trips += live.round_trips;
      out.totals.rows_transferred += live.rows_transferred;
      out.totals.bytes_transferred += live.bytes_transferred;
      out.totals.simulated_ms += live.simulated_ms;
    }
  }
  // Scheduler worker links: requests submitted through Session::Submit
  // execute on these connections, so server totals would undercount
  // without them. Workers never "close", so there is no double count
  // with the closed-session aggregate above.
  if (scheduler_ != nullptr) {
    for (const ConnectionStats& link : scheduler_->WorkerStats()) {
      out.totals.queries_executed += link.queries_executed;
      out.totals.round_trips += link.round_trips;
      out.totals.rows_transferred += link.rows_transferred;
      out.totals.bytes_transferred += link.bytes_transferred;
      out.totals.simulated_ms += link.simulated_ms;
    }
  }
  out.plan_cache = plan_cache_.stats();
  return out;
}

Result<std::shared_ptr<const core::ExtractionPlan>> Server::GetOrSelectPlan(
    const std::string& source, const std::string& function) {
  const uint64_t epoch = db_.StatsEpoch();
  return plan_cache_.GetOrSelect(
      source, function, options_.optimize, epoch,
      [&]() -> Result<std::shared_ptr<const core::ExtractionPlan>> {
        // The expensive half (parse -> analyze -> transform -> rewrite)
        // keys WITHOUT the stats epoch, so re-pricing after data growth
        // reuses the cached extraction and only redoes the costing.
        EQSQL_ASSIGN_OR_RETURN(
            std::shared_ptr<const core::OptimizeResult> optimized,
            plan_cache_.GetOrOptimize(source, function, options_.optimize));
        // Loop shapes are probed on the ORIGINAL program (the optimized
        // copy has its loops rewritten away), kept by the optimize line.
        const frontend::Function* original =
            optimized->original != nullptr
                ? optimized->original->Find(function)
                : nullptr;
        core::AlternativeSelector selector(GatherTableStats(&db_),
                                           options_.cost_model);
        core::ExtractionPlan plan = selector.Select(
            optimized, original,
            [this](const std::string& sql) {
              return plan_cache_.GetOrParseSql(sql);
            },
            epoch);
        return std::make_shared<const core::ExtractionPlan>(std::move(plan));
      });
}

Session::~Session() { server_->CloseSession(id_, conn_.stats()); }

std::future<Outcome> Session::Submit(Request req) {
  if (req.txn == nullptr) req.txn = txn_ctx_;
  return server_->scheduler_->Submit(std::move(req));
}

Outcome Session::Execute(Request req) { return Submit(std::move(req)).get(); }

Result<Explain> Session::ExplainExtraction(const std::string& source,
                                           const std::string& function) {
  return Execute(Request::ExplainExtraction(source, function)).TakeExplain();
}

Result<std::shared_ptr<const core::ExtractionPlan>> Session::SelectPlan(
    const std::string& source, const std::string& function) {
  return server_->GetOrSelectPlan(source, function);
}

Result<std::shared_ptr<const core::OptimizeResult>> Session::OptimizeCached(
    const std::string& source, const std::string& function) {
  return server_->plan_cache_.GetOrOptimize(source, function,
                                            server_->options_.optimize);
}

}  // namespace eqsql::net
