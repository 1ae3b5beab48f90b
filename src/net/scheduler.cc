#include "net/scheduler.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/strings.h"
#include "net/server.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "storage/table.h"

namespace eqsql::net {

namespace {

constexpr size_t kDefaultWorkers = 2;

int64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

size_t PriorityClass(Priority p) {
  size_t cls = static_cast<size_t>(p);
  return cls < 3 ? cls : 2;
}

}  // namespace

Scheduler::Scheduler(Server* server, SchedulerOptions options)
    : server_(server), options_(options) {
  if (options_.workers == 0) options_.workers = kDefaultWorkers;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;

  obs::MetricsRegistry* metrics = server_->metrics();
  m_depth_ = metrics->counter("net.scheduler.queue_depth");
  m_submitted_ = metrics->counter("net.scheduler.submitted");
  m_rejected_ = metrics->counter("net.scheduler.rejected");
  m_deadline_ = metrics->counter("net.scheduler.deadline_expired");
  m_dispatched_ = metrics->counter("net.scheduler.dispatched");
  m_queue_wait_ns_ = metrics->histogram("net.scheduler.queue_wait_ns");
  m_trace_sampled_ = metrics->counter("obs.trace.sampled");
  m_slow_logged_ = metrics->counter("obs.slow_log.emitted");

  // One connection per worker: created here on the constructing thread,
  // then latched by its worker thread on first use (Connection latches
  // its owner on the first stats-mutating call, and these are unused
  // until then).
  conns_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    auto conn = std::make_unique<Connection>(server_->db(),
                                             server_->options().cost_model);
    conn->set_worker_pool(server_->worker_pool());
    conn->set_parallel_threshold(server_->options().parallel_threshold);
    conn->set_metrics(metrics);
    conn->set_plan_cache(server_->plan_cache());
    conns_.push_back(std::move(conn));
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::FailEntry(Entry& e, Status status) {
  if (e.enqueue_span >= 0 && e.ctx.trace != nullptr) {
    e.ctx.trace->EndSpan(e.enqueue_span);
  }
  e.promise.set_value(Outcome::FromError(std::move(status)));
}

std::future<Outcome> Scheduler::Submit(Request req) {
  const auto now = std::chrono::steady_clock::now();
  Entry e;
  e.req = std::move(req);
  e.enqueued = now;
  e.deadline = e.req.timeout_ms > 0
                   ? now + std::chrono::milliseconds(e.req.timeout_ms)
                   : std::chrono::steady_clock::time_point::max();
  // Every admitted request gets the next trace id; with sampling on,
  // every N-th becomes a ring-buffer record. Rejected requests below
  // burn an id — acceptable, ids only need to be unique and increasing.
  e.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t sample_n = server_->options().trace_sample;
  e.sampled =
      sample_n > 0 && static_cast<uint64_t>(e.trace_id) % sample_n == 0;
  // Capture the submitter's trace position before admission so the
  // queue wait shows up as a "scheduler.enqueue" span in its tree. A
  // sampled request with no ambient trace gets a scheduler-owned one,
  // so its spans (and the per-shard spans the executor emits) have a
  // tree to land in.
  e.ctx = obs::CurrentSpanContext();
  if (e.sampled && e.ctx.trace == nullptr) {
    e.owned_trace = std::make_shared<obs::Trace>();
    e.ctx.trace = e.owned_trace.get();
    e.ctx.span = -1;
  }
  if (e.ctx.trace != nullptr) {
    e.enqueue_span = e.ctx.trace->BeginSpan("scheduler.enqueue", e.ctx.span);
  }
  std::future<Outcome> fut = e.promise.get_future();

  const size_t cls = PriorityClass(e.req.priority);
  bool shutting_down = false;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      shutting_down = true;
    } else if (queued_ >= options_.queue_capacity) {
      full = true;
    } else {
      queues_[cls].push_back(std::move(e));
      ++queued_;
    }
  }
  if (shutting_down) {
    FailEntry(e, Status::ShuttingDown("server is shutting down"));
    return fut;
  }
  if (full) {
    // Backpressure: reject inline, never block the producer.
    m_rejected_->Increment();
    FailEntry(e, Status::Overloaded("scheduler queue is full (capacity " +
                                    std::to_string(options_.queue_capacity) +
                                    "); retry with backoff"));
    return fut;
  }
  m_submitted_->Increment();
  m_depth_->Add(1);
  cv_.notify_one();
  return fut;
}

void Scheduler::WorkerLoop(size_t worker_index) {
  Connection* conn = conns_[worker_index].get();
  for (;;) {
    Entry e;
    DispatchHook hook;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
      // Stop wins over remaining work: Shutdown() flushes the queue
      // with kShuttingDown itself, so workers must not race it for
      // entries once draining begins.
      if (stop_) return;
      for (auto& q : queues_) {
        if (!q.empty()) {
          e = std::move(q.front());
          q.pop_front();
          break;
        }
      }
      --queued_;
      hook = dispatch_hook_;
    }
    m_depth_->Add(-1);
    m_dispatched_->Increment();
    const auto now = std::chrono::steady_clock::now();
    const int64_t queue_wait_ns = ElapsedNs(e.enqueued, now);
    m_queue_wait_ns_->Record(queue_wait_ns);
    if (e.enqueue_span >= 0 && e.ctx.trace != nullptr) {
      e.ctx.trace->EndSpan(e.enqueue_span);
    }
    // Admission deadline: fail cleanly before touching any data. A
    // request that makes it past this line runs to completion even if
    // its deadline passes mid-execution.
    if (now >= e.deadline) {
      m_deadline_->Increment();
      e.promise.set_value(Outcome::FromError(Status::DeadlineExceeded(
          "deadline expired after " +
          std::to_string(e.req.timeout_ms) + "ms in queue")));
      continue;
    }
    if (hook) hook(e.req);
    // Operator profile for the sinks: attached when this request is
    // sampled or the slow-query log is armed. EXPLAIN ANALYZE swaps in
    // its own profile and restores this one (Connection::set_profile
    // saves/restores), so the two compose.
    const bool want_profile =
        e.sampled || server_->options().slow_query_ms > 0;
    obs::Profile profile;
    Outcome out;
    {
      obs::ScopedContext restore(e.ctx);
      obs::ScopedSpan span("scheduler.dispatch");
      if (span.active()) {
        span.Attr("worker", std::to_string(worker_index));
        span.Attr("trace_id", std::to_string(e.trace_id));
      }
      if (want_profile) conn->set_profile(&profile);
      out = ExecuteRequest(conn, e.req);
      if (want_profile) conn->set_profile(nullptr);
    }
    if (want_profile) RecordObservability(e, profile, out, queue_wait_ns);
    e.promise.set_value(std::move(out));
  }
}

Outcome Scheduler::ExecuteRequest(Connection* conn, const Request& req) {
  using Kind = Request::Kind;
  Kind kind = req.kind;
  if (kind == Kind::kStatement || kind == Kind::kQuery) {
    if (IsShowMetricsStatement(req.sql)) return ShowMetricsOutcome();
    if (IsShowProfilesStatement(req.sql)) return ShowProfilesOutcome();
    if (IsShowTracesStatement(req.sql)) return ShowTracesOutcome();
  }
  kind = ClassifyStatement(kind, req.sql);
  switch (kind) {
    // The worker's connection resolves queries through the server's
    // plan cache, so repeated statement texts are neither parsed nor
    // bound again, across all sessions. The request carries the
    // session's transaction context, so a SELECT inside an open
    // transaction reads at the transaction snapshot.
    case Kind::kQuery:
    case Kind::kDml:
    case Kind::kSimulateDml:
    case Kind::kBegin:
    case Kind::kCommit:
    case Kind::kRollback:
    case Kind::kCreateIndex:
    case Kind::kExplainAnalyze: {
      Request forced = req;
      forced.kind = kind;
      return conn->Perform(std::move(forced));
    }
    case Kind::kExplainExtraction: {
      // The full selection: extraction result + join-plan annotation +
      // ranked cost-priced alternatives, cached against the database's
      // stats epoch (Server::GetOrSelectPlan).
      Result<std::shared_ptr<const core::ExtractionPlan>> plan =
          server_->GetOrSelectPlan(req.sql, req.function);
      if (!plan.ok()) return Outcome::FromError(plan.status());
      Explain payload;
      payload.kind = Explain::Kind::kExtraction;
      payload.text = obs::RenderExplainText(**plan, req.function);
      payload.json = obs::RenderExplainJson(**plan, req.function);
      return Outcome::FromExplain(std::move(payload));
    }
    case Kind::kStatement:
      break;  // classified above; unreachable
  }
  return Outcome::FromError(Status::Internal("unhandled request kind"));
}

Outcome Scheduler::ShowMetricsOutcome() const {
  // Counters plus derived histogram rows (<name>.count/.p50/.p99/.max):
  // the scheduler's queue-wait distribution is part of the admission
  // story, so it is queryable, not just in the JSON snapshot. Counter
  // values are deterministic for a fixed workload; the histogram rows
  // carry wall timing and are excluded from invariance comparisons.
  // All rows merge into ONE lexicographically sorted sequence, so
  // `exec.pool.tasks` and `exec.pool.task_wait_ns.p99` sort next to
  // each other instead of counters-then-histograms.
  obs::MetricsSnapshot snap = server_->metrics()->Snapshot();
  std::vector<std::pair<std::string, int64_t>> merged;
  merged.reserve(snap.counters.size() + 4 * snap.histograms.size());
  for (const auto& [name, value] : snap.counters) {
    merged.emplace_back(name, value);
  }
  for (const auto& [name, h] : snap.histograms) {
    merged.emplace_back(name + ".count", h.count);
    merged.emplace_back(name + ".p50", h.ValueAtQuantile(0.5));
    merged.emplace_back(name + ".p99", h.ValueAtQuantile(0.99));
    merged.emplace_back(name + ".max", h.max);
  }
  std::sort(merged.begin(), merged.end());
  exec::ResultSet rs;
  rs.schema = std::make_shared<const catalog::Schema>(
      std::vector<catalog::Column>{{"metric", catalog::DataType::kString},
                                   {"value", catalog::DataType::kInt64}});
  rs.rows.reserve(merged.size());
  for (auto& [name, value] : merged) {
    rs.rows.push_back({catalog::Value::String(std::move(name)),
                       catalog::Value::Int(value)});
  }
  return Outcome::FromResultSet(std::move(rs));
}

Outcome Scheduler::ShowProfilesOutcome() const {
  // Introspection rides the unified Explain payload: one stanza per
  // sampled request in the text form, a JSON array in the machine form
  // (obs::RenderProfiles*). SHOW METRICS stays a result set — it is
  // data, not a report.
  const std::vector<obs::TraceRecord> records =
      server_->trace_ring()->Snapshot();
  Explain payload;
  payload.kind = Explain::Kind::kIntrospection;
  payload.text = obs::RenderProfilesText(records);
  payload.json = obs::RenderProfilesJson(records);
  return Outcome::FromExplain(std::move(payload));
}

Outcome Scheduler::ShowTracesOutcome() const {
  const std::vector<obs::TraceRecord> records =
      server_->trace_ring()->Snapshot();
  Explain payload;
  payload.kind = Explain::Kind::kIntrospection;
  payload.text = obs::RenderTracesText(records);
  payload.json = obs::RenderTracesJson(records);
  return Outcome::FromExplain(std::move(payload));
}

void Scheduler::RecordObservability(const Entry& e,
                                    const obs::Profile& profile,
                                    const Outcome& out,
                                    int64_t queue_wait_ns) {
  const int64_t total_ns =
      ElapsedNs(e.enqueued, std::chrono::steady_clock::now());
  const std::string status =
      out.ok() ? "ok" : std::string(StatusCodeToString(out.status.code()));
  const int64_t shards =
      static_cast<int64_t>(server_->db()->shard_count());
  if (e.sampled) {
    m_trace_sampled_->Increment();
    obs::TraceRecord rec;
    rec.trace_id = e.trace_id;
    rec.statement = e.req.sql;
    rec.status = status;
    rec.queue_wait_ns = queue_wait_ns;
    rec.total_ns = total_ns;
    rec.shard_count = shards;
    // Serialized here, before the promise resolves: a submitter-owned
    // ambient Trace is alive until outcome delivery by contract, and a
    // scheduler-owned one is alive until `e` dies.
    if (e.ctx.trace != nullptr) rec.trace_json = e.ctx.trace->ToJson();
    rec.profile_text = profile.ToText();
    rec.profile_json = profile.ToJson();
    server_->trace_ring()->Push(std::move(rec));
  }
  const double slow_ms = server_->options().slow_query_ms;
  if (slow_ms > 0 &&
      static_cast<double>(total_ns) >= slow_ms * 1e6) {
    m_slow_logged_->Increment();
    std::ostringstream line;
    line << "{\"trace_id\":" << e.trace_id << ",\"statement\":\""
         << obs::JsonEscapeString(e.req.sql) << "\",\"status\":\""
         << obs::JsonEscapeString(status) << "\",\"queue_wait_ns\":"
         << queue_wait_ns << ",\"total_ns\":" << total_ns
         << ",\"shard_count\":" << shards
         << ",\"profile\":" << profile.ToJson() << "}";
    server_->slow_log()->Append(line.str());
  }
}

void Scheduler::Shutdown() {
  std::vector<Entry> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& q : queues_) {
      for (Entry& e : q) flushed.push_back(std::move(e));
      q.clear();
    }
    queued_ = 0;
  }
  cv_.notify_all();
  for (Entry& e : flushed) {
    m_depth_->Add(-1);
    FailEntry(e, Status::ShuttingDown(
                     "server shut down before the request was dispatched"));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

bool Scheduler::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

int64_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queued_);
}

std::vector<ConnectionStats> Scheduler::WorkerStats() const {
  std::vector<ConnectionStats> out;
  out.reserve(conns_.size());
  for (const auto& conn : conns_) out.push_back(conn->ApproxStats());
  return out;
}

void Scheduler::set_dispatch_hook(DispatchHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_hook_ = std::move(hook);
}

}  // namespace eqsql::net
