// Per-request operator profiling, the sampled-trace ring buffer, and
// the structured slow-query log.
//
// A Profile is a tree of ProfileNodes mirroring the executed plan: one
// node per plan operator actually run, keyed by the plan node's address
// (RaNodePtr trees are immutable and shared, so the address is a stable
// identity for the lifetime of the request). Correlated subqueries and
// OuterApply re-execute the same plan node many times; ChildFor folds
// those executions into one node (execs counts them), so the tree is
// bounded by plan size, not by data size.
//
// Threading contract: the tree STRUCTURE (ChildFor, labels, rows_out,
// wall_ns, shard-slot sizing) is mutated only by the executor's main
// thread. Shard tasks touch exactly two things: the atomic rows_in /
// batches accumulators, and their own pre-sized shard slot (one writer
// per slot, published by the worker-pool barrier) — the same discipline
// the parallel operators already use for their result vectors.
//
// TraceRing and SlowQueryLog are the bounded sinks behind --trace-sample
// and --slow-query-ms. Both are lock-striped / mutex-guarded, never
// block on I/O in the hot path, and count drops instead of growing.
#ifndef EQSQL_OBS_PROFILE_H_
#define EQSQL_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace eqsql::obs {

/// Actual execution stats for one plan operator.
struct ProfileNode {
  /// Operator label; starts as the logical RaOp name, overwritten by the
  /// physical choice when a fast path wins (KeyLookup, IndexScan,
  /// IndexNestedLoopJoin) or a fused vector pipeline runs.
  std::string label;
  /// Identity of the plan node this operator executed (opaque; used to
  /// match cost-estimator numbers onto the tree).
  const void* plan_node = nullptr;

  /// Rows read from storage while this operator was current (mirrors the
  /// storage.scan.rows charges attributed to it). Shard tasks add here.
  std::atomic<int64_t> rows_in{0};
  /// Vector batches materialized while this operator was current
  /// (mirrors exec.batch.batches). Shard tasks add here.
  std::atomic<int64_t> batches{0};
  /// Rows this operator returned to its parent, summed over executions.
  int64_t rows_out = 0;
  /// Times the operator ran (>1 for correlated subqueries / apply).
  int64_t execs = 0;
  /// Wall time inside the operator, inclusive of children.
  int64_t wall_ns = 0;

  /// Cost-estimator numbers for the same plan node; negative until
  /// annotated.
  double est_rows = -1.0;
  double est_cost_ms = -1.0;

  /// Per-shard breakdown for parallel operators: slot s is written only
  /// by the task that scanned shard s.
  struct ShardSlot {
    int64_t rows = 0;
    int64_t wall_ns = 0;
  };
  std::vector<ShardSlot> shards;

  std::vector<std::unique_ptr<ProfileNode>> children;
};

/// One request's operator-profile tree. Owned by whoever attached it to
/// the executor (EXPLAIN ANALYZE, the trace sampler, or the slow-query
/// logger); the executor only borrows a pointer.
class Profile {
 public:
  Profile() = default;
  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;

  /// Finds `parent`'s child for `plan_node`, creating it (with `label`)
  /// on first execution. parent == nullptr addresses the root. Main
  /// executor thread only.
  ProfileNode* ChildFor(ProfileNode* parent, const void* plan_node,
                        std::string_view label);

  ProfileNode* root() { return root_.get(); }
  const ProfileNode* root() const { return root_.get(); }
  bool empty() const { return root_ == nullptr; }

  /// Indented operator tree, one line per operator, estimated and actual
  /// columns side by side.
  std::string ToText() const;
  /// Nested JSON object mirroring ToText.
  std::string ToJson() const;

 private:
  std::unique_ptr<ProfileNode> root_;
};

/// A completed sampled request, as stored in the trace ring.
struct TraceRecord {
  int64_t trace_id = 0;
  std::string statement;
  std::string status;  // "ok" or the failing status code name
  int64_t queue_wait_ns = 0;
  int64_t total_ns = 0;
  int64_t shard_count = 0;
  std::string trace_json;    // span tree (obs::Trace::ToJson)
  std::string profile_text;  // operator tree (Profile::ToText)
  std::string profile_json;  // operator tree (Profile::ToJson)
};

/// Bounded lock-striped ring of recently sampled requests. Push is
/// O(1) under one stripe mutex; when a stripe is full the oldest record
/// in that stripe is evicted and counted, never blocking the caller.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 256, size_t stripes = 8);

  void Push(TraceRecord rec);
  /// All retained records, ascending trace id.
  std::vector<TraceRecord> Snapshot() const;
  /// Records evicted to make room (not an error; the ring is a window).
  int64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }
  size_t capacity() const { return stripes_.size() * per_stripe_; }

  /// {"evicted":N,"records":[...]} — the --dump-profiles payload.
  std::string ToJson() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::deque<TraceRecord> ring;
  };
  std::vector<std::unique_ptr<Stripe>> stripes_;
  size_t per_stripe_;
  std::atomic<int64_t> evicted_{0};
};

/// Bounded buffer of structured slow-query JSON lines. Append never
/// blocks on I/O: lines accumulate in memory (dropping the newest, with
/// a counter, once full) and Flush writes them to the configured path.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 1024, std::string path = "");

  void Append(std::string json_line);
  std::vector<std::string> Lines() const;
  int64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const std::string& path() const { return path_; }

  /// Appends all buffered lines to path() (no-op when unset or empty
  /// buffer) and clears the buffer. Returns false on I/O failure.
  bool Flush();

 private:
  const size_t capacity_;
  const std::string path_;
  mutable std::mutex mu_;
  std::deque<std::string> lines_;
  std::atomic<int64_t> emitted_{0};
  std::atomic<int64_t> dropped_{0};
};

/// JSON string-body escaping shared by the observability sinks.
std::string JsonEscapeString(std::string_view s);

}  // namespace eqsql::obs

#endif  // EQSQL_OBS_PROFILE_H_
