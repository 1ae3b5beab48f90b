#ifndef EQSQL_CORE_PLAN_CACHE_H_
#define EQSQL_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/optimizer.h"
#include "exec/binder.h"
#include "obs/metrics.h"
#include "ra/ra_node.h"

namespace eqsql::core {

struct ExtractionPlan;  // core/alternative_selector.h

/// Counters for one PlanCache. A snapshot is taken under the cache
/// mutex, so the numbers in one snapshot are mutually consistent.
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Lines dropped by InvalidateTable (DDL-driven, not LRU pressure).
  int64_t invalidations = 0;

  double hit_ratio() const {
    int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }
};

/// A thread-safe LRU cache memoizing the two expensive front halves of
/// the request path, keyed by a 64-bit digest of the request text:
///
///   1. SQL text        -> parsed relational-algebra plan, and the plan
///                         bound for execution (GetOrPrepareSql)
///   2. program source  -> full parse -> analyze -> transform -> rewrite
///      + entry + opts     extraction result        (GetOrOptimize)
///
/// Plans are shared_ptr<const RaNode> and OptimizeResults are published
/// as shared_ptr<const OptimizeResult>; both are immutable after
/// construction, so N sessions can execute the same cached plan
/// concurrently while it is being evicted by an (N+1)-th — the
/// shared_ptr keeps the entry alive past eviction.
///
/// Locking discipline: one mutex guards the map + LRU list + stats, and
/// is held only for lookups and insertions — never across a parse or an
/// optimize. Two sessions missing on the same key may therefore both
/// compute the entry (a benign "stampede": the pipeline is deterministic
/// so both compute identical values, and the second insert just
/// refreshes the line). This trades a rare duplicate computation for
/// never serializing misses behind one another.
class PlanCache {
 public:
  /// `capacity` is the maximum number of resident entries across both
  /// entry kinds; least-recently-used lines are evicted beyond it.
  explicit PlanCache(size_t capacity = 256);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached line for `sql`, parsing and inserting on miss.
  /// The line binds lazily, on its first execution (PreparedQuery), and
  /// keeps the bound plan for later ones. Parse errors are returned and
  /// never cached (an erroring request should not poison the cache nor
  /// pin a line).
  Result<std::shared_ptr<const exec::PreparedQuery>> GetOrPrepareSql(
      std::string_view sql);

  /// GetOrPrepareSql's parsed plan alone (pricing, rendering).
  Result<ra::RaNodePtr> GetOrParseSql(std::string_view sql);

  /// Returns the cached extraction result for (`source`, `function`)
  /// under `options`, running the full EqSqlOptimizer pipeline on miss.
  /// The options participate in the key, so sessions with different
  /// dialects or rule ablations never alias each other's entries.
  Result<std::shared_ptr<const OptimizeResult>> GetOrOptimize(
      const std::string& source, const std::string& function,
      const OptimizeOptions& options);

  /// Computes a full selection (AlternativeSelector output).
  using SelectFn =
      std::function<Result<std::shared_ptr<const ExtractionPlan>>()>;

  /// Returns the cached alternative-selection plan for (`source`,
  /// `function`, `options`), running `compute` on miss. A resident line
  /// is only served while its recorded statistics epoch equals
  /// `stats_epoch`; a mismatch (the database changed — a table grew, an
  /// index appeared) counts as an invalidation and re-selects, so the
  /// chosen alternative tracks live data. The OptimizeResult half of
  /// the work stays warm: `compute` typically calls GetOrOptimize,
  /// which keys without the epoch.
  Result<std::shared_ptr<const ExtractionPlan>> GetOrSelect(
      const std::string& source, const std::string& function,
      const OptimizeOptions& options, uint64_t stats_epoch,
      const SelectFn& compute);

  PlanCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// Mirrors every stat increment into plan_cache.* counters of
  /// `metrics` (hits, misses, insertions, evictions, invalidations).
  /// Handles are resolved here once; increments are lock-free, so the
  /// registry mutex is never taken while the cache mutex is held. Not
  /// thread-safe: set before concurrent use.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Drops every line that references table `name` (case-insensitive):
  /// SQL entries record their scanned tables; program entries match by
  /// source-text mention (conservative — a false positive only costs a
  /// recomputation). Called by Session DDL (temp-table CREATE/DROP) so
  /// cached plans can never alias a renamed/reshaped table.
  void InvalidateTable(const std::string& name);

  /// Digest of a SQL request (FNV-1a over the text, namespaced so SQL
  /// and program entries cannot collide on equal text).
  static uint64_t DigestSql(std::string_view sql);

  /// Digest of an extraction request: source, entry function, and a
  /// fingerprint of every option that changes the pipeline's output.
  static uint64_t DigestProgram(std::string_view source,
                                std::string_view function,
                                const OptimizeOptions& options);

 private:
  struct Entry {
    uint64_t key = 0;
    std::shared_ptr<const exec::PreparedQuery> query;  // SQL entries
    std::shared_ptr<const OptimizeResult> optimized;  // program entries
    std::shared_ptr<const ExtractionPlan> selected;   // selection entries
    /// Database statistics epoch the selection was priced under
    /// (selection entries only); a lookup under a different epoch
    /// invalidates the line.
    uint64_t stats_epoch = 0;
    /// Lowercased names of tables the plan scans (SQL entries), for
    /// InvalidateTable.
    std::vector<std::string> tables;
    /// Lowercased program source (program entries), for conservative
    /// InvalidateTable matching by mention.
    std::string source_lower;
  };

  /// Looks up `key`, promoting the line to most-recently-used. Returns
  /// an owning copy of the entry payloads (never a reference — the line
  /// may be evicted the instant the mutex is released).
  bool Lookup(uint64_t key, Entry* out);

  /// Inserts (or refreshes) `entry`, evicting LRU lines beyond capacity.
  void Insert(Entry entry);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_insertions_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_invalidations_ = nullptr;
};

}  // namespace eqsql::core

#endif  // EQSQL_CORE_PLAN_CACHE_H_
