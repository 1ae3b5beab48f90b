#include "core/plan_cache.h"

#include <cctype>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "core/alternative_selector.h"
#include "frontend/parser.h"
#include "sql/parser.h"

namespace eqsql::core {

namespace {

/// Stable fingerprint of the option fields that change pipeline output.
/// std::map / std::set iterate in sorted order, so the fingerprint is
/// independent of insertion order.
uint64_t OptionsFingerprint(const OptimizeOptions& options) {
  uint64_t h = Fnv1a("opts:");
  for (const auto& [table, key] : options.transform.table_keys) {
    h ^= SplitMix64(Fnv1a(table) * 3 + Fnv1a(key));
  }
  for (const std::string& rule : options.transform.disabled_rules) {
    h ^= SplitMix64(Fnv1a(rule) * 5);
  }
  h = SplitMix64(h + (options.transform.ignore_ordering ? 1 : 0));
  h = SplitMix64(h + static_cast<uint64_t>(options.dialect) * 7);
  return h;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `needle` occurs in `hay` as a whole identifier token, not
/// as a substring of a longer identifier. Program sources refer to
/// tables by identifier, so a short table name like "t" must not match
/// every source containing the letter t.
bool ContainsIdentToken(const std::string& hay, const std::string& needle) {
  if (needle.empty()) return false;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    bool left_ok = pos == 0 || !IsIdentChar(hay[pos - 1]);
    bool right_ok = pos + needle.size() == hay.size() ||
                    !IsIdentChar(hay[pos + needle.size()]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

}  // namespace

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t PlanCache::DigestSql(std::string_view sql) {
  return SplitMix64(Fnv1a(sql) ^ Fnv1a("sql-plan"));
}

uint64_t PlanCache::DigestProgram(std::string_view source,
                                  std::string_view function,
                                  const OptimizeOptions& options) {
  uint64_t h = Fnv1a(source);
  h = SplitMix64(h ^ (Fnv1a(function) * 9));
  h = SplitMix64(h ^ OptionsFingerprint(options) ^ Fnv1a("extract-plan"));
  return h;
}

void PlanCache::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_hits_ = nullptr;
    m_misses_ = nullptr;
    m_insertions_ = nullptr;
    m_evictions_ = nullptr;
    m_invalidations_ = nullptr;
    return;
  }
  m_hits_ = metrics->counter("plan_cache.hits");
  m_misses_ = metrics->counter("plan_cache.misses");
  m_insertions_ = metrics->counter("plan_cache.insertions");
  m_evictions_ = metrics->counter("plan_cache.evictions");
  m_invalidations_ = metrics->counter("plan_cache.invalidations");
}

bool PlanCache::Lookup(uint64_t key, Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (m_misses_ != nullptr) m_misses_->Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  ++stats_.hits;
  if (m_hits_ != nullptr) m_hits_->Increment();
  *out = *it->second;
  return true;
}

void PlanCache::Insert(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(entry.key);
  if (it != index_.end()) {
    // A concurrent miss on the same key computed the same (deterministic)
    // payload first; refresh recency and keep one line.
    lru_.splice(lru_.begin(), lru_, it->second);
    *it->second = std::move(entry);
    return;
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  ++stats_.insertions;
  if (m_insertions_ != nullptr) m_insertions_->Increment();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (m_evictions_ != nullptr) m_evictions_->Increment();
  }
}

Result<std::shared_ptr<const exec::PreparedQuery>> PlanCache::GetOrPrepareSql(
    std::string_view sql) {
  uint64_t key = DigestSql(sql);
  Entry entry;
  if (Lookup(key, &entry) && entry.query != nullptr) return entry.query;
  // Miss: parse outside the lock so concurrent misses do not serialize.
  EQSQL_ASSIGN_OR_RETURN(ra::RaNodePtr plan, sql::ParseSql(sql));
  auto query = std::make_shared<const exec::PreparedQuery>(std::move(plan));
  entry.key = key;
  entry.query = query;
  entry.optimized = nullptr;
  entry.tables = query->tables();
  for (std::string& t : entry.tables) t = AsciiToLower(t);
  Insert(std::move(entry));
  return query;
}

Result<ra::RaNodePtr> PlanCache::GetOrParseSql(std::string_view sql) {
  EQSQL_ASSIGN_OR_RETURN(std::shared_ptr<const exec::PreparedQuery> query,
                         GetOrPrepareSql(sql));
  return query->plan();
}

Result<std::shared_ptr<const OptimizeResult>> PlanCache::GetOrOptimize(
    const std::string& source, const std::string& function,
    const OptimizeOptions& options) {
  uint64_t key = DigestProgram(source, function, options);
  Entry entry;
  if (Lookup(key, &entry) && entry.optimized != nullptr) {
    return entry.optimized;
  }
  EQSQL_ASSIGN_OR_RETURN(frontend::Program program,
                         frontend::ParseProgram(source));
  EqSqlOptimizer optimizer(options);
  EQSQL_ASSIGN_OR_RETURN(OptimizeResult result,
                         optimizer.Optimize(program, function));
  // The line keeps the parse: re-pricing selects against it.
  result.original =
      std::make_shared<const frontend::Program>(std::move(program));
  auto shared = std::make_shared<const OptimizeResult>(std::move(result));
  entry.key = key;
  entry.query = nullptr;
  entry.optimized = shared;
  entry.source_lower = AsciiToLower(source);
  Insert(std::move(entry));
  return shared;
}

Result<std::shared_ptr<const ExtractionPlan>> PlanCache::GetOrSelect(
    const std::string& source, const std::string& function,
    const OptimizeOptions& options, uint64_t stats_epoch,
    const SelectFn& compute) {
  uint64_t key = SplitMix64(DigestProgram(source, function, options) ^
                            Fnv1a("select-plan"));
  Entry entry;
  if (Lookup(key, &entry) && entry.selected != nullptr) {
    if (entry.stats_epoch == stats_epoch) return entry.selected;
    // The database's statistics changed under the cached pricing; drop
    // the line so the re-selection below can flip the winner.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.invalidations;
      if (m_invalidations_ != nullptr) m_invalidations_->Increment();
    }
  }
  EQSQL_ASSIGN_OR_RETURN(std::shared_ptr<const ExtractionPlan> plan,
                         compute());
  entry = Entry();
  entry.key = key;
  entry.selected = plan;
  entry.stats_epoch = stats_epoch;
  entry.source_lower = AsciiToLower(source);
  Insert(std::move(entry));
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = PlanCacheStats();
}

void PlanCache::InvalidateTable(const std::string& name) {
  const std::string needle = AsciiToLower(name);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    bool stale = false;
    for (const std::string& t : it->tables) {
      if (t == needle) {
        stale = true;
        break;
      }
    }
    if (!stale && !it->source_lower.empty() &&
        ContainsIdentToken(it->source_lower, needle)) {
      stale = true;
    }
    if (stale) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++stats_.invalidations;
      if (m_invalidations_ != nullptr) m_invalidations_->Increment();
    } else {
      ++it;
    }
  }
}

}  // namespace eqsql::core
