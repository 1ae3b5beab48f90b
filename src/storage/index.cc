#include "storage/index.h"

#include <algorithm>

#include "common/hash.h"

namespace eqsql::storage {

size_t SecondaryIndex::KeyHash::operator()(
    const std::vector<catalog::Value>& key) const {
  size_t seed = key.size();
  catalog::ValueHash h;
  for (const catalog::Value& v : key) HashCombine(seed, h(v));
  return seed;
}

bool SecondaryIndex::KeyEq::operator()(
    const std::vector<catalog::Value>& a,
    const std::vector<catalog::Value>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

SecondaryIndex::SecondaryIndex(std::string name,
                               std::vector<std::string> columns,
                               std::vector<size_t> column_indexes,
                               size_t buckets)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      column_indexes_(std::move(column_indexes)),
      buckets_(std::max<size_t>(1, buckets)) {
  for (auto& b : buckets_) b = std::make_unique<Bucket>();
}

SecondaryIndex::Bucket& SecondaryIndex::BucketFor(
    const std::vector<catalog::Value>& key) const {
  return *buckets_[KeyHash()(key) % buckets_.size()];
}

void SecondaryIndex::AddEntry(const catalog::Row& row,
                              std::shared_ptr<const TableSlot> slot) {
  std::vector<catalog::Value> key;
  key.reserve(column_indexes_.size());
  for (size_t col : column_indexes_) {
    if (row[col].is_null()) return;  // NULL keys are never probeable
    key.push_back(row[col]);
  }
  Bucket& bucket = BucketFor(key);
  std::unique_lock<std::shared_mutex> lock(bucket.mu);
  auto& slots = bucket.map[std::move(key)];
  for (const auto& s : slots) {
    if (s.get() == slot.get()) return;  // backfill/writer overlap
  }
  slots.push_back(std::move(slot));
}

std::vector<std::shared_ptr<const TableSlot>> SecondaryIndex::Probe(
    const std::vector<catalog::Value>& key) const {
  for (const catalog::Value& v : key) {
    if (v.is_null()) return {};
  }
  std::vector<std::shared_ptr<const TableSlot>> out;
  Bucket& bucket = BucketFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(bucket.mu);
    auto it = bucket.map.find(key);
    if (it == bucket.map.end()) return {};
    out = it->second;
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  return out;
}

void SecondaryIndex::PruneDeadSlots() {
  for (auto& bucket : buckets_) {
    std::unique_lock<std::shared_mutex> lock(bucket->mu);
    for (auto it = bucket->map.begin(); it != bucket->map.end();) {
      auto& slots = it->second;
      slots.erase(std::remove_if(slots.begin(), slots.end(),
                                 [](const auto& s) {
                                   return s->head.load(
                                              std::memory_order_acquire) ==
                                          nullptr;
                                 }),
                  slots.end());
      if (slots.empty()) {
        it = bucket->map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t SecondaryIndex::distinct_keys() const {
  size_t n = 0;
  for (const auto& bucket : buckets_) {
    std::shared_lock<std::shared_mutex> lock(bucket->mu);
    n += bucket->map.size();
  }
  return n;
}

size_t SecondaryIndex::entry_count() const {
  size_t n = 0;
  for (const auto& bucket : buckets_) {
    std::shared_lock<std::shared_mutex> lock(bucket->mu);
    for (const auto& [key, slots] : bucket->map) n += slots.size();
  }
  return n;
}

}  // namespace eqsql::storage
