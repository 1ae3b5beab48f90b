#include "obs/metrics.h"

#include <functional>
#include <sstream>
#include <thread>

#include "obs/profile.h"

namespace eqsql::obs {

size_t Counter::StripeIndex() {
  // One hash per thread, cached: threads scatter across stripes and a
  // given thread always hits the same cell (good locality, no ordering
  // requirement — cells only ever sum).
  static thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kStripes;
  return stripe;
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  size_t bucket = 0;
  while (bucket + 1 < kBuckets &&
         value > (int64_t{1} << static_cast<int>(bucket))) {
    ++bucket;
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    int64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      out.buckets.emplace_back(int64_t{1} << static_cast<int>(i), n);
    }
  }
  return out;
}

int64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count <= 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * count).
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  int64_t seen = 0;
  for (const auto& [bound, n] : buckets) {
    seen += n;
    if (seen >= rank) return bound < max ? bound : max;
  }
  return max;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Copy the handle pointers under the mutex, then read the metrics
  // outside it: reads are racy-by-design (relaxed) against concurrent
  // recorders, and the registry mutex stays a leaf that protects only
  // the maps.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(name, c.get());
    }
    histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
  }
  MetricsSnapshot out;
  for (const auto& [name, c] : counters) out.counters[name] = c->Value();
  for (const auto& [name, h] : histograms) {
    out.histograms[name] = h->Snapshot();
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscapeString(name) << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscapeString(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"max\":" << h.max << ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [bound, n] : h.buckets) {
      if (!bfirst) out << ",";
      bfirst = false;
      out << "[" << bound << "," << n << "]";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " = " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    out << name << " = count " << h.count << ", sum " << h.sum << ", max "
        << h.max;
    if (h.count > 0) out << ", mean " << (h.sum / h.count);
    out << "\n";
  }
  return out.str();
}

}  // namespace eqsql::obs
