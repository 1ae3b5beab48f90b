#include "wallbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "exec/exec_mode.h"
#include "net/scheduler.h"

namespace wallbench {

uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t i) {
  return eqsql::SplitMix64(eqsql::SplitMix64(seed ^ (stream << 48)) + i);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Windowed WindowStats(std::vector<Sample> samples, int64_t start_ns,
                     size_t window) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.end_ns < b.end_ns;
            });
  if (samples.size() < window) window = samples.size();
  std::vector<double> p50, p99, per_s;
  int64_t from_ns = start_ns;
  for (size_t i = 0; window > 0 && i + window <= samples.size();
       i += window) {
    std::vector<double> ms;
    ms.reserve(window);
    for (size_t j = i; j < i + window; ++j) ms.push_back(samples[j].ms);
    const int64_t to_ns = samples[i + window - 1].end_ns;
    p50.push_back(Quantile(ms, 0.5));
    p99.push_back(Quantile(std::move(ms), 0.99));
    per_s.push_back(
        Ratio(static_cast<double>(window), (to_ns - from_ns) / 1e9));
    from_ns = to_ns;
  }
  return {Median(p50), Median(p99), Median(per_s), p50.size()};
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double log_sum = 0;
  for (double v : samples) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void Fatal(const std::string& what, const eqsql::Status& status) {
  std::fprintf(stderr, "wallbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ProvenanceJson(net::Server* server) {
  std::string json = eqsql::bench::ProvenanceJson(
      eqsql::exec::ExecModeName(server->options().exec_mode),
      server->db()->shard_count());
  json.pop_back();  // reopen the object
  json += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
          ",\"scheduler_workers\":" +
          std::to_string(server->scheduler()->WorkerStats().size()) +
          ",\"exec_threads\":" +
          std::to_string(server->worker_pool()->thread_count()) + "}";
  return json;
}

void RegistryDelta::Begin(net::Server* server) {
  before_ = server->metrics()->Snapshot();
  totals_before_ = server->stats().totals;
}

void RegistryDelta::End(net::Server* server) {
  after_ = server->metrics()->Snapshot();
  totals_after_ = server->stats().totals;
}

int64_t RegistryDelta::Count(const std::string& counter) const {
  auto value = [&](const obs::MetricsSnapshot& s) -> int64_t {
    auto it = s.counters.find(counter);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after_) - value(before_);
}

double RegistryDelta::Mean(const std::string& histogram) const {
  auto get = [&](const obs::MetricsSnapshot& s) {
    auto it = s.histograms.find(histogram);
    return it == s.histograms.end() ? obs::HistogramSnapshot() : it->second;
  };
  const obs::HistogramSnapshot a = get(after_);
  const obs::HistogramSnapshot b = get(before_);
  return Ratio(static_cast<double>(a.sum - b.sum),
               static_cast<double>(a.count - b.count));
}

net::ConnectionStats RegistryDelta::Totals() const {
  net::ConnectionStats d;
  d.queries_executed =
      totals_after_.queries_executed - totals_before_.queries_executed;
  d.round_trips = totals_after_.round_trips - totals_before_.round_trips;
  d.rows_transferred =
      totals_after_.rows_transferred - totals_before_.rows_transferred;
  d.bytes_transferred =
      totals_after_.bytes_transferred - totals_before_.bytes_transferred;
  d.simulated_ms = totals_after_.simulated_ms - totals_before_.simulated_ms;
  return d;
}

}  // namespace wallbench
