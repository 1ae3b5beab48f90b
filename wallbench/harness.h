// Shared pieces of the wall-clock benchmark: the run configuration, the
// result every workload hands back, exact order statistics, and deltas
// of the server's own telemetry around a measured phase.
#ifndef WALLBENCH_HARNESS_H_
#define WALLBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"
#include "obs/metrics.h"

namespace wallbench {

namespace net = eqsql::net;
namespace obs = eqsql::obs;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up runs this many times per invocation; setup_s is their median,
/// so one slow set-up cannot move the figure.
constexpr int kSetupReps = 9;

/// The command line: which workload, its input seed, how long the
/// measured phase lasts, and whether this is the traced run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Traced runs write every recorded span here at exit (empty: none).
  std::string spans_path;
};

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main(). `metrics` holds the
/// end-to-end set for an untraced run and the per-layer set for a
/// traced one; `report` lines are printed ahead of the result object.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;
};

/// One request's wall latency and when it completed.
struct Sample {
  int64_t end_ns = 0;
  double ms = 0;
};

/// Requests per window of WindowStats: p99 then has ten samples beyond
/// it in every window.
constexpr size_t kWindow = 1000;

/// Request figures that a burst of host noise cannot move: the samples,
/// in completion order, are cut into consecutive windows of `window`
/// requests (a partial last window is dropped unless it is the only
/// one), and each figure is the median over windows of the window's
/// p50, p99 and throughput. The first window starts at `start_ns`.
struct Windowed {
  double p50_ms = 0;
  double p99_ms = 0;
  double per_s = 0;
  size_t windows = 0;
};
Windowed WindowStats(std::vector<Sample> samples, int64_t start_ns,
                     size_t window);

/// Seeded stream i of `seed`: SplitMix64 twice, so seeds n and n+1 do
/// not yield shifted copies of one stream.
uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t i);

/// Exact nearest-rank quantile (q in [0, 1]) of `samples`; 0 if empty.
double Quantile(std::vector<double> samples, double q);

/// Median of `samples`; 0 if empty.
double Median(std::vector<double> samples);

/// Geometric mean of positive `samples`; 0 if empty.
double GeoMean(const std::vector<double>& samples);

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
double Ratio(double num, double den);

/// CPU time this process's threads have used so far, in seconds.
double ProcessCpuSeconds();

/// Reports a set-up step that failed and exits: without it there is no
/// workload to measure, and no result is printed.
[[noreturn]] void Fatal(const std::string& what, const eqsql::Status& status);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// bench::ProvenanceJson for `server` plus the host's processor count
/// and the server's scheduler and shard-pool thread counts.
std::string ProvenanceJson(net::Server* server);

/// Movement of a server's metrics registry and ServerStats between
/// Begin() and End(). Counters are read as deltas and histograms as the
/// mean of the values recorded in between (sum / count), never as bucket
/// quantiles: the power-of-two buckets are up to 2x coarse.
class RegistryDelta {
 public:
  void Begin(net::Server* server);
  void End(net::Server* server);

  int64_t Count(const std::string& counter) const;
  /// Mean of the values recorded into `histogram`; 0 if none were.
  double Mean(const std::string& histogram) const;
  /// Delta of ServerStats::totals (the simulated link costs).
  net::ConnectionStats Totals() const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
  net::ConnectionStats totals_before_;
  net::ConnectionStats totals_after_;
};

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_H_
