// Wall-clock benchmark of the eqsql server through its public API.
//
//   wallbench --workload compile|serve_read|serve_rw --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Sets up kSetupReps times (setup_s is the median), then runs a closed
// loop for S seconds, checking every answer. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics; a traced run (same
// workload and seed) records spans around each public call into a
// layer, writes them to PATH at exit, and reports the per-layer
// metrics. Lines before the object are a human-readable report.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "wallbench/workloads.h"

namespace wallbench {

namespace {

using eqsql::core::AlternativeKind;

bool ParseArgs(int argc, char** argv, RunConfig* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      out->workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      out->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      out->seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      out->trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--spans") == 0) {
      out->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && out->seconds > 0 &&
         (out->workload == "compile" || out->workload == "serve_read" ||
          out->workload == "serve_rw");
}

/// What running the system costs: CPU time per request, set-up time,
/// and peak memory. Request latency and throughput are reported with
/// the per-layer figures instead: on a host that steals CPU from its
/// guests, the serve workloads' thread hand-offs move them by more than
/// any useful bound from run to run, while CPU time stays within 10 %.
std::vector<Metric> EndToEnd(const Observed& o) {
  return {
      {"cpu_ms_per_req",
       Ratio(o.phase_cpu_s * 1e3, static_cast<double>(o.requests())), "ms"},
      {"setup_s", Median(o.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

/// Per-layer figures that need no spans: request latency (the median
/// over kWindow-request windows of each window's exact p50 and p99, so
/// a burst of host noise cannot move them; untraced requests only),
/// counts, shares, the write transactions' latency and the simulated
/// link costs. Per-request figures divide by the requests of the
/// measured phase (a write transaction is one request); per-app-request
/// ones by app runs.
std::vector<Metric> CountMetrics(const Observed& o, const Windowed& w) {
  const RegistryDelta& d = o.delta;
  const double requests = static_cast<double>(o.requests());
  const double app_requests = static_cast<double>(o.app_requests);
  const double hits = static_cast<double>(d.Count("plan_cache.hits"));
  const double misses = static_cast<double>(d.Count("plan_cache.misses"));
  const auto share = [&](AlternativeKind kind) {
    auto it = o.chosen.find(kind);
    return Ratio(it == o.chosen.end() ? 0.0 : static_cast<double>(it->second),
                 static_cast<double>(o.selections));
  };
  const auto per_app = [&](const char* counter) {
    return Ratio(static_cast<double>(d.Count(counter)), app_requests);
  };
  const net::ConnectionStats link = d.Totals();
  return {
      {"req_p50_ms", w.p50_ms, "ms"},
      {"req_p99_ms", w.p99_ms, "ms"},
      {"dir.loops_converted_ratio",
       Ratio(static_cast<double>(o.stages.loops_converted),
             static_cast<double>(o.stages.loops)),
       "ratio"},
      {"core.vars_extracted_ratio",
       Ratio(static_cast<double>(o.vars_extracted),
             static_cast<double>(o.vars)),
       "ratio"},
      {"core.select.regret", GeoMean(o.regrets), "ratio"},
      {"core.select.chosen_extracted", share(AlternativeKind::kExtractedSql),
       "ratio"},
      {"core.select.chosen_batching", share(AlternativeKind::kBatching),
       "ratio"},
      {"core.select.chosen_interpreted", share(AlternativeKind::kInterpreted),
       "ratio"},
      {"core.plan_cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"core.plan_cache.invalidations_per_req",
       Ratio(static_cast<double>(d.Count("plan_cache.invalidations")),
             requests),
       "count"},
      {"core.plan_cache.evictions_per_req",
       Ratio(static_cast<double>(d.Count("plan_cache.evictions")), requests),
       "count"},
      {"net.statements_per_req",
       Ratio(static_cast<double>(o.performs), app_requests), "count"},
      {"net.query_us", d.Mean("net.query_ns") / 1e3, "us"},
      {"net.scheduler.queue_wait_us",
       d.Mean("net.scheduler.queue_wait_ns") / 1e3, "us"},
      {"exec.rows_scanned_per_req", per_app("storage.scan.rows"), "count"},
      {"exec.pool_tasks_per_req", per_app("exec.pool.tasks"), "count"},
      {"exec.pool.task_us", d.Mean("exec.pool.task_ns") / 1e3, "us"},
      {"exec.batch_fallbacks_per_req", per_app("exec.batch.fallbacks"),
       "count"},
      {"baselines.fallback_ratio",
       Ratio(static_cast<double>(o.batching_fallbacks),
             static_cast<double>(o.batching_runs)),
       "ratio"},
      {"storage.txn_abort_ratio",
       Ratio(static_cast<double>(o.txn_conflicts),
             static_cast<double>(o.txn_attempts)),
       "ratio"},
      {"storage.lock_wait_us", d.Mean("storage.lock_wait_ns") / 1e3, "us"},
      {"txn_p50_ms", Quantile(o.txn_ms, 0.5), "ms"},
      {"txn_p99_ms", Quantile(o.txn_ms, 0.99), "ms"},
      // Rounded to a simulated nanosecond: the links' double sums depend
      // on which scheduler worker ran which statement, the cost does not.
      {"sim_ms_per_req",
       std::round(Ratio(link.simulated_ms, requests) * 1e6) / 1e6, "sim_ms"},
      {"round_trips_per_req",
       Ratio(static_cast<double>(link.round_trips), requests), "count"},
      {"kb_per_req",
       Ratio(static_cast<double>(link.bytes_transferred) / 1024.0, requests),
       "KiB"},
  };
}

double UntracedP50(const Observed& o) {
  std::vector<double> ms;
  for (const Sample& s : o.req) ms.push_back(s.ms);
  return Quantile(std::move(ms), 0.5);
}

/// Per-layer figures read from the traced requests' spans, in
/// microseconds per call. The compile stages come from the stage probe.
std::vector<Metric> SpanMetrics(const Observed& o) {
  const auto& spans = o.spans;
  const double build_us = MeanUs(spans, "dir.BuildFunction");
  const double perform_us = MeanUs(spans, "net.Perform");
  const double query_us = o.delta.Mean("net.query_ns") / 1e3;
  const double queue_us = o.delta.Mean("net.scheduler.queue_wait_ns") / 1e3;
  return {
      {"frontend.parse_us", MeanUs(spans, "frontend.ParseProgram"), "us"},
      {"dir.build_us", build_us, "us"},
      {"core.optimize_us", MeanUs(spans, "core.Optimize") - build_us, "us"},
      {"core.select_us", MeanUs(spans, "core.Select"), "us"},
      {"net.gather_stats_us", MeanUs(spans, "net.GatherTableStats"), "us"},
      {"net.perform_us", perform_us, "us"},
      // What a statement costs beyond executing it and waiting in the
      // queue: the submit / future / wake-up hand-off.
      {"net.handoff_us",
       perform_us > 0 ? perform_us - query_us - queue_us : 0.0, "us"},
      {"interp.self_us", SelfUs(spans, "interp.Run"), "us"},
      {"baselines.upload_us", MeanUs(spans, "baselines.CreateTempTable"),
       "us"},
      {"storage.dml_us", MeanUs(spans, "storage.Dml"), "us"},
      {"storage.commit_us", MeanUs(spans, "storage.Commit"), "us"},
      {"trace.overhead_ms",
       Quantile(o.traced_req_ms, 0.5) - UntracedP50(o), "ms"},
  };
}

void PrintResult(const Observed& o, const std::vector<Metric>& metrics) {
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: %s --workload compile|serve_read|serve_rw --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  const Observed observed =
      config.workload == "compile" ? RunCompile(config) : RunServe(config);

  std::printf("wallbench workload=%s seed=%llu seconds=%d trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& line : observed.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& line : observed.failures) {
    std::printf("failure %s\n", line.c_str());
  }
  const Windowed w =
      WindowStats(observed.req, observed.phase_start_ns, kWindow);
  std::printf("requests=%lld traced=%zu failed=%lld windows=%zu setup_s=",
              static_cast<long long>(observed.requests()),
              observed.traced_req_ms.size(),
              static_cast<long long>(observed.failed), w.windows);
  for (double s : observed.setup_s) std::printf("%.4f ", s);
  std::printf("\n");
  // Traced blocks sit between the untraced windows, so throughput only
  // means something in an untraced run.
  if (!config.trace) std::printf("req_per_s=%.6g\n", w.per_s);

  std::vector<Metric> metrics;
  if (config.trace) {
    metrics = CountMetrics(observed, w);
    for (Metric& m : SpanMetrics(observed)) metrics.push_back(std::move(m));
  } else {
    metrics = EndToEnd(observed);
    // The span-free per-layer figures, for the reader.
    for (const Metric& m : CountMetrics(observed, w)) {
      std::printf("layer %s=%.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s=%.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(observed, metrics);
  return 0;
}
