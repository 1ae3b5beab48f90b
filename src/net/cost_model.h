#ifndef EQSQL_NET_COST_MODEL_H_
#define EQSQL_NET_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace eqsql::net {

/// Deterministic cost model for the simulated client/server link.
///
/// The paper's evaluation (Sec. 7, Figures 8-11) measures wall-clock
/// time against a local MySQL server; what drives the reported shapes is
/// (a) the number of network round trips and (b) the volume of data
/// shipped. We reproduce those two drivers with a simulated clock so
/// benchmark *series* are exactly reproducible run to run:
///
///   time(query) = round_trip_latency_ms            (one RTT)
///               + request_bytes / bandwidth
///               + server_cost_per_row_ms * rows_processed_on_server
///               + result_bytes / bandwidth
///
/// Prefetching [19] overlaps the RTT with client computation, so in
/// prefetch mode only the first query of a run pays latency. Batching
/// [11] ships a parameter table first, paying param_table_overhead_ms.
struct CostModel {
  /// One client<->server round trip (default models a LAN: 0.35 ms).
  double round_trip_latency_ms = 0.35;
  /// Link bandwidth in bytes per millisecond (default ~ 50 MB/s).
  double bytes_per_ms = 50000.0;
  /// Server-side work per row processed by any operator.
  double server_cost_per_row_ms = 0.0004;
  /// Fixed per-query server overhead (parse/plan/dispatch).
  double query_overhead_ms = 0.05;
  /// Creating + loading a temporary parameter table (batching baseline).
  double param_table_overhead_ms = 2.0;
  /// Client-side interpreted work per executed statement. Models the
  /// application's own loop cost (the paper's Java code); the database
  /// processes rows faster than the app iterates them.
  double client_cost_per_op_ms = 0.00005;

  double TransferMs(size_t bytes) const {
    return static_cast<double>(bytes) / bytes_per_ms;
  }
  double ServerMs(size_t rows_processed) const {
    return server_cost_per_row_ms * static_cast<double>(rows_processed);
  }
  /// The application's own work for a client-side loop over `rows`
  /// rows: four ops per row (cursor advance, result handling, merge
  /// bookkeeping). What a strategy that iterates on the client pays and
  /// set-oriented SQL avoids.
  double ClientLoopMs(double rows) const {
    return client_cost_per_op_ms * rows * 4.0;
  }
};

/// Per-connection counters, reset with Connection::ResetStats().
struct ConnectionStats {
  int64_t queries_executed = 0;
  int64_t round_trips = 0;
  int64_t rows_transferred = 0;
  int64_t bytes_transferred = 0;  // request + result bytes
  /// Simulated elapsed time on the deterministic clock.
  double simulated_ms = 0.0;
};

}  // namespace eqsql::net

#endif  // EQSQL_NET_COST_MODEL_H_
