#ifndef EQSQL_NET_COST_MODEL_H_
#define EQSQL_NET_COST_MODEL_H_

#include <cstdint>

namespace eqsql::net {

/// One bill of simulated work, in the units the cost model prices.
/// Every charge net::Connection makes is one of these with exact
/// counts, and every estimate the optimizer prices is one with
/// estimated counts, so an estimate and the bill of the run it predicts
/// go through the same formula (CostModel::Ms).
struct Work {
  double round_trips = 0;        // client<->server latencies paid
  double statements = 0;         // statements the server dispatches
  double uploads = 0;            // parameter tables created and loaded
  double bytes = 0;              // request + result + upload bytes
  double server_rows = 0;        // rows processed by server operators
  double client_statements = 0;  // statements the application executes

  Work& operator+=(const Work& other) {
    round_trips += other.round_trips;
    statements += other.statements;
    uploads += other.uploads;
    bytes += other.bytes;
    server_rows += other.server_rows;
    client_statements += other.client_statements;
    return *this;
  }
  /// This work done `times` times.
  Work Times(double times) const {
    return {round_trips * times, statements * times,
            uploads * times,     bytes * times,
            server_rows * times, client_statements * times};
  }
};

/// Deterministic cost model for the simulated client/server link.
///
/// The paper's evaluation (Sec. 7, Figures 8-11) measures wall-clock
/// time against a local MySQL server; what drives the reported shapes is
/// (a) the number of network round trips and (b) the volume of data
/// shipped. We reproduce those two drivers with a simulated clock so
/// benchmark *series* are exactly reproducible run to run. Ms() is the
/// one formula; a query, for example, costs
///
///   query_overhead_ms + (request + result bytes) / bandwidth
///     + server_cost_per_row_ms * rows_processed_on_server
///     + round_trip_latency_ms
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

  /// Simulated milliseconds of `work`. The terms are summed in the
  /// order a query's charge has always been summed, so a query's bill
  /// is bit-identical to the formula it replaced.
  double Ms(const Work& work) const {
    return work.statements * query_overhead_ms + work.bytes / bytes_per_ms +
           server_cost_per_row_ms * work.server_rows +
           work.round_trips * round_trip_latency_ms +
           work.uploads * param_table_overhead_ms +
           work.client_statements * client_cost_per_op_ms;
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
