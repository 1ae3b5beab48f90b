// Live catalog statistics for the cost estimator, gathered from a
// storage::Database. Shared by the scheduler's EXPLAIN EXTRACTION
// join-plan annotation and the connection's EXPLAIN ANALYZE
// estimated-vs-actual columns, so both price plans against the same
// numbers.
#ifndef EQSQL_NET_TABLE_STATS_H_
#define EQSQL_NET_TABLE_STATS_H_

#include "core/cost_estimator.h"
#include "storage/database.h"

namespace eqsql::net {

/// Per-table committed row counts, average row widths, and ready-index
/// column lists with each index's distinct keys, read from each catalog
/// table's committed statistics counters in O(tables) plus O(buckets)
/// per index. Only indexed tables have entries in `table_indexes` and
/// `index_keys`.
core::TableStats GatherTableStats(storage::Database* db);

}  // namespace eqsql::net

#endif  // EQSQL_NET_TABLE_STATS_H_
