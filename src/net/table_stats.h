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

/// Snapshot of per-table row counts, average row widths, and indexed
/// column lists at Snapshot::Latest(). Only indexed tables have an
/// entry in `table_indexes`.
core::TableStats GatherTableStats(storage::Database* db);

}  // namespace eqsql::net

#endif  // EQSQL_NET_TABLE_STATS_H_
