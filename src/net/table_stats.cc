#include "net/table_stats.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "storage/table.h"

namespace eqsql::net {

core::TableStats GatherTableStats(storage::Database* db) {
  core::TableStats stats;
  for (const std::string& name : db->TableNames()) {
    // Hold a reference while reading: another session's DropTempTable
    // may unpublish the table concurrently, and a raw pointer from the
    // registry would dangle once the last reference goes.
    std::shared_ptr<const storage::Table> table = db->SnapshotTable(name);
    if (table == nullptr) continue;
    const std::string key = AsciiToLower(name);
    const storage::TableScanStats vs =
        table->VisibleStats(storage::Snapshot::Latest());
    stats.table_rows[key] = static_cast<int64_t>(vs.rows);
    if (vs.rows > 0) {
      stats.row_bytes[key] = static_cast<int64_t>(vs.bytes / vs.rows);
    }
    std::vector<std::vector<std::string>> lists = table->IndexedColumnLists();
    if (!lists.empty()) stats.table_indexes[key] = std::move(lists);
  }
  return stats;
}

}  // namespace eqsql::net
