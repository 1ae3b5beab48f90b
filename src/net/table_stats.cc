#include "net/table_stats.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "storage/index.h"
#include "storage/table.h"

namespace eqsql::net {

core::TableStats GatherTableStats(storage::Database* db) {
  core::TableStats stats;
  // Catalog tables only: sessions keep their temp tables to themselves.
  for (const std::string& name : db->TableNames()) {
    std::shared_ptr<const storage::Table> table = db->SnapshotTable(name);
    const std::string key = AsciiToLower(name);
    const size_t rows = table->row_count();
    stats.table_rows[key] = static_cast<int64_t>(rows);
    if (rows > 0) {
      stats.row_bytes[key] = static_cast<int64_t>(table->byte_count() / rows);
    }
    std::vector<std::vector<std::string>> lists = table->IndexedColumnLists();
    if (lists.empty()) continue;
    std::vector<int64_t>& keys = stats.index_keys[key];
    for (const std::vector<std::string>& cols : lists) {
      std::shared_ptr<const storage::SecondaryIndex> index =
          table->FindIndex(cols);
      keys.push_back(static_cast<int64_t>(
          index != nullptr ? index->distinct_keys() : rows));
    }
    stats.table_indexes[key] = std::move(lists);
  }
  return stats;
}

}  // namespace eqsql::net
