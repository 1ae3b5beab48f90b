#ifndef EQSQL_CATALOG_SCHEMA_H_
#define EQSQL_CATALOG_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"

namespace eqsql::catalog {

/// A column definition: name + type. Column names are case-sensitive
/// within EqSQL (our workloads use consistent lowercase names).
struct Column {
  std::string name;
  DataType type = DataType::kNull;
};

/// Where a column name resolves in a schema: at one column, nowhere, or
/// at several (an unqualified name matching more than one suffix).
struct ColumnMatch {
  enum class Kind { kFound, kAbsent, kAmbiguous };
  Kind kind = Kind::kAbsent;
  size_t index = 0;  // meaningful for kFound only

  bool found() const { return kind == Kind::kFound; }
  bool ambiguous() const { return kind == Kind::kAmbiguous; }
};

/// An ordered list of columns; rows conform positionally.
///
/// Schemas are value types (copyable). Lookup is linear — schemas in the
/// paper's workloads have at most tens of columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Matches `name` against the columns. An exact match always wins. A
  /// qualified name ("t.x") matches only exactly; an unqualified one
  /// also matches a stored qualified name's suffix, and is ambiguous
  /// when it matches more than one.
  ColumnMatch Find(const std::string& name) const;

  /// Index of `name`, or nullopt when it is absent or ambiguous.
  std::optional<size_t> IndexOf(const std::string& name) const {
    const ColumnMatch m = Find(name);
    return m.found() ? std::optional<size_t>(m.index) : std::nullopt;
  }

  /// Errors with kNotFound / kInvalidArgument (ambiguous) instead of
  /// returning nullopt.
  Result<size_t> ResolveColumn(const std::string& name) const;

  /// Appends a column; returns the new column's index.
  size_t AddColumn(Column column);

  /// Concatenation (for joins / outer apply): columns of `this` followed
  /// by columns of `right`.
  Schema Concat(const Schema& right) const;

  /// "name TYPE, name TYPE, ..." — for debugging and DESIGN docs.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Column> columns_;
};

bool operator==(const Schema& a, const Schema& b);

/// A tuple of values conforming positionally to some Schema.
using Row = std::vector<Value>;

/// Sum of wire sizes of the row's values (net/ cost model).
size_t RowWireSize(const Row& row);

/// Renders "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace eqsql::catalog

#endif  // EQSQL_CATALOG_SCHEMA_H_
