#ifndef EQSQL_INTERP_VALUE_H_
#define EQSQL_INTERP_VALUE_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "catalog/schema.h"
#include "exec/executor.h"

namespace eqsql::interp {

class RtValue;

/// A materialized query result. Immutable once a value refers to it, so
/// cursor rows can point into it.
struct ResultSetObject {
  std::shared_ptr<const catalog::Schema> schema;
  std::vector<catalog::Row> rows;
};

/// One row of a result set (a cursor tuple), read in place: the
/// reference keeps the result set alive instead of copying the row.
struct RowRef {
  std::shared_ptr<const ResultSetObject> set;
  size_t index = 0;

  const std::shared_ptr<const catalog::Schema>& schema() const {
    return set->schema;
  }
  const catalog::Row& row() const { return set->rows[index]; }
};

/// A mutable ordered collection with Java-like reference semantics.
struct ListObject {
  std::vector<RtValue> items;
};

/// A mutable set preserving insertion order, deduplicating by display
/// string (sufficient for scalar and tuple elements).
struct SetObject {
  std::vector<RtValue> items;
  std::vector<std::string> keys;  // parallel display-string keys

  bool Insert(RtValue value);
};

/// An immutable tuple (pair(...) / tuple(...) builtins).
struct TupleObject {
  std::vector<RtValue> items;
};

/// An ImpLang runtime value: a SQL scalar, a cursor row, or a reference
/// to a heap object (list, set, tuple, result set). References share the
/// underlying object, matching Java collection semantics.
class RtValue {
 public:
  RtValue() : data_(catalog::Value()) {}
  /*implicit*/ RtValue(catalog::Value v) : data_(std::move(v)) {}
  /*implicit*/ RtValue(RowRef v) : data_(std::move(v)) {}
  /*implicit*/ RtValue(std::shared_ptr<ListObject> v) : data_(std::move(v)) {}
  /*implicit*/ RtValue(std::shared_ptr<SetObject> v) : data_(std::move(v)) {}
  /*implicit*/ RtValue(std::shared_ptr<TupleObject> v)
      : data_(std::move(v)) {}
  /*implicit*/ RtValue(std::shared_ptr<const ResultSetObject> v)
      : data_(std::move(v)) {}

  bool is_scalar() const {
    return std::holds_alternative<catalog::Value>(data_);
  }
  bool is_row() const { return std::holds_alternative<RowRef>(data_); }
  bool is_list() const {
    return std::holds_alternative<std::shared_ptr<ListObject>>(data_);
  }
  bool is_set() const {
    return std::holds_alternative<std::shared_ptr<SetObject>>(data_);
  }
  bool is_tuple() const {
    return std::holds_alternative<std::shared_ptr<TupleObject>>(data_);
  }
  bool is_result_set() const {
    return std::holds_alternative<std::shared_ptr<const ResultSetObject>>(
        data_);
  }

  const catalog::Value& scalar() const {
    return std::get<catalog::Value>(data_);
  }
  const RowRef& row() const { return std::get<RowRef>(data_); }
  const std::shared_ptr<ListObject>& list() const {
    return std::get<std::shared_ptr<ListObject>>(data_);
  }
  const std::shared_ptr<SetObject>& set() const {
    return std::get<std::shared_ptr<SetObject>>(data_);
  }
  const std::shared_ptr<TupleObject>& tuple() const {
    return std::get<std::shared_ptr<TupleObject>>(data_);
  }
  const std::shared_ptr<const ResultSetObject>& result_set() const {
    return std::get<std::shared_ptr<const ResultSetObject>>(data_);
  }

  /// Human-readable rendering: scalars without quotes, collections as
  /// "[a, b]" / "{a, b}", tuples as "(a, b)", rows as "(v1, v2, ...)".
  /// Used for print capture and equivalence checks.
  std::string DisplayString() const;
  /// Appends DisplayString() to `out`.
  void AppendDisplay(std::string* out) const;

 private:
  std::variant<catalog::Value, RowRef, std::shared_ptr<ListObject>,
               std::shared_ptr<SetObject>, std::shared_ptr<TupleObject>,
               std::shared_ptr<const ResultSetObject>>
      data_;
};

}  // namespace eqsql::interp

#endif  // EQSQL_INTERP_VALUE_H_
