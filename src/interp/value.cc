#include "interp/value.h"

namespace eqsql::interp {

bool SetObject::Insert(RtValue value) {
  std::string key = value.DisplayString();
  for (const std::string& existing : keys) {
    if (existing == key) return false;
  }
  keys.push_back(std::move(key));
  items.push_back(std::move(value));
  return true;
}

namespace {

void AppendScalar(const catalog::Value& v, std::string* out) {
  if (v.is_string()) {
    *out += v.AsString();  // no quotes in display form
  } else {
    *out += v.ToString();
  }
}

void AppendRow(const catalog::Row& row, std::string* out) {
  *out += '(';
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) *out += ", ";
    AppendScalar(row[i], out);
  }
  *out += ')';
}

void AppendItems(const std::vector<RtValue>& items, char open, char close,
                 std::string* out) {
  *out += open;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) *out += ", ";
    items[i].AppendDisplay(out);
  }
  *out += close;
}

}  // namespace

std::string RtValue::DisplayString() const {
  std::string out;
  AppendDisplay(&out);
  return out;
}

void RtValue::AppendDisplay(std::string* out) const {
  if (is_scalar()) {
    AppendScalar(scalar(), out);
  } else if (is_row()) {
    AppendRow(row().row(), out);
  } else if (is_list()) {
    AppendItems(list()->items, '[', ']', out);
  } else if (is_set()) {
    AppendItems(set()->items, '{', '}', out);
  } else if (is_tuple()) {
    AppendItems(tuple()->items, '(', ')', out);
  } else {
    // A result set. Single-column results display like lists of
    // scalars so they compare equal to the imperative lists they replace.
    const std::vector<catalog::Row>& rows = result_set()->rows;
    *out += '[';
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) *out += ", ";
      if (rows[i].size() == 1) {
        AppendScalar(rows[i][0], out);
      } else {
        AppendRow(rows[i], out);
      }
    }
    *out += ']';
  }
}

}  // namespace eqsql::interp
