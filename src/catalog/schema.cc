#include "catalog/schema.h"

#include "common/strings.h"

namespace eqsql::catalog {

namespace {

thread_local uint64_t find_calls = 0;

}  // namespace

uint64_t FindCallsOnThisThread() { return find_calls; }

ColumnMatch Schema::Find(const std::string& name) const {
  ++find_calls;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return {ColumnMatch::Kind::kFound, i};
  }
  ColumnMatch match;
  if (name.find('.') != std::string::npos) return match;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const std::string& stored = columns_[i].name;
    const size_t dot = stored.rfind('.');
    if (dot == std::string::npos ||
        stored.compare(dot + 1, std::string::npos, name) != 0) {
      continue;
    }
    if (match.found()) return {ColumnMatch::Kind::kAmbiguous, 0};
    match = {ColumnMatch::Kind::kFound, i};
  }
  return match;
}

Result<size_t> Schema::ResolveColumn(const std::string& name) const {
  const ColumnMatch m = Find(name);
  if (m.ambiguous()) {
    return Status::InvalidArgument("ambiguous column: " + name);
  }
  if (!m.found()) return Status::NotFound("column not found: " + name);
  return m.index;
}

size_t Schema::AddColumn(Column column) {
  columns_.push_back(std::move(column));
  return columns_.size() - 1;
}

Schema Schema::Concat(const Schema& right) const {
  std::vector<Column> cols = columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(c.name + " " + std::string(DataTypeToString(c.type)));
  }
  return StrJoin(parts, ", ");
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.columns_.size() != b.columns_.size()) return false;
  for (size_t i = 0; i < a.columns_.size(); ++i) {
    if (a.columns_[i].name != b.columns_[i].name ||
        a.columns_[i].type != b.columns_[i].type) {
      return false;
    }
  }
  return true;
}

size_t RowWireSize(const Row& row) {
  size_t total = 0;
  for (const Value& v : row) total += v.WireSize();
  return total;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace eqsql::catalog
