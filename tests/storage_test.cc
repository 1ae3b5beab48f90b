#include <gtest/gtest.h>

#include "storage/database.h"

namespace eqsql::storage {
namespace {

using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

TEST(TableTest, InsertAndScan) {
  Table t("users", TwoColSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("ann")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("bob")}).ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.rows()[1][1].AsString(), "bob");
}

TEST(TableTest, InsertArityMismatchFails) {
  Table t("users", TwoColSchema());
  Status s = t.Insert({Value::Int(1)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, UniqueKeyEnforced) {
  Table t("users", TwoColSchema());
  ASSERT_TRUE(t.DeclareUniqueKey("id").ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_FALSE(t.Insert({Value::Int(1), Value::String("b")}).ok());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, UniqueKeyLookup) {
  Table t("users", TwoColSchema());
  ASSERT_TRUE(t.DeclareUniqueKey("id").ok());
  ASSERT_TRUE(t.Insert({Value::Int(5), Value::String("e")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(9), Value::String("i")}).ok());
  EXPECT_EQ(t.LookupByKey(Value::Int(9)), 1u);
  EXPECT_FALSE(t.LookupByKey(Value::Int(4)).has_value());
}

TEST(TableTest, DeclareKeyOnExistingDataValidates) {
  Table t("users", TwoColSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("b")}).ok());
  EXPECT_FALSE(t.DeclareUniqueKey("id").ok());
}

TEST(TableTest, FailedDeclareKeyPreservesRows) {
  // Uniqueness is validated before any row moves, so a failed
  // DeclareUniqueKey must leave the table exactly as it was — not a
  // husk of moved-from rows.
  Table t("users", TwoColSchema(), /*shard_count=*/4);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("c")}).ok());
  const std::vector<Row> before = t.rows();

  EXPECT_FALSE(t.DeclareUniqueKey("id").ok());
  EXPECT_EQ(t.rows(), before);
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_FALSE(t.unique_key().has_value());

  // And the table keeps working: the failed declaration built no index.
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("d")}).ok());
  EXPECT_EQ(t.row_count(), 4u);
}

TEST(TableTest, FailedRekeyPreservesRowsAndOldKey) {
  // Same guarantee when a keyed table is re-keyed onto a non-unique
  // column: rows, old key, and old index all survive.
  Table t("users", TwoColSchema(), /*shard_count=*/2);
  ASSERT_TRUE(t.DeclareUniqueKey("id").ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("same")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("same")}).ok());
  const std::vector<Row> before = t.rows();

  EXPECT_FALSE(t.DeclareUniqueKey("name").ok());
  EXPECT_EQ(t.rows(), before);
  ASSERT_TRUE(t.unique_key().has_value());
  EXPECT_EQ(*t.unique_key(), "id");
  EXPECT_EQ(t.LookupByKey(Value::Int(2)), 1u);
}

TEST(TableTest, DeclareKeyUnknownColumnFails) {
  Table t("users", TwoColSchema());
  EXPECT_FALSE(t.DeclareUniqueKey("missing").ok());
}

TEST(DatabaseTest, CreateAndGet) {
  Database db;
  auto r = db.CreateTable("Board", TwoColSchema());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(db.HasTable("board"));          // case-insensitive
  ASSERT_TRUE(db.GetTable("BOARD").ok());
  EXPECT_EQ((*db.GetTable("board"))->name(), "Board");
}

TEST(DatabaseTest, DuplicateCreateFails) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_FALSE(db.CreateTable("T", TwoColSchema()).ok());
}

TEST(DatabaseTest, GetMissingFails) {
  Database db;
  Result<Table*> r = db.GetTable("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, TableNames) {
  Database db;
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  auto names = db.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // sorted by key
}

}  // namespace
}  // namespace eqsql::storage
