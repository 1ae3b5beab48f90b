#ifndef EQSQL_EXEC_BINDER_H_
#define EQSQL_EXEC_BINDER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "ra/ra_node.h"
#include "storage/shard_guard.h"

namespace eqsql::exec {

// SQL binding. A plan is bound once against the tables one execution
// pins and the bound copy runs every later execution: column
// references become (frame level, column) slots, scans become table
// slots, and every per-operator fact that depends only on schemas --
// output schemas, Select(Scan) predicate splits, join key splits, the
// group-by exactness gate -- is fixed. The executor then resolves no
// name while it runs. The bound tree mirrors the shared RaNode /
// ScalarExpr tree occurrence by occurrence (a shared subtree under two
// scopes binds twice) and writes nothing into it.

struct BoundNode;

/// One scalar expression, bound. Levels count frames from the outermost
/// one the execution pushed (absolute, not relative to the innermost),
/// so an outer column reads the same slot whether or not the operator
/// evaluating it has pushed its own frame.
struct BoundExpr {
  ra::ScalarOp op = ra::ScalarOp::kLiteral;
  /// kColumnRef: the frame level and the column within that frame.
  uint32_t level = 0;
  uint32_t column = 0;
  /// kColumnRef: the deferred resolution error of an unresolved or
  /// ambiguous name (OK when resolved). It is raised only if the
  /// reference is evaluated, exactly where name lookup used to fail.
  Status error;
  /// kParameter: the 0-based parameter position.
  int param = -1;
  /// kLiteral.
  catalog::Value literal;
  std::vector<BoundExpr> kids;
  /// kExists / kNotExists: the subquery, bound in the scope the
  /// expression evaluates in.
  std::shared_ptr<const BoundNode> subquery;
};

/// A Select(Scan) predicate split into its conjuncts, in predicate
/// order. A binding is a `column = value` conjunct whose column belongs
/// to the scan and whose value names no column of the scan. Names
/// resolve innermost scope first and the scan is the innermost scope of
/// its own predicate, so a value naming a scan column -- even
/// ambiguously -- depends on the row and binds nothing. Each point
/// access path consumes the bindings it can use; every conjunct it does
/// not consume is its residual, re-checked in predicate order.
struct BoundScanSplit {
  struct Conjunct {
    /// The conjunct, bound with the scan's frame innermost.
    BoundExpr expr;
    /// A binding's value side, bound without the scan's frame: the
    /// point paths evaluate it before any row exists. Null unless a
    /// binding.
    std::optional<BoundExpr> value;
  };
  std::vector<Conjunct> conjuncts;
  /// The first binding on the table's unique key, or -1, and that key
  /// column (the table's spelling).
  int key_binding = -1;
  std::string key_column;
  /// The bindings a secondary index can serve -- column-free values,
  /// the first per column -- in predicate order, with the table column
  /// each binds.
  std::vector<size_t> index_usable;
  std::vector<std::string> index_usable_columns;
};

/// A join predicate split into equi-keys -- `l = r` where each side
/// names columns, all of them its own input's -- and the residual.
struct BoundJoin {
  std::vector<BoundExpr> left_keys;   // bound over the left inputs' rows
  std::vector<BoundExpr> right_keys;  // bound over the right row alone
  /// Re-checked over every input's row as one AND in this order: the
  /// conjuncts no key consumed, or the whole predicate when there is no
  /// key. Empty = always holds.
  std::vector<BoundExpr> residual;
  /// When the right side is a base scan and every right key is a
  /// distinct plain column of it: those columns, for an index nested
  /// loop. Empty otherwise.
  std::vector<std::string> index_columns;
};

/// Where one output column of an operator lives at run time: the input
/// whose row holds it, and the column within that row.
struct ColumnSlot {
  uint32_t input = 0;
  uint32_t column = 0;
};

/// One plan operator, bound.
struct BoundNode {
  /// The shared node: operator parameters (limit, sort directions,
  /// aggregate functions) and the profile key.
  const ra::RaNode* source = nullptr;
  ra::RaOp op = ra::RaOp::kScan;
  std::vector<BoundNode> children;
  /// Frames on the evaluation stack while this operator runs.
  size_t depth = 0;
  /// The output schema, shared by every ResultSet this operator
  /// produces; null when `schema_error` is set (a table below was
  /// missing at bind time).
  std::shared_ptr<const catalog::Schema> schema;
  Status schema_error;
  /// kScan: the table's guard slot; or, when the table was missing at
  /// bind time, kNotFound (and no slot).
  size_t table_slot = 0;
  Status table_error;
  /// kSelect: the predicate over the child's row; and, over a scan of
  /// a present table, its split.
  BoundExpr predicate;
  std::optional<BoundScanSplit> split;
  /// kProject: items. kSort / kGroupBy: keys. kGroupBy: aggregate
  /// arguments (a literal placeholder for COUNT(*)).
  std::vector<BoundExpr> items;
  std::vector<BoundExpr> keys;
  std::vector<BoundExpr> aggs;
  /// kGroupBy over [Select(]Scan[)] of a present table: no value that
  /// reaches an aggregation state can be a double, and no filter binds
  /// the unique key, so shard partials merge exactly.
  bool exact_fold = false;
  /// kJoin / kLeftOuterJoin, when both inputs' schemas are known.
  std::optional<BoundJoin> join;
  /// The operator's output tuples: each holds one row reference per
  /// input, and `slots[i]` places output column i. A scan, a GroupBy and
  /// a Project that computes its items have one input: the rows they
  /// read or make. Select, Sort, Dedup and Limit keep their child's
  /// inputs and slots, and so does a Project whose items are all plain
  /// columns (`maps_slots`). A join or apply is a level of a join chain:
  /// it adds one input, its right side's row, after its left side's.
  /// Expressions over an operator's input push one frame per input and
  /// read these slots; their names still resolve against the flat
  /// schema. A node whose schema is unknown has one input and no slots.
  size_t inputs = 1;
  std::vector<ColumnSlot> slots;
  /// kProject: every item is a plain column of the input's tuples (no
  /// deferred error, no outer frame), so the operator only maps slots
  /// and makes no row.
  bool maps_slots = false;
  /// kOuterApply whose right side is Project?(Select(Scan R)) over a
  /// present table: the level takes each left row's candidates from R
  /// directly, by the Select's access path, with no subplan run. Its
  /// right row is R's row itself, borrowed, when the Project (if any)
  /// maps slots; otherwise the level computes the Project's items into
  /// a row it owns.
  bool probe = false;
};

/// One name scope at bind time: the schema names resolve against, and
/// the evaluation frames behind it. A plain scope is one frame read in
/// place. An operator's output tuples span one frame per input, and
/// `slots` places each of their columns. A null schema marks a scope
/// whose schema is unknown (a missing table below); nothing bound
/// against it can run, since producing its row would have failed first.
struct BindFrame {
  BindFrame(const catalog::Schema* s) : schema(s) {}  // NOLINT: implicit
  BindFrame(const catalog::Schema* s, std::vector<ColumnSlot> columns,
            size_t n)
      : schema(s), slots(std::move(columns)), frames(n) {}

  const catalog::Schema* schema = nullptr;
  std::vector<ColumnSlot> slots;
  size_t frames = 1;
};

/// A stack of scopes at bind time, outermost first.
using BindScope = std::vector<BindFrame>;

/// Binds a standalone scalar (DML expressions) over `scope`. Subqueries
/// bind with no tables, so their scans defer kNotFound.
BoundExpr BindScalar(const ra::ScalarExprPtr& expr, const BindScope& scope);

/// Splits an UPDATE/DELETE predicate over `table`'s own rows exactly as
/// a Select(Scan) of `table` splits, with an empty outer scope: the one
/// classifier behind SELECT's and keyed DML's unique-key path.
BoundScanSplit BindScanSplit(const ra::ScalarExprPtr& pred,
                             const storage::Table& table);

/// A plan bound against the table shapes one execution pinned.
/// Immutable, so sessions share it.
class BoundPlan {
 public:
  const BoundNode& root() const { return root_; }

  /// Request bytes charged per execution: the plan's rendering stands
  /// in for the SQL text.
  size_t request_bytes() const { return request_bytes_; }

  /// True while every slot of `guard` holds a table shaped as at bind
  /// time: the same columns and unique key, or absent as it was.
  /// Compares content, never addresses, so a table republished under
  /// the same name with other columns does not match.
  bool Matches(const storage::ReadGuard& guard) const;

 private:
  friend std::shared_ptr<const BoundPlan> BindPlan(
      const ra::RaNode& plan, const storage::ReadGuard& guard);

  struct TableShape {
    bool present = false;
    catalog::Schema schema;
    std::optional<std::string> unique_key;
  };
  std::vector<TableShape> shapes_;
  BoundNode root_;
  size_t request_bytes_ = 0;
};

/// Binds `plan` against the tables pinned in `guard`: each scan binds to
/// the slot of its table's name (guard.SlotOf).
std::shared_ptr<const BoundPlan> BindPlan(const ra::RaNode& plan,
                                          const storage::ReadGuard& guard);

/// A parsed query as a plan-cache line holds it: the shared plan, the
/// tables it scans, and the plan bound against the table shapes it last
/// ran over. Binding is lazy -- a line that is only priced or rendered
/// never binds -- and every method is thread-safe.
class PreparedQuery {
 public:
  explicit PreparedQuery(ra::RaNodePtr plan);

  const ra::RaNodePtr& plan() const { return plan_; }
  /// The tables the plan scans (ra::CollectScannedTables): what a
  /// ReadGuard for its executions pins.
  const std::vector<std::string>& tables() const { return tables_; }

  /// The bound plan for `guard`'s tables: the cached one while it
  /// matches them, otherwise a fresh binding that replaces it.
  std::shared_ptr<const BoundPlan> BoundFor(
      const storage::ReadGuard& guard) const;

 private:
  ra::RaNodePtr plan_;
  std::vector<std::string> tables_;
  mutable std::mutex mu_;
  mutable std::shared_ptr<const BoundPlan> bound_;
};

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_BINDER_H_
