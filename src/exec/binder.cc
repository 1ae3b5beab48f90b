#include "exec/binder.h"

#include <algorithm>
#include <utility>

namespace eqsql::exec {

using catalog::Schema;
using ra::RaNode;
using ra::RaOp;
using ra::ScalarExprPtr;
using ra::ScalarOp;

namespace {

/// Splits an AND tree into its conjuncts.
void SplitConjuncts(const ScalarExprPtr& pred,
                    std::vector<ScalarExprPtr>* out) {
  if (pred == nullptr) return;
  if (pred->op() == ScalarOp::kAnd) {
    SplitConjuncts(pred->child(0), out);
    SplitConjuncts(pred->child(1), out);
    return;
  }
  out->push_back(pred);
}

/// True if some column `expr` names satisfies `pred`. Subqueries are
/// not descended: their names resolve in their own scopes first.
template <typename Pred>
bool AnyColumnRef(const ScalarExprPtr& expr, const Pred& pred) {
  if (expr->op() == ScalarOp::kColumnRef) return pred(expr->column_name());
  for (const ScalarExprPtr& c : expr->children()) {
    if (AnyColumnRef(c, pred)) return true;
  }
  return false;
}

/// True if `expr` references at least one column.
bool HasColumnRef(const ScalarExprPtr& expr) {
  return AnyColumnRef(expr, [](const std::string&) { return true; });
}

/// True if every column referenced in `expr` resolves in `schema`.
bool AllRefsResolve(const ScalarExprPtr& expr, const Schema& schema) {
  return !AnyColumnRef(expr, [&schema](const std::string& name) {
    return !schema.Find(name).found();
  });
}

/// True if `expr` names a column of `schema`, found or ambiguous.
bool NamesColumnOf(const ScalarExprPtr& expr, const Schema& schema) {
  return AnyColumnRef(expr, [&schema](const std::string& name) {
    return schema.Find(name).kind != catalog::ColumnMatch::Kind::kAbsent;
  });
}

/// True if the scalar tree contains a double literal or a positional
/// parameter (whose bound value might be a double). Subqueries are not
/// descended: EXISTS yields a bool, so doubles inside one cannot reach
/// an aggregation state.
bool MayProduceDouble(const ScalarExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->op() == ScalarOp::kLiteral && expr->literal().is_double()) {
    return true;
  }
  if (expr->op() == ScalarOp::kParameter) return true;
  for (const ScalarExprPtr& c : expr->children()) {
    if (MayProduceDouble(c)) return true;
  }
  return false;
}

bool SchemaHasDouble(const Schema& schema) {
  for (const catalog::Column& c : schema.columns()) {
    if (c.type == catalog::DataType::kDouble) return true;
  }
  return false;
}

/// Output column name for a group key expression.
std::string GroupKeyName(const ScalarExprPtr& key, size_t i) {
  if (key->op() == ScalarOp::kColumnRef) return key->column_name();
  return "key" + std::to_string(i);
}

/// The type of `expr` over `child` when it is a plain column of it.
catalog::DataType ColumnType(const ScalarExprPtr& expr, const Schema& child,
                             catalog::DataType otherwise) {
  if (expr == nullptr || expr->op() != ScalarOp::kColumnRef) return otherwise;
  std::optional<size_t> idx = child.IndexOf(expr->column_name());
  return idx.has_value() ? child.column(*idx).type : otherwise;
}

/// Walks a plan once, resolving every name against the frame schemas
/// its operators will push and the tables pinned in `guard`'s slots.
class Binder {
 public:
  explicit Binder(const storage::ReadGuard* guard) : guard_(guard) {}

  BoundNode BindNode(const RaNode& node, BindScope* scope);
  BoundExpr BindExpr(const ScalarExprPtr& expr, BindScope* scope);

 private:
  /// Binds `expr` with `frame` pushed as the innermost frame.
  BoundExpr BindOver(const ScalarExprPtr& expr, const Schema* frame,
                     BindScope* scope) {
    scope->push_back(frame);
    BoundExpr out = BindExpr(expr, scope);
    scope->pop_back();
    return out;
  }

  BoundScanSplit BindSplit(const ScalarExprPtr& pred, const Schema& scan,
                           const storage::Table& table, BindScope* scope);
  BoundJoin BindJoin(const RaNode& node, const BoundNode& left,
                     const BoundNode& right, const Schema& combined,
                     BindScope* scope);

  const storage::ReadGuard* guard_;  // null: every scan defers kNotFound
};

BoundExpr Binder::BindExpr(const ScalarExprPtr& expr, BindScope* scope) {
  BoundExpr out;
  if (expr == nullptr) {  // an absent predicate always holds
    out.literal = catalog::Value::Bool(true);
    return out;
  }
  out.op = expr->op();
  switch (expr->op()) {
    case ScalarOp::kColumnRef: {
      // Innermost frame first. A name ambiguous in a frame is an error
      // there: it never falls through to an outer frame.
      const std::string& name = expr->column_name();
      for (size_t level = scope->size(); level-- > 0;) {
        const Schema* frame = (*scope)[level];
        if (frame == nullptr) continue;
        const catalog::ColumnMatch m = frame->Find(name);
        if (m.found()) {
          out.level = static_cast<uint32_t>(level);
          out.column = static_cast<uint32_t>(m.index);
          return out;
        }
        if (m.ambiguous()) {
          out.error = frame->ResolveColumn(name).status();
          return out;
        }
      }
      out.error = Status::NotFound("unresolved column: " + name);
      return out;
    }
    case ScalarOp::kLiteral:
      out.literal = expr->literal();
      return out;
    case ScalarOp::kParameter:
      out.param = expr->parameter_index();
      return out;
    case ScalarOp::kExists:
    case ScalarOp::kNotExists:
      out.subquery =
          std::make_shared<const BoundNode>(BindNode(*expr->subquery(), scope));
      return out;
    default:
      break;
  }
  out.kids.reserve(expr->children().size());
  for (const ScalarExprPtr& c : expr->children()) {
    out.kids.push_back(BindExpr(c, scope));
  }
  return out;
}

BoundScanSplit Binder::BindSplit(const ScalarExprPtr& pred, const Schema& scan,
                                 const storage::Table& table,
                                 BindScope* scope) {
  std::vector<ScalarExprPtr> parts;
  SplitConjuncts(pred, &parts);
  const std::optional<std::string> key = table.unique_key();
  BoundScanSplit split;
  split.conjuncts.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const ScalarExprPtr& part = parts[i];
    BoundScanSplit::Conjunct& c = split.conjuncts.emplace_back();
    c.expr = BindOver(part, &scan, scope);
    if (part->op() != ScalarOp::kEq) continue;
    for (int side = 0; side < 2 && !c.value.has_value(); ++side) {
      const ScalarExprPtr& col = part->child(side);
      const ScalarExprPtr& val = part->child(1 - side);
      if (col->op() != ScalarOp::kColumnRef) continue;
      const catalog::ColumnMatch m = scan.Find(col->column_name());
      if (!m.found() || NamesColumnOf(val, scan)) continue;
      c.value = BindExpr(val, scope);
      const std::string& name = table.schema().column(m.index).name;
      if (split.key_binding < 0 && key.has_value() && name == *key) {
        split.key_binding = static_cast<int>(i);
      }
      std::vector<std::string>& bound = split.index_usable_columns;
      if (!HasColumnRef(val) &&
          std::find(bound.begin(), bound.end(), name) == bound.end()) {
        split.index_usable.push_back(i);
        bound.push_back(name);
      }
    }
  }
  return split;
}

BoundJoin Binder::BindJoin(const RaNode& node, const BoundNode& left,
                           const BoundNode& right, const Schema& combined,
                           BindScope* scope) {
  const Schema& ls = *left.schema;
  const Schema& rs = *right.schema;
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(node.predicate(), &conjuncts);
  std::vector<ScalarExprPtr> left_keys;
  std::vector<ScalarExprPtr> right_keys;
  std::vector<ScalarExprPtr> residual;
  for (const ScalarExprPtr& c : conjuncts) {
    bool classified = false;
    if (c->op() == ScalarOp::kEq && HasColumnRef(c->child(0)) &&
        HasColumnRef(c->child(1))) {
      for (int side = 0; side < 2 && !classified; ++side) {
        const ScalarExprPtr& l = c->child(side);
        const ScalarExprPtr& r = c->child(1 - side);
        classified = AllRefsResolve(l, ls) && AllRefsResolve(r, rs);
        if (classified) {
          left_keys.push_back(l);
          right_keys.push_back(r);
        }
      }
    }
    if (!classified) residual.push_back(c);
  }
  // With no key the residual is the predicate as written.
  if (left_keys.empty()) {
    residual.clear();
    if (node.predicate() != nullptr) residual.push_back(node.predicate());
  }
  BoundJoin join;
  for (const ScalarExprPtr& k : left_keys) {
    join.left_keys.push_back(BindOver(k, &ls, scope));
  }
  for (const ScalarExprPtr& k : right_keys) {
    join.right_keys.push_back(BindOver(k, &rs, scope));
  }
  for (const ScalarExprPtr& c : residual) {
    join.residual.push_back(BindOver(c, &combined, scope));
  }
  // An index can serve the right side when it is a base scan and every
  // right key is a distinct plain column of it.
  if (right.op == RaOp::kScan && right.table_error.ok()) {
    const storage::Table& table = *guard_->table(right.table_slot);
    std::vector<std::string>& cols = join.index_columns;
    for (const ScalarExprPtr& k : right_keys) {
      const catalog::ColumnMatch m =
          k->op() == ScalarOp::kColumnRef ? rs.Find(k->column_name())
                                          : catalog::ColumnMatch();
      const std::string* col =
          m.found() ? &table.schema().column(m.index).name : nullptr;
      if (col == nullptr ||
          std::find(cols.begin(), cols.end(), *col) != cols.end()) {
        cols.clear();
        break;
      }
      cols.push_back(*col);
    }
  }
  return join;
}

BoundNode Binder::BindNode(const RaNode& node, BindScope* scope) {
  BoundNode out;
  out.source = &node;
  out.op = node.op();
  out.depth = scope->size();
  // Children first; an operator's output schema is unknown when a
  // child's is, and carries the first such error in child order.
  auto inherit = [&out](const BoundNode& child) {
    if (out.schema_error.ok() && !child.schema_error.ok()) {
      out.schema_error = child.schema_error;
    }
  };
  switch (node.op()) {
    case RaOp::kScan: {
      const std::optional<size_t> slot =
          guard_ != nullptr ? guard_->SlotOf(node.table_name()) : std::nullopt;
      const storage::Table* table =
          slot.has_value() ? guard_->table(*slot) : nullptr;
      if (table == nullptr) {
        out.table_error = Status::NotFound("table not found: " +
                                           node.table_name());
        out.schema_error = out.table_error;
        return out;
      }
      out.table_slot = *slot;
      std::vector<catalog::Column> cols;
      cols.reserve(table->schema().size());
      for (const catalog::Column& c : table->schema().columns()) {
        cols.push_back({node.alias() + "." + c.name, c.type});
      }
      out.schema = std::make_shared<const Schema>(std::move(cols));
      return out;
    }
    case RaOp::kSelect: {
      out.children.push_back(BindNode(*node.child(0), scope));
      const BoundNode& child = out.children[0];
      inherit(child);
      out.schema = child.schema;
      out.predicate = BindOver(node.predicate(), child.schema.get(), scope);
      if (child.op == RaOp::kScan && child.table_error.ok()) {
        out.split = BindSplit(node.predicate(), *child.schema,
                              *guard_->table(child.table_slot), scope);
      }
      return out;
    }
    case RaOp::kProject: {
      out.children.push_back(BindNode(*node.child(0), scope));
      const BoundNode& child = out.children[0];
      inherit(child);
      for (const ra::ProjectItem& item : node.project_items()) {
        out.items.push_back(BindOver(item.expr, child.schema.get(), scope));
      }
      if (child.schema == nullptr) return out;
      std::vector<catalog::Column> cols;
      for (const ra::ProjectItem& item : node.project_items()) {
        catalog::DataType type =
            ColumnType(item.expr, *child.schema, catalog::DataType::kNull);
        if (item.expr->op() == ScalarOp::kLiteral) {
          type = item.expr->literal().type();
        }
        cols.push_back({item.name, type});
      }
      out.schema = std::make_shared<const Schema>(std::move(cols));
      return out;
    }
    case RaOp::kJoin:
    case RaOp::kLeftOuterJoin:
    case RaOp::kOuterApply: {
      out.children.reserve(2);
      out.children.push_back(BindNode(*node.child(0), scope));
      const BoundNode& left = out.children[0];
      // An apply's right side runs once per left row, with that row
      // pushed; a join's sides run side by side.
      const bool apply = node.op() == RaOp::kOuterApply;
      if (apply) scope->push_back(left.schema.get());
      out.children.push_back(BindNode(*node.child(1), scope));
      if (apply) scope->pop_back();
      const BoundNode& right = out.children[1];
      inherit(left);
      inherit(right);
      if (!out.schema_error.ok()) return out;
      out.schema =
          std::make_shared<const Schema>(left.schema->Concat(*right.schema));
      if (!apply) out.join = BindJoin(node, left, right, *out.schema, scope);
      return out;
    }
    case RaOp::kGroupBy: {
      out.children.push_back(BindNode(*node.child(0), scope));
      const BoundNode& child = out.children[0];
      inherit(child);
      for (const ScalarExprPtr& k : node.group_keys()) {
        out.keys.push_back(BindOver(k, child.schema.get(), scope));
      }
      for (const ra::AggregateSpec& a : node.aggregates()) {
        out.aggs.push_back(a.arg == nullptr
                               ? BoundExpr()
                               : BindOver(a.arg, child.schema.get(), scope));
      }
      if (child.schema == nullptr) return out;
      std::vector<catalog::Column> cols;
      const auto& keys = node.group_keys();
      for (size_t i = 0; i < keys.size(); ++i) {
        cols.push_back({GroupKeyName(keys[i], i),
                        ColumnType(keys[i], *child.schema,
                                   catalog::DataType::kNull)});
      }
      for (const ra::AggregateSpec& agg : node.aggregates()) {
        catalog::DataType type = catalog::DataType::kInt64;
        if (agg.func == ra::AggFunc::kAvg) type = catalog::DataType::kDouble;
        if (agg.func == ra::AggFunc::kMin || agg.func == ra::AggFunc::kMax ||
            agg.func == ra::AggFunc::kSum) {
          type = ColumnType(agg.arg, *child.schema, type);
        }
        cols.push_back({agg.name, type});
      }
      out.schema = std::make_shared<const Schema>(std::move(cols));
      // The exactness gate of the fused scan fold: no double column in
      // the scanned table, no double literal or parameter in the keys,
      // aggregate arguments or filter, and no filter binding the unique
      // key (that filter keeps the key lookup's 1-probe charge).
      const BoundNode* scan = child.op == RaOp::kScan ? &child : nullptr;
      const BoundNode* select = nullptr;
      if (child.op == RaOp::kSelect && child.children[0].op == RaOp::kScan) {
        select = &child;
        scan = &child.children[0];
      }
      if (scan != nullptr && scan->table_error.ok()) {
        bool hazard =
            SchemaHasDouble(guard_->table(scan->table_slot)->schema());
        if (select != nullptr) {
          hazard = hazard || MayProduceDouble(select->source->predicate()) ||
                   select->split->key_binding >= 0;
        }
        for (const ScalarExprPtr& k : node.group_keys()) {
          hazard = hazard || MayProduceDouble(k);
        }
        for (const ra::AggregateSpec& a : node.aggregates()) {
          hazard = hazard || MayProduceDouble(a.arg);
        }
        out.exact_fold = !hazard;
      }
      return out;
    }
    case RaOp::kSort: {
      out.children.push_back(BindNode(*node.child(0), scope));
      const BoundNode& child = out.children[0];
      inherit(child);
      out.schema = child.schema;
      for (const ra::SortKey& k : node.sort_keys()) {
        out.keys.push_back(BindOver(k.expr, child.schema.get(), scope));
      }
      return out;
    }
    case RaOp::kDedup:
    case RaOp::kLimit: {
      out.children.push_back(BindNode(*node.child(0), scope));
      inherit(out.children[0]);
      out.schema = out.children[0].schema;
      return out;
    }
  }
  out.schema_error = Status::Internal("Bind: unknown operator");
  return out;
}

}  // namespace

BoundExpr BindScalar(const ScalarExprPtr& expr, const BindScope& scope) {
  Binder binder(nullptr);
  BindScope frames = scope;
  return binder.BindExpr(expr, &frames);
}

bool BoundPlan::Matches(const storage::ReadGuard& guard) const {
  if (guard.slot_count() != shapes_.size()) return false;
  for (size_t i = 0; i < shapes_.size(); ++i) {
    const storage::Table* table = guard.table(i);
    const TableShape& shape = shapes_[i];
    if ((table != nullptr) != shape.present) return false;
    if (table == nullptr) continue;
    if (!(table->schema() == shape.schema) ||
        table->unique_key() != shape.unique_key) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const BoundPlan> BindPlan(const RaNode& plan,
                                          const storage::ReadGuard& guard) {
  auto bound = std::make_shared<BoundPlan>();
  bound->shapes_.resize(guard.slot_count());
  for (size_t i = 0; i < guard.slot_count(); ++i) {
    const storage::Table* table = guard.table(i);
    if (table == nullptr) continue;
    bound->shapes_[i] = {true, table->schema(), table->unique_key()};
  }
  Binder binder(&guard);
  BindScope scope;
  bound->root_ = binder.BindNode(plan, &scope);
  bound->request_bytes_ = plan.ToString().size();
  return bound;
}

PreparedQuery::PreparedQuery(ra::RaNodePtr plan)
    : plan_(std::move(plan)), tables_(ra::CollectScannedTables(plan_)) {}

std::shared_ptr<const BoundPlan> PreparedQuery::BoundFor(
    const storage::ReadGuard& guard) const {
  std::shared_ptr<const BoundPlan> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cached = bound_;
  }
  // Compare and bind outside the lock, so sessions running the same
  // line do not queue behind the schema comparison. Concurrent first
  // executions may both bind (identically); the last one published wins.
  if (cached != nullptr && cached->Matches(guard)) return cached;
  std::shared_ptr<const BoundPlan> fresh = BindPlan(*plan_, guard);
  std::lock_guard<std::mutex> lock(mu_);
  bound_ = fresh;
  return fresh;
}

}  // namespace eqsql::exec
