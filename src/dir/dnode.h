#ifndef EQSQL_DIR_DNODE_H_
#define EQSQL_DIR_DNODE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "ra/ra_node.h"

namespace eqsql::dir {

/// Operators of the equivalent-expression DAG (paper Sec. 3.2.1).
///
/// The ee-DAG unifies three vocabularies:
///  * imperative scalar operators (arithmetic, logic, max/min, "?"),
///  * embedded relational queries (kQuery wraps a parsed RA tree;
///    "parameterized queries ... can be treated as parameterized
///    expressions in the multiset relational algebra"),
///  * the F-IR extension: kFold (Sec. 4) and the non-algebraic kLoop.
enum class DOp {
  // --- leaves ---
  kConst,        // literal catalog::Value
  kRegionInput,  // v0: the value of a variable at region entry
  kTupleAttr,    // t.attr for a cursor tuple variable t
  kTupleRef,     // the whole cursor tuple t
  kAccParam,     // <v>: the accumulator parameter of a fold function
  kQuery,        // embedded query: RA tree + parameter expressions
  kOpaque,       // untranslatable value; blocks extraction of dependents
  // --- scalar operators ---
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kNot, kNeg,
  kConcat,
  kMax, kMin,    // binary max/min (Math.max modeling, Sec. 3.2.1)
  kCoalesce,     // null-default; used when folding init into aggregates
  kScalar,       // first column of the first row of a query result
  kCond,         // "?": conditional evaluation, 3 children
  // --- collections ---
  kEmptyList,
  kEmptySet,
  kAppend,       // list append: (list, element)
  kInsert,       // set insert: (set, element)
  kTuple,        // tuple construction (group-by results, argmax pairs)
  // --- loops and folds ---
  kLoop,         // Loop[Q, e_body]: non-algebraic (Sec. 3.2.1)
  kFold,         // fold[f, init, Q] (Sec. 4): children {f, init, Q}
};

std::string_view DOpToString(DOp op);

class DNode;
using DNodePtr = std::shared_ptr<const DNode>;

/// One ee-DAG node. Nodes are immutable and hash-consed by DagContext:
/// structurally equal nodes are the same object, so common
/// sub-expressions are shared (paper Sec. 3.2.1) and equality is pointer
/// comparison.
class DNode {
 public:
  DOp op() const { return op_; }
  const std::vector<DNodePtr>& children() const { return children_; }
  const DNodePtr& child(size_t i) const { return children_[i]; }

  /// kConst.
  const catalog::Value& value() const { return value_; }
  /// kRegionInput: variable name; kTupleAttr/kTupleRef: tuple variable;
  /// kAccParam: accumulated variable; kOpaque: reason.
  const std::string& name() const { return name_; }
  /// kTupleAttr: attribute name.
  const std::string& attr() const { return attr_; }
  /// kQuery: the relational-algebra tree (children are parameters).
  const ra::RaNodePtr& query() const { return query_; }
  /// kFold / kLoop: the cursor tuple variable bound by the fold function.
  const std::string& tuple_var() const { return tuple_var_; }

  // kFold accessors: children are {function, init, query}.
  const DNodePtr& fold_fn() const { return children_[0]; }
  const DNodePtr& fold_init() const { return children_[1]; }
  const DNodePtr& fold_query() const { return children_[2]; }

  /// Structural rendering, e.g. "fold[max[<v>, t.x], 0, Q(...)]".
  std::string ToString() const;

  size_t StructuralHash() const { return hash_; }

  /// Levels of the D-IR tree under this node, itself included (a leaf
  /// is 1; an embedded query's RA tree does not count).
  int depth() const { return depth_; }

 private:
  friend class DagContext;
  DNode() = default;

  DOp op_ = DOp::kConst;
  std::vector<DNodePtr> children_;
  catalog::Value value_;
  std::string name_;
  std::string attr_;
  ra::RaNodePtr query_;
  std::string tuple_var_;
  size_t hash_ = 0;
  int depth_ = 1;
};

/// The arena + hash-consing table for ee-DAG nodes (paper Sec. 3.3: "a
/// composite id ... is assigned to each node, and a hash table is used
/// for searching"). All nodes for one optimization run must come from
/// the same context so pointer equality means structural equality.
class DagContext {
 public:
  DagContext() = default;
  DagContext(const DagContext&) = delete;
  DagContext& operator=(const DagContext&) = delete;

  DNodePtr Const(catalog::Value v);
  DNodePtr ConstInt(int64_t v) { return Const(catalog::Value::Int(v)); }
  DNodePtr ConstBool(bool v) { return Const(catalog::Value::Bool(v)); }
  DNodePtr RegionInput(const std::string& var);
  DNodePtr TupleAttr(const std::string& tuple_var, const std::string& attr);
  DNodePtr TupleRef(const std::string& tuple_var);
  DNodePtr AccParam(const std::string& var);
  DNodePtr Query(ra::RaNodePtr query, std::vector<DNodePtr> params = {});
  DNodePtr Opaque(const std::string& reason);
  /// `node`, or an opaque value in its place when it is deeper than
  /// kMaxParseDepth. Statements chain a variable's expression onto its
  /// previous one, so a long body (`x = x + 1;` repeated) would build a
  /// tree as deep as the body is long, past what the recursive passes
  /// over it can hold on the stack. The opaque value reports a depth
  /// past the bound, so whatever is built on it is replaced in turn.
  DNodePtr Bounded(DNodePtr node);
  DNodePtr Unary(DOp op, DNodePtr operand);
  DNodePtr Binary(DOp op, DNodePtr lhs, DNodePtr rhs);
  DNodePtr Nary(DOp op, std::vector<DNodePtr> children);
  /// Conditional evaluation with min/max and boolean-flag normalization
  /// (paper Sec. 4.2 and App. B "checking for existence"):
  ///   ?[e > v, e, v]      => max[e, v]      (likewise >=, <, <=)
  ///   ?[c, true, v]       => or[v, c]
  ///   ?[c, false, v]      => and[v, not c]
  DNodePtr Cond(DNodePtr cond, DNodePtr then_v, DNodePtr else_v);
  DNodePtr EmptyList();
  DNodePtr EmptySet();
  DNodePtr Append(DNodePtr list, DNodePtr elem);
  DNodePtr Insert(DNodePtr set, DNodePtr elem);
  DNodePtr Tuple(std::vector<DNodePtr> elems);
  DNodePtr Loop(DNodePtr query, DNodePtr body, const std::string& tuple_var);
  DNodePtr Fold(DNodePtr fn, DNodePtr init, DNodePtr query,
                const std::string& tuple_var);

  /// Replaces kRegionInput leaves named in `map` with the mapped nodes
  /// (memoized over the DAG). Used for the sequential-region merge.
  DNodePtr SubstituteInputs(const DNodePtr& node,
                            const std::map<std::string, DNodePtr>& map);

  /// Replaces the kRegionInput leaf for `var` with an kAccParam leaf
  /// (fold-function construction).
  DNodePtr InputToAccParam(const DNodePtr& node, const std::string& var);

  /// Replaces kAccParam leaves for `var` with `replacement` (rule
  /// application, e.g. T6).
  DNodePtr SubstituteAccParam(const DNodePtr& node, const std::string& var,
                              DNodePtr replacement);

  /// True if any node in the DAG satisfies `pred`.
  static bool Contains(const DNodePtr& node,
                       const std::function<bool(const DNode&)>& pred);

  size_t node_count() const { return nodes_.size(); }

 private:
  DNodePtr Intern(std::shared_ptr<DNode> node);
  static size_t ComputeHash(const DNode& node);
  static bool StructurallyEqual(const DNode& a, const DNode& b);

  std::unordered_map<size_t, std::vector<DNodePtr>> nodes_;
};

/// The variable→expression map attached to every region (paper
/// Sec. 3.2.2). Ordered so diagnostics are deterministic.
using VeMap = std::map<std::string, DNodePtr>;

}  // namespace eqsql::dir

#endif  // EQSQL_DIR_DNODE_H_
