#include "fuzz/program_gen.h"

#include <algorithm>
#include <utility>

namespace eqsql::fuzz {

using catalog::DataType;

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kFilterCollect: return "filter_collect";
    case Family::kScalarAgg: return "scalar_agg";
    case Family::kMaxMin: return "maxmin";
    case Family::kExists: return "exists";
    case Family::kJoin: return "join";
    case Family::kGroupBy: return "groupby";
    case Family::kArgmax: return "argmax";
    case Family::kApply: return "apply";
    case Family::kPrint: return "print";
    case Family::kBreak: return "break";
    case Family::kPartial: return "partial";
    case Family::kMultiAgg: return "multi_agg";
    case Family::kConcat: return "concat";
    case Family::kCorrExists: return "corr_exists";
    case Family::kDml: return "dml";
    case Family::kTxn: return "txn";
    case Family::kIndex: return "index";
    case Family::kBatch: return "batch";
  }
  return "?";
}

namespace {

std::vector<int> Weights(const GenOptions& o) {
  return {o.w_filter_collect, o.w_scalar_agg, o.w_maxmin,  o.w_exists,
          o.w_join,           o.w_groupby,    o.w_argmax,  o.w_apply,
          o.w_print,          o.w_break,      o.w_partial, o.w_multi,
          o.w_concat,         o.w_corr_exists, o.w_dml,    o.w_txn,
          o.w_index,          o.w_batch};
}

constexpr Family kFamilies[] = {
    Family::kFilterCollect, Family::kScalarAgg, Family::kMaxMin,
    Family::kExists,        Family::kJoin,      Family::kGroupBy,
    Family::kArgmax,        Family::kApply,     Family::kPrint,
    Family::kBreak,         Family::kPartial,   Family::kMultiAgg,
    Family::kConcat,        Family::kCorrExists, Family::kDml,
    Family::kTxn,           Family::kIndex,     Family::kBatch,
};

bool NeedsDim(Family f) {
  return f == Family::kJoin || f == Family::kGroupBy ||
         f == Family::kApply || f == Family::kCorrExists ||
         f == Family::kBatch;
}

/// One string column's value domain ("<prefix>0" .. "<prefix>k").
struct StrCol {
  std::string name;
  std::string prefix;
  int64_t distinct = 6;
};

/// The fact table's randomized column roster. Columns are grouped by
/// the semantic role the renderers need:
///  * notnull_ints — arithmetic fold targets. Imperative `s = s + r.x`
///    poisons the sum with NULL while SQL's SUM skips NULLs, so folds
///    must accumulate NOT NULL columns to be equivalence-comparable
///    (mirrors the paper's Java ints, which cannot be null).
///  * nullable_ints — predicate / max-min material, where NULL handling
///    differences between ImpLang and SQL are exactly what the oracle
///    should probe.
///  * strings — equality predicates, projections, string folds.
struct FactShape {
  std::vector<std::string> notnull_ints;
  std::vector<std::string> nullable_ints;
  std::vector<StrCol> strings;
  bool has_key = true;
};

FactShape MakeFactShape(Rng* rng) {
  FactShape shape;
  // Anchor columns keep hand-reading easy; extras randomize the width.
  shape.notnull_ints.push_back("w");
  for (int i = 2, n = static_cast<int>(rng->Range(1, 3)); i <= n; ++i) {
    shape.notnull_ints.push_back("w" + std::to_string(i));
  }
  shape.nullable_ints.push_back("v");
  if (rng->Percent(35)) shape.nullable_ints.push_back("v2");
  shape.strings.push_back({"name", "n", rng->Range(3, 8)});
  if (rng->Percent(30)) {
    shape.strings.push_back({"label", "L", rng->Range(2, 5)});
  }
  shape.has_key = !rng->Percent(6);
  return shape;
}

/// The dimension table: t1(id key, u, tag [, z...]).
TableSpec MakeDim(Rng* rng, const DataOptions& data) {
  TableSpec spec;
  spec.name = "t1";
  spec.unique_key = "id";
  std::vector<ColumnGen> cols(3);
  cols[0].column = {"id", DataType::kInt64};
  cols[0].kind = ColumnGen::Kind::kSequential;
  cols[1].column = {"u", DataType::kInt64};
  cols[1].lo = 0;
  cols[1].hi = rng->Range(10, 40);
  cols[2].column = {"tag", DataType::kString};
  cols[2].kind = ColumnGen::Kind::kString;
  cols[2].prefix = "g";
  cols[2].distinct = rng->Range(3, 6);
  if (rng->Percent(25)) {  // shape-only padding the programs never read
    ColumnGen pad;
    pad.column = {"z", DataType::kInt64};
    pad.lo = -5;
    pad.hi = 5;
    cols.push_back(pad);
  }
  // Dimensions stay small so joins/group-bys see many-to-one fan-in.
  DataOptions dim_data = data;
  dim_data.max_rows = std::max(2, data.max_rows / 6);
  GenerateRows(rng, dim_data, cols, PickRowCount(rng, dim_data), &spec);
  return spec;
}

/// The fact table: t0(id [key], fk, <shape columns> [, pad]).
TableSpec MakeFact(Rng* rng, const DataOptions& data, const FactShape& shape,
                   int64_t dim_rows) {
  TableSpec spec;
  spec.name = "t0";
  spec.unique_key = shape.has_key ? "id" : "";
  std::vector<ColumnGen> cols;
  {
    ColumnGen id;
    id.column = {"id", DataType::kInt64};
    id.kind = ColumnGen::Kind::kSequential;
    cols.push_back(id);
  }
  {
    ColumnGen fk;
    fk.column = {"fk", DataType::kInt64};
    fk.lo = 0;
    fk.hi = std::max<int64_t>(dim_rows + 1, 2);  // dangling refs too
    fk.nullable = rng->Percent(25);
    cols.push_back(fk);
  }
  for (const std::string& name : shape.nullable_ints) {
    ColumnGen c;
    c.column = {name, DataType::kInt64};
    c.lo = -20;
    c.hi = 100;
    c.nullable = rng->Percent(60);
    cols.push_back(c);
  }
  for (const std::string& name : shape.notnull_ints) {
    ColumnGen c;
    c.column = {name, DataType::kInt64};
    c.lo = 0;
    c.hi = 50;
    cols.push_back(c);
  }
  for (const StrCol& sc : shape.strings) {
    ColumnGen c;
    c.column = {sc.name, DataType::kString};
    c.kind = ColumnGen::Kind::kString;
    c.prefix = sc.prefix;
    c.distinct = sc.distinct;
    cols.push_back(c);
  }
  if (rng->Percent(20)) {  // padding column the program never touches
    ColumnGen pad;
    pad.column = {"pad", DataType::kInt64};
    pad.lo = 0;
    pad.hi = 9;
    pad.nullable = rng->Percent(50);
    cols.push_back(pad);
  }
  GenerateRows(rng, data, cols, PickRowCount(rng, data), &spec);
  return spec;
}

/// A random integer value column of either nullability.
const std::string& AnyIntCol(Rng* rng, const FactShape& shape) {
  if (rng->Percent(55)) return rng->Pick(shape.nullable_ints);
  return rng->Pick(shape.notnull_ints);
}

/// A random comparison over fact-table cursor `r`.
std::string FactPredicate(Rng* rng, const FactShape& shape,
                          const std::string& r) {
  static const std::vector<std::string> ops = {">", "<", ">=",
                                               "<=", "==", "!="};
  auto atom = [&]() -> std::string {
    int roll = static_cast<int>(rng->Range(0, 9));
    if (roll < 2) {
      const StrCol& sc = rng->Pick(shape.strings);
      return r + "." + sc.name + " " + (rng->Percent(50) ? "==" : "!=") +
             " \"" + sc.prefix + std::to_string(rng->Range(0, sc.distinct)) +
             "\"";
    }
    const std::string& col = AnyIntCol(rng, shape);
    return r + "." + col + " " + rng->Pick(ops) + " " +
           std::to_string(rng->Range(-5, 105));
  };
  std::string pred = atom();
  if (rng->Percent(25)) {
    // Parenthesized so callers can conjoin with a join-key equality
    // without `&&`/`||` precedence widening the predicate.
    pred = "(" + pred + (rng->Percent(50) ? " && " : " || ") + atom() + ")";
  }
  return pred;
}

/// A random per-row projection over cursor `r`. Scalars only when
/// `scalar_only` (set elements and print arguments).
std::string FactProjection(Rng* rng, const FactShape& shape,
                           const std::string& r, bool scalar_only) {
  const std::string& str = shape.strings[0].name;
  const std::string& nn = rng->Pick(shape.notnull_ints);
  int roll = static_cast<int>(rng->Range(0, scalar_only ? 4 : 5));
  switch (roll) {
    case 0: return r + "." + str;
    case 1: return r + "." + rng->Pick(shape.nullable_ints);
    case 2: return r + "." + nn;
    case 3: return r + "." + shape.nullable_ints[0] + " + " + r + "." + nn;
    case 4: return r + "." + nn + " * 2";
    default:
      return "pair(" + r + "." + str + ", " + r + "." +
             shape.nullable_ints[0] + ")";
  }
}

std::string Guarded(const std::string& pred, const std::string& stmt) {
  return "    if (" + pred + ") { " + stmt + " }\n";
}

std::string Scan(const std::string& handle, const std::string& alias,
                 const std::string& table) {
  return "  " + handle + " = executeQuery(\"SELECT * FROM " + table +
         " AS " + alias + "\");\n";
}

// --- family renderers ----------------------------------------------------
// Each returns the body of `func f() { ... }` for its family.

std::string GenFilterCollect(Rng* rng, const FactShape& shape) {
  bool use_set = rng->Percent(25);
  bool guarded = rng->Percent(80);
  std::string s = "  out = " + std::string(use_set ? "set()" : "list()") +
                  ";\n" + Scan("rows", "r", "t0");
  std::string append = std::string("out.") +
                       (use_set ? "insert" : "append") + "(" +
                       FactProjection(rng, shape, "r", use_set) + ");";
  s += "  for (r : rows) {\n";
  s += guarded ? Guarded(FactPredicate(rng, shape, "r"), append)
               : "    " + append + "\n";
  s += "  }\n  return out;\n";
  return s;
}

std::string GenScalarAgg(Rng* rng, const FactShape& shape) {
  bool is_count = rng->Percent(40);
  const std::string& col = rng->Pick(shape.notnull_ints);
  std::string init = std::to_string(rng->Range(-10, 10));
  std::string update = is_count ? "s = s + 1;" : "s = s + r." + col + ";";
  std::string s = "  s = " + init + ";\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += rng->Percent(80) ? Guarded(FactPredicate(rng, shape, "r"), update)
                        : "    " + update + "\n";
  s += "  }\n  return s;\n";
  return s;
}

std::string GenMaxMin(Rng* rng, const FactShape& shape) {
  bool is_max = rng->Percent(50);
  bool builtin = rng->Percent(40);
  const std::string& col = AnyIntCol(rng, shape);
  std::string init = std::to_string(rng->Range(-30, 60));
  std::string s = "  m = " + init + ";\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  if (builtin) {
    s += "    m = " + std::string(is_max ? "max" : "min") + "(m, r." + col +
         ");\n";
  } else {
    s += Guarded("r." + col + (is_max ? " > m" : " < m"),
                 "m = r." + col + ";");
  }
  s += "  }\n  return m;\n";
  return s;
}

std::string GenExists(Rng* rng, const FactShape& shape) {
  bool negated = rng->Percent(30);  // NOT EXISTS shape
  std::string s = "  found = " + std::string(negated ? "true" : "false") +
                  ";\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += Guarded(FactPredicate(rng, shape, "r"),
               negated ? "found = false;" : "found = true;");
  s += "  }\n  return found;\n";
  return s;
}

std::string GenJoin(Rng* rng, const FactShape& shape) {
  std::string pred = "a.fk == b.id";
  if (rng->Percent(40)) pred += " && " + FactPredicate(rng, shape, "a");
  std::string proj = rng->Percent(50)
                         ? "pair(a." + shape.strings[0].name + ", b.tag)"
                         : "pair(a." + shape.nullable_ints[0] + ", b.u)";
  std::string s = "  out = list();\n" + Scan("as", "a", "t0") +
                  Scan("bs", "b", "t1");
  s += "  for (a : as) {\n    for (b : bs) {\n";
  s += "      if (" + pred + ") { out.append(" + proj + "); }\n";
  s += "    }\n  }\n  return out;\n";
  return s;
}

std::string GenGroupBy(Rng* rng, const FactShape& shape) {
  int kind = static_cast<int>(rng->Range(0, 2));  // sum / count / max
  const std::string& nn = rng->Pick(shape.notnull_ints);
  const std::string& nullable = shape.nullable_ints[0];
  std::string init = kind == 2 ? std::to_string(rng->Range(-10, 30))
                               : std::to_string(rng->Range(-5, 5));
  std::string update = kind == 0   ? "agg = agg + m." + nn + ";"
                       : kind == 1 ? "agg = agg + 1;"
                                   : "agg = m." + nullable + ";";
  std::string guard = kind == 2 ? "m." + nullable + " > agg"
                                : FactPredicate(rng, shape, "m");
  std::string s = "  out = list();\n" + Scan("ds", "d", "t1");
  s += "  for (d : ds) {\n";
  s += "    agg = " + init + ";\n";
  s += "    ms = executeQuery(\"SELECT * FROM t0 AS m WHERE m.fk = ?\", "
       "d.id);\n";
  s += "    for (m : ms) {\n";
  s += "      if (" + guard + ") { " + update + " }\n";
  s += "    }\n";
  s += "    out.append(pair(d.tag, agg));\n";
  s += "  }\n  return out;\n";
  return s;
}

std::string GenArgmax(Rng* rng, const FactShape& shape) {
  bool is_max = rng->Percent(60);
  const std::string& col = AnyIntCol(rng, shape);
  const std::string& str = shape.strings[0].name;
  std::string init = std::to_string(rng->Range(-30, 40));
  std::string s = "  best = " + init + ";\n  who = \"none\";\n" +
                  Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += "    if (r." + col + (is_max ? " > best" : " < best") +
       ") { best = r." + col + "; who = r." + str + "; }\n";
  s += "  }\n  return pair(who, best);\n";
  return s;
}

std::string GenApply(Rng* rng, const FactShape& shape) {
  bool collect = rng->Percent(50);
  const std::string& str = shape.strings[0].name;
  std::string s = collect ? "  out = list();\n" : "";
  s += Scan("rows", "a", "t0");
  s += "  for (a : rows) {\n";
  s += "    aux = scalar(executeQuery(\"SELECT b.u AS u FROM t1 AS b WHERE "
       "b.id = ?\", a.fk));\n";
  s += collect ? "    out.append(pair(a." + str + ", aux));\n"
               : "    print(pair(a." + str + ", aux));\n";
  s += "  }\n";
  if (collect) s += "  return out;\n";
  return s;
}

/// The batching baseline's home turf: per-row point probes of the keyed
/// dimension with loop-pure parameters — exactly the shape the
/// set-oriented rewrite in baselines/batching_exec.h targets. Probing
/// the unique key keeps every demultiplexed group at most one row, so
/// row order cannot differ between per-row and batched execution, and
/// the oracle's three arms (original, extracted, batched) must agree
/// exactly. The concat variant pins the case where extraction refuses
/// (no rule targets string folds) while batching still applies. The
/// star variant probes with SELECT * and reads the rows in a nested
/// loop: its batched join carries the parameter table's columns first,
/// which the interpreter strips by position.
std::string GenBatch(Rng* rng, const FactShape& shape) {
  const std::string& str = shape.strings[0].name;
  const bool arith = rng->Percent(40);
  const bool second_site = rng->Percent(35);
  const bool guarded = rng->Percent(30);
  const int emit_kind = static_cast<int>(rng->Range(0, 3));
  const bool star = rng->Percent(30);
  const std::string param =
      arith ? "a.fk + " + std::to_string(rng->Range(0, 2)) : "a.fk";
  std::string s = emit_kind == 0   ? "  out = list();\n"
                  : emit_kind == 1 ? "  s = \"\";\n"
                                   : "";
  s += Scan("rows", "a", "t0");
  s += "  for (a : rows) {\n";
  std::string proj;
  if (star) {
    s += "    bs = executeQuery(\"SELECT * FROM t1 AS b WHERE b.id = ?\", " +
         param + ");\n    for (b : bs) {\n";
    proj = "tuple(a." + str + ", b.u, b.tag)";
  } else {
    s += "    x = scalar(executeQuery(\"SELECT b.u AS u FROM t1 AS b WHERE "
         "b.id = ?\", " + param + "));\n";
    proj = "pair(a." + str + ", x)";
    if (second_site) {
      s += "    y = scalar(executeQuery(\"SELECT b.tag AS tag FROM t1 AS b "
           "WHERE b.id = ?\", a.fk));\n";
      proj = "tuple(a." + str + ", x, y)";
    }
  }
  const std::string emit = emit_kind == 0   ? "out.append(" + proj + ");"
                           : emit_kind == 1 ? "s = concat(s, " + proj + ");"
                                            : "print(" + proj + ");";
  s += guarded ? Guarded(FactPredicate(rng, shape, "a"), emit)
               : "    " + emit + "\n";
  if (star) s += "    }\n";
  s += "  }\n";
  if (emit_kind == 0) s += "  return out;\n";
  if (emit_kind == 1) s += "  return s;\n";
  return s;
}

std::string GenPrint(Rng* rng, const FactShape& shape) {
  std::string s = Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += Guarded(FactPredicate(rng, shape, "r"),
               "print(" + FactProjection(rng, shape, "r", true) + ");");
  s += "  }\n";
  return s;
}

std::string GenBreak(Rng* rng, const FactShape& shape) {
  std::string s = "  out = list();\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += Guarded(FactPredicate(rng, shape, "r"), "break;");
  s += "    out.append(r." + shape.strings[0].name + ");\n";
  s += "  }\n  return out;\n";
  return s;
}

std::string GenPartial(Rng* rng, const FactShape& shape) {
  const std::string& col = rng->Pick(shape.notnull_ints);
  std::string s = "  s = 0;\n  d = " + std::to_string(rng->Range(0, 3)) +
                  ";\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += "    s = s + r." + col + ";\n    d = d + s;\n";
  s += "  }\n  return pair(s, d);\n";
  return s;
}

std::string GenMultiAgg(Rng* rng, const FactShape& shape) {
  const std::string& nullable = shape.nullable_ints[0];
  std::string init = std::to_string(rng->Range(-10, 20));
  std::string s = "  n = 0;\n  m = " + init + ";\n" +
                  Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += Guarded(FactPredicate(rng, shape, "r"), "n = n + 1;");
  s += Guarded("r." + nullable + " > m", "m = r." + nullable + ";");
  s += "  }\n  return pair(n, m);\n";
  return s;
}

/// String aggregation: a concat fold over a string column, optionally
/// guarded. No transformation rule targets string folds yet, so today
/// this family pins the refusal path (the program must survive intact
/// and equivalent); when a string_agg rule lands, the same family
/// starts validating it with zero generator changes.
std::string GenConcat(Rng* rng, const FactShape& shape) {
  const StrCol& sc = rng->Pick(shape.strings);
  bool guarded = rng->Percent(60);
  std::string update = "s = concat(s, r." + sc.name + ");";
  std::string s = "  s = \"\";\n" + Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += guarded ? Guarded(FactPredicate(rng, shape, "r"), update)
               : "    " + update + "\n";
  s += "  }\n  return s;\n";
  return s;
}

/// Correlated EXISTS inside a predicate: an inner per-row query sets a
/// flag that guards the collection — the imperative spelling of
/// `WHERE EXISTS (SELECT .. FROM t1 b WHERE b.id = a.fk AND b.u > K)`.
std::string GenCorrExists(Rng* rng, const FactShape& shape) {
  bool negated = rng->Percent(25);
  std::string inner_guard = "b.u " + std::string(rng->Percent(50) ? ">" : "<=") +
                            " " + std::to_string(rng->Range(0, 30));
  std::string s = "  out = list();\n" + Scan("as", "a", "t0");
  s += "  for (a : as) {\n";
  s += "    found = false;\n";
  s += "    bs = executeQuery(\"SELECT * FROM t1 AS b WHERE b.id = ?\", "
       "a.fk);\n";
  s += "    for (b : bs) {\n";
  s += "      if (" + inner_guard + ") { found = true; }\n";
  s += "    }\n";
  s += "    if (" + std::string(negated ? "!found" : "found") +
       ") { out.append(a." + shape.strings[0].name + "); }\n";
  s += "  }\n  return out;\n";
  return s;
}

/// Real DML: a guarded INSERT into the keyless scratch table t2 for
/// each fact row, an optional blanket/filtered UPDATE, then a read-back
/// fold over t2. executeUpdate is a side effect no rule may fold away,
/// so the insert loop must survive rewriting untouched while the
/// read-back loop is fair game — the family probes the refusal path,
/// DML/extraction interleaving, and (under --shards) the per-shard
/// write-lock path against partition-parallel reads.
std::string GenDml(Rng* rng, const FactShape& shape) {
  const std::string& nn = rng->Pick(shape.notnull_ints);
  bool guarded = rng->Percent(75);
  std::string insert =
      "executeUpdate(\"INSERT INTO t2 VALUES (?, ?)\", r.id, r." + nn + ");";
  std::string s = Scan("rows", "r", "t0");
  s += "  for (r : rows) {\n";
  s += guarded ? Guarded(FactPredicate(rng, shape, "r"), insert)
               : "    " + insert + "\n";
  s += "  }\n";
  if (rng->Percent(60)) {
    std::string stmt = "UPDATE t2 SET b = b + " +
                       std::to_string(rng->Range(1, 9));
    if (rng->Percent(50)) {
      stmt += " WHERE a > " + std::to_string(rng->Range(0, 40));
    }
    s += "  executeUpdate(\"" + stmt + "\");\n";
  }
  s += "  s = 0;\n" + Scan("back", "x", "t2");
  s += "  for (x : back) {\n    s = s + x.b;\n  }\n  return s;\n";
  return s;
}

/// One random DML/SELECT statement for the txn schedule. Key-space [0,
/// 14] on the keyed table is deliberately tight against the seeded ids,
/// so duplicate-key inserts, first-writer-wins conflicts, and DELETE +
/// reinsert chains all occur organically.
std::string TxnStatement(Rng* rng) {
  switch (rng->Range(0, 10)) {
    case 0:
    case 1:
      return "INSERT INTO t0 VALUES (" + std::to_string(rng->Range(0, 14)) +
             ", " + std::to_string(rng->Range(-5, 40)) + ")";
    case 2:
      return "UPDATE t0 SET v = v + " + std::to_string(rng->Range(1, 9)) +
             " WHERE id = " + std::to_string(rng->Range(0, 14));
    case 3:
      return "UPDATE t0 SET v = v - " + std::to_string(rng->Range(1, 5)) +
             " WHERE v > " + std::to_string(rng->Range(10, 35));
    case 4:
      return "DELETE FROM t0 WHERE id = " + std::to_string(rng->Range(0, 14));
    case 5:
      return "DELETE FROM t0 WHERE v < " + std::to_string(rng->Range(-5, 5));
    case 6:
      return "INSERT INTO t1 VALUES (" + std::to_string(rng->Range(0, 9)) +
             ", " + std::to_string(rng->Range(-10, 30)) + ")";
    case 7:
      return "UPDATE t1 SET b = b + " + std::to_string(rng->Range(1, 6)) +
             " WHERE a <= " + std::to_string(rng->Range(0, 9));
    case 8:
      return "DELETE FROM t1 WHERE b > " + std::to_string(rng->Range(15, 35));
    case 9:
      return "SELECT * FROM t0 AS r";
    default:
      return "SELECT * FROM t1 AS r";
  }
}

/// One statement of a keyed-only txn schedule: every read is one key of
/// t0 (a keyed UPDATE/DELETE, with or without a residual, or a keyed
/// INSERT's duplicate check), so commit validation runs at key grain
/// throughout and an unsound key check shows up as a replay divergence
/// instead of hiding behind a table-grain read.
std::string KeyedTxnStatement(Rng* rng) {
  const std::string id = std::to_string(rng->Range(0, 14));
  switch (rng->Range(0, 3)) {
    case 0:
      return "INSERT INTO t0 VALUES (" + id + ", " +
             std::to_string(rng->Range(-5, 40)) + ")";
    case 1:
      return "UPDATE t0 SET v = v + " + std::to_string(rng->Range(1, 9)) +
             " WHERE id = " + id;
    case 2:
      return "UPDATE t0 SET v = v + " + std::to_string(rng->Range(1, 9)) +
             " WHERE id = " + id + " AND v > " +
             std::to_string(rng->Range(0, 40));
    default:
      return "DELETE FROM t0 WHERE id = " + id;
  }
}

/// A txn-family case: no ImpLang program, but a multi-session schedule
/// (function "@txn") the oracle executes interleaved and then replays
/// single-threaded in commit order. Line format: `<session> <SQL>`.
/// Sessions open transactions, write both a keyed and a keyless table,
/// and close with COMMIT or ROLLBACK; statements outside BEGIN...COMMIT
/// autocommit. Two in five schedules use keyed statements only
/// (KeyedTxnStatement). The generator's open/closed bookkeeping is a
/// prediction only — a mid-transaction conflict aborts earlier than
/// planned, which is exactly the behavior the replay oracle must track.
FuzzCase GenTxnCase(uint64_t seed, Rng* rng) {
  FuzzCase c;
  c.seed = seed;
  c.function = "@txn";

  TableSpec keyed;
  keyed.name = "t0";
  keyed.unique_key = "id";
  keyed.columns = {{"id", DataType::kInt64}, {"v", DataType::kInt64}};
  const int64_t n = rng->Range(4, 10);
  for (int64_t i = 0; i < n; ++i) {
    keyed.rows.push_back(
        {catalog::Value::Int(i), catalog::Value::Int(rng->Range(0, 40))});
  }
  c.tables.push_back(std::move(keyed));

  TableSpec keyless;
  keyless.name = "t1";
  keyless.columns = {{"a", DataType::kInt64}, {"b", DataType::kInt64}};
  const int64_t m = rng->Range(1, 4);
  for (int64_t i = 0; i < m; ++i) {
    keyless.rows.push_back({catalog::Value::Int(rng->Range(0, 9)),
                            catalog::Value::Int(rng->Range(-10, 30))});
  }
  c.tables.push_back(std::move(keyless));

  const int sessions = static_cast<int>(rng->Range(2, 4));
  const int steps = static_cast<int>(rng->Range(10, 24));
  const bool keyed_only = rng->Percent(40);
  auto statement = [&] {
    return keyed_only ? KeyedTxnStatement(rng) : TxnStatement(rng);
  };
  std::vector<bool> open(sessions, false);
  std::string src;
  auto emit = [&src](int s, const std::string& stmt) {
    src += std::to_string(s) + " " + stmt + "\n";
  };
  for (int i = 0; i < steps; ++i) {
    const int s = static_cast<int>(rng->Index(sessions));
    if (!open[s]) {
      if (rng->Percent(55)) {
        emit(s, "BEGIN");
        open[s] = true;
      } else {
        emit(s, statement());  // autocommit
      }
    } else {
      const int roll = static_cast<int>(rng->Range(0, 9));
      if (roll < 2) {
        emit(s, "COMMIT");
        open[s] = false;
      } else if (roll == 2) {
        emit(s, "ROLLBACK");
        open[s] = false;
      } else {
        emit(s, statement());
      }
    }
  }
  for (int s = 0; s < sessions; ++s) {
    if (open[s]) emit(s, rng->Percent(70) ? "COMMIT" : "ROLLBACK");
  }
  c.source = std::move(src);
  return c;
}

/// One random statement for the index-family schedule: the txn mix
/// diluted with selective point SELECTs and an equi-join the secondary
/// index paths can serve (Executor::IndexScanRefs and the index
/// nested-loop join in Executor::JoinLevel).
std::string IndexStatement(Rng* rng) {
  if (!rng->Percent(45)) return TxnStatement(rng);
  switch (rng->Range(0, 3)) {
    case 0:
      return "SELECT * FROM t0 AS r WHERE v = " +
             std::to_string(rng->Range(-5, 40));
    case 1:
      return "SELECT * FROM t1 AS r WHERE a = " +
             std::to_string(rng->Range(0, 9));
    case 2:
      return "SELECT * FROM t1 AS r WHERE a = " +
             std::to_string(rng->Range(0, 9)) + " AND b = " +
             std::to_string(rng->Range(-10, 30));
    default:
      return "SELECT * FROM t0 AS r JOIN t1 AS s ON r.v = s.a";
  }
}

/// A CREATE INDEX over one of the schedule's hot column sets. Names
/// are sequential so a schedule never collides with itself.
std::string CreateIndexStatement(int n, Rng* rng) {
  const std::string name = "i" + std::to_string(n);
  switch (rng->Range(0, 4)) {
    case 0: return "CREATE INDEX " + name + " ON t0 (v)";
    case 1: return "CREATE INDEX " + name + " ON t1 (a)";
    case 2: return "CREATE INDEX " + name + " ON t1 (b)";
    default: return "CREATE INDEX " + name + " ON t1 (a, b)";
  }
}

/// An index-family case (function "@index"): the txn schedule shape
/// with CREATE INDEX statements interleaved mid-stream, so index
/// builds race live writers, DML maintains live indexes, and later
/// SELECTs can pick the index access paths. The oracle runs the
/// schedule with and without the creates and demands byte-identical
/// observable behavior (oracle.cc: RunIndexOracle).
FuzzCase GenIndexCase(uint64_t seed, Rng* rng) {
  FuzzCase c;
  c.seed = seed;
  c.function = "@index";

  TableSpec keyed;
  keyed.name = "t0";
  keyed.unique_key = "id";
  keyed.columns = {{"id", DataType::kInt64}, {"v", DataType::kInt64}};
  const int64_t n = rng->Range(4, 10);
  for (int64_t i = 0; i < n; ++i) {
    keyed.rows.push_back(
        {catalog::Value::Int(i), catalog::Value::Int(rng->Range(0, 40))});
  }
  c.tables.push_back(std::move(keyed));

  TableSpec keyless;
  keyless.name = "t1";
  keyless.columns = {{"a", DataType::kInt64}, {"b", DataType::kInt64}};
  const int64_t m = rng->Range(1, 4);
  for (int64_t i = 0; i < m; ++i) {
    keyless.rows.push_back({catalog::Value::Int(rng->Range(0, 9)),
                            catalog::Value::Int(rng->Range(-10, 30))});
  }
  c.tables.push_back(std::move(keyless));

  const int sessions = static_cast<int>(rng->Range(2, 4));
  const int steps = static_cast<int>(rng->Range(10, 24));
  const int max_creates = static_cast<int>(rng->Range(1, 3));
  int creates = 0;
  std::vector<bool> open(sessions, false);
  std::string src;
  auto emit = [&src](int s, const std::string& stmt) {
    src += std::to_string(s) + " " + stmt + "\n";
  };
  for (int i = 0; i < steps; ++i) {
    const int s = static_cast<int>(rng->Index(sessions));
    // DDL autocommits regardless of the session's transaction state,
    // so creates drop in anywhere — including mid-transaction.
    if (creates < max_creates && rng->Percent(12)) {
      emit(s, CreateIndexStatement(creates++, rng));
      continue;
    }
    if (!open[s]) {
      if (rng->Percent(55)) {
        emit(s, "BEGIN");
        open[s] = true;
      } else {
        emit(s, IndexStatement(rng));  // autocommit
      }
    } else {
      const int roll = static_cast<int>(rng->Range(0, 9));
      if (roll < 2) {
        emit(s, "COMMIT");
        open[s] = false;
      } else if (roll == 2) {
        emit(s, "ROLLBACK");
        open[s] = false;
      } else {
        emit(s, IndexStatement(rng));
      }
    }
  }
  if (creates == 0) emit(0, CreateIndexStatement(creates++, rng));
  for (int s = 0; s < sessions; ++s) {
    if (open[s]) emit(s, rng->Percent(70) ? "COMMIT" : "ROLLBACK");
  }
  c.source = std::move(src);
  return c;
}

std::string Render(Family family, Rng* rng, const FactShape& shape) {
  std::string body;
  switch (family) {
    case Family::kFilterCollect: body = GenFilterCollect(rng, shape); break;
    case Family::kScalarAgg: body = GenScalarAgg(rng, shape); break;
    case Family::kMaxMin: body = GenMaxMin(rng, shape); break;
    case Family::kExists: body = GenExists(rng, shape); break;
    case Family::kJoin: body = GenJoin(rng, shape); break;
    case Family::kGroupBy: body = GenGroupBy(rng, shape); break;
    case Family::kArgmax: body = GenArgmax(rng, shape); break;
    case Family::kApply: body = GenApply(rng, shape); break;
    case Family::kPrint: body = GenPrint(rng, shape); break;
    case Family::kBreak: body = GenBreak(rng, shape); break;
    case Family::kPartial: body = GenPartial(rng, shape); break;
    case Family::kMultiAgg: body = GenMultiAgg(rng, shape); break;
    case Family::kConcat: body = GenConcat(rng, shape); break;
    case Family::kCorrExists: body = GenCorrExists(rng, shape); break;
    case Family::kDml: body = GenDml(rng, shape); break;
    case Family::kTxn: break;    // handled by GenTxnCase, never rendered
    case Family::kIndex: break;  // handled by GenIndexCase, never rendered
    case Family::kBatch: body = GenBatch(rng, shape); break;
  }
  return "func f() {\n" + body + "}\n";
}

}  // namespace

Family FamilyForSeed(uint64_t seed, const GenOptions& opts) {
  Rng rng(seed);
  return kFamilies[rng.PickWeighted(Weights(opts))];
}

bool RestrictToFamily(GenOptions* opts, const std::string& name) {
  GenOptions next = *opts;
  int* weights[] = {&next.w_filter_collect, &next.w_scalar_agg,
                    &next.w_maxmin,         &next.w_exists,
                    &next.w_join,           &next.w_groupby,
                    &next.w_argmax,         &next.w_apply,
                    &next.w_print,          &next.w_break,
                    &next.w_partial,        &next.w_multi,
                    &next.w_concat,         &next.w_corr_exists,
                    &next.w_dml,            &next.w_txn,
                    &next.w_index,          &next.w_batch};
  static_assert(sizeof(weights) / sizeof(weights[0]) ==
                sizeof(kFamilies) / sizeof(kFamilies[0]));
  bool found = false;
  for (size_t i = 0; i < sizeof(kFamilies) / sizeof(kFamilies[0]); ++i) {
    const bool match = name == FamilyName(kFamilies[i]);
    *weights[i] = match ? 1 : 0;
    found = found || match;
  }
  if (found) *opts = next;
  return found;
}

FuzzCase GenerateCase(uint64_t seed, const GenOptions& opts) {
  Rng rng(seed);
  Family family = kFamilies[rng.PickWeighted(Weights(opts))];
  if (family == Family::kTxn) return GenTxnCase(seed, &rng);
  if (family == Family::kIndex) return GenIndexCase(seed, &rng);
  FactShape shape = MakeFactShape(&rng);

  FuzzCase c;
  c.seed = seed;
  c.function = "f";
  int64_t dim_rows = 0;
  if (NeedsDim(family)) {
    c.tables.push_back(MakeDim(&rng, opts.data));
    dim_rows = static_cast<int64_t>(c.tables.back().rows.size());
  }
  // t0 first in the file for readability; generation order stays
  // dim-then-fact so fk's domain can depend on the dim's size.
  c.tables.insert(c.tables.begin(),
                  MakeFact(&rng, opts.data, shape, dim_rows));
  if (family == Family::kDml) {
    // The keyless scratch table DML programs write into. Keyless on
    // purpose: inserts land round-robin across shards, so every shard
    // sees writes even when the fact table's ids cluster.
    TableSpec scratch;
    scratch.name = "t2";
    scratch.columns = {{"a", DataType::kInt64}, {"b", DataType::kInt64}};
    // Always pre-seeded: an empty t2 at read-back time would let the
    // lifted SUM ship its one aggregate row where the original loop
    // ships zero, tripping the never-more-rows oracle on a case that
    // is a wash, not a regression. One guaranteed row keeps the
    // invariant strict (agg's 1 row <= scan's N rows, N >= 1).
    int64_t n = rng.Range(1, 4);
    for (int64_t i = 0; i < n; ++i) {
      scratch.rows.push_back({catalog::Value::Int(rng.Range(0, 20)),
                              catalog::Value::Int(rng.Range(-10, 30))});
    }
    c.tables.push_back(std::move(scratch));
  }
  c.source = Render(family, &rng, shape);
  return c;
}

}  // namespace eqsql::fuzz
