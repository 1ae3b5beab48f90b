#include "sql/parser.h"

#include <optional>
#include <string>
#include <vector>

#include "common/parse_depth.h"
#include "common/strings.h"
#include "sql/dml.h"
#include "sql/lexer.h"

namespace eqsql::sql {

using ra::AggFunc;
using ra::AggregateSpec;
using ra::ProjectItem;
using ra::RaNode;
using ra::RaNodePtr;
using ra::ScalarExpr;
using ra::ScalarExprPtr;
using ra::ScalarOp;
using ra::SortKey;

namespace {

/// One parsed SELECT-list entry.
struct SelectItem {
  bool star = false;
  ScalarExprPtr expr;       // non-aggregate expression
  std::string alias;        // explicit AS alias ("" if absent)
  bool is_agg = false;
  AggFunc agg_func = AggFunc::kCount;
  ScalarExprPtr agg_arg;    // null for COUNT(*)
  std::string raw_name;     // default output name when no alias
};

std::optional<AggFunc> AggFromKeyword(const std::string& kw) {
  if (kw == "COUNT") return AggFunc::kCount;
  if (kw == "SUM") return AggFunc::kSum;
  if (kw == "MIN") return AggFunc::kMin;
  if (kw == "MAX") return AggFunc::kMax;
  if (kw == "AVG") return AggFunc::kAvg;
  return std::nullopt;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<RaNodePtr> ParseTopLevel() {
    EQSQL_ASSIGN_OR_RETURN(RaNodePtr plan, ParseQuery());
    if (!AtEnd()) {
      return Status::ParseError("trailing input after query: '" +
                                Peek().text + "'");
    }
    return plan;
  }

  Result<DmlStatement> ParseDmlTopLevel() {
    DmlStatement stmt;
    if (MatchKeyword("INSERT")) {
      stmt.kind = DmlStatement::Kind::kInsert;
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("INTO"));
      EQSQL_ASSIGN_OR_RETURN(stmt.table, ParseBareIdentifier("table name"));
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
      EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      do {
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr value, ParseExpr());
        stmt.insert_values.push_back(std::move(value));
      } while (Match(TokenKind::kComma));
      EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    } else if (MatchKeyword("UPDATE")) {
      stmt.kind = DmlStatement::Kind::kUpdate;
      EQSQL_ASSIGN_OR_RETURN(stmt.table, ParseBareIdentifier("table name"));
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
      do {
        EQSQL_ASSIGN_OR_RETURN(std::string col,
                               ParseBareIdentifier("column name"));
        EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='"));
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr value, ParseExpr());
        stmt.assignments.emplace_back(std::move(col), std::move(value));
      } while (Match(TokenKind::kComma));
      if (MatchKeyword("WHERE")) {
        EQSQL_ASSIGN_OR_RETURN(stmt.predicate, ParseExpr());
      }
    } else if (MatchKeyword("DELETE")) {
      stmt.kind = DmlStatement::Kind::kDelete;
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("FROM"));
      EQSQL_ASSIGN_OR_RETURN(stmt.table, ParseBareIdentifier("table name"));
      if (MatchKeyword("WHERE")) {
        EQSQL_ASSIGN_OR_RETURN(stmt.predicate, ParseExpr());
      }
    } else if (MatchKeyword("CREATE")) {
      stmt.kind = DmlStatement::Kind::kCreateIndex;
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
      EQSQL_ASSIGN_OR_RETURN(stmt.index_name,
                             ParseBareIdentifier("index name"));
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
      EQSQL_ASSIGN_OR_RETURN(stmt.table, ParseBareIdentifier("table name"));
      EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      do {
        EQSQL_ASSIGN_OR_RETURN(std::string col,
                               ParseBareIdentifier("column name"));
        stmt.index_columns.push_back(std::move(col));
      } while (Match(TokenKind::kComma));
      EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    } else {
      return Status::ParseError(
          "expected INSERT, UPDATE, DELETE or CREATE INDEX before '" +
          Peek().text + "'");
    }
    if (!AtEnd()) {
      return Status::ParseError("trailing input after statement: '" +
                                Peek().text + "'");
    }
    return stmt;
  }

 private:
  // --- token helpers ------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool CheckKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kKeyword && t.text == kw;
  }
  bool MatchKeyword(std::string_view kw) {
    if (!CheckKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Status::ParseError("expected " + std::string(kw) + " before '" +
                              Peek().text + "'");
  }
  Status Expect(TokenKind kind, std::string_view what) {
    if (Match(kind)) return Status::OK();
    return Status::ParseError("expected " + std::string(what) + " before '" +
                              Peek().text + "'");
  }

  static Status TooDeep() {
    return Status::ParseError("nesting deeper than " +
                              std::to_string(kMaxParseDepth) + " levels");
  }

  Result<std::string> ParseBareIdentifier(std::string_view what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected " + std::string(what) +
                                " before '" + Peek().text + "'");
    }
    return Advance().text;
  }

  // --- query --------------------------------------------------------------
  Result<RaNodePtr> ParseQuery() {
    ParseDepth::Nest nest(&depth_);
    if (nest.level() > kMaxParseDepth) return TooDeep();
    // pending_aggs_ must be scoped per SELECT: a derived-table or APPLY
    // subquery parsed mid-FROM must not see the enclosing query's
    // aggregates (or leak its own into the enclosing BuildGroupBy).
    std::vector<AggregateSpec> enclosing = std::move(pending_aggs_);
    pending_aggs_.clear();
    Result<RaNodePtr> plan = ParseQueryScoped();
    pending_aggs_ = std::move(enclosing);
    return plan;
  }

  Result<RaNodePtr> ParseQueryScoped() {
    if (CheckKeyword("FROM")) return ParseHqlQuery();
    EQSQL_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    bool distinct = MatchKeyword("DISTINCT");

    std::vector<SelectItem> items;
    if (Match(TokenKind::kStar)) {
      SelectItem star;
      star.star = true;
      items.push_back(std::move(star));
    } else {
      do {
        EQSQL_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        items.push_back(std::move(item));
      } while (Match(TokenKind::kComma));
    }

    EQSQL_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    EQSQL_ASSIGN_OR_RETURN(RaNodePtr plan, ParseFrom());

    if (MatchKeyword("WHERE")) {
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr pred, ParseExpr());
      plan = RaNode::Select(std::move(plan), std::move(pred));
    }

    std::vector<ScalarExprPtr> group_keys;
    bool has_group_by = false;
    if (MatchKeyword("GROUP")) {
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      has_group_by = true;
      do {
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr key, ParseExpr());
        group_keys.push_back(std::move(key));
      } while (Match(TokenKind::kComma));
    }

    bool has_agg = !pending_aggs_.empty();

    std::vector<ProjectItem> agg_proj;
    if (has_agg || has_group_by) {
      EQSQL_ASSIGN_OR_RETURN(
          plan, BuildGroupBy(std::move(plan), items, group_keys, &agg_proj));
    }

    if (MatchKeyword("ORDER")) {
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      std::vector<SortKey> keys;
      do {
        SortKey key;
        EQSQL_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          key.ascending = false;
        } else {
          MatchKeyword("ASC");
        }
        keys.push_back(std::move(key));
      } while (Match(TokenKind::kComma));
      // With grouping, ORDER BY keys must reference GroupBy outputs, so
      // the sort sits between GroupBy and the final projection.
      plan = RaNode::Sort(std::move(plan), std::move(keys));
    }

    if (has_agg || has_group_by) {
      plan = RaNode::Project(std::move(plan), std::move(agg_proj));
    } else if (!(items.size() == 1 && items[0].star)) {
      std::vector<ProjectItem> proj;
      for (size_t i = 0; i < items.size(); ++i) {
        proj.push_back({items[i].expr, OutputName(items[i], i)});
      }
      plan = RaNode::Project(std::move(plan), std::move(proj));
    }

    if (distinct) plan = RaNode::Dedup(std::move(plan));

    if (MatchKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kIntLiteral) {
        return Status::ParseError("expected integer after LIMIT");
      }
      int64_t n = static_cast<int64_t>(Advance().number);
      plan = RaNode::Limit(std::move(plan), n);
    }
    return plan;
  }

  /// HQL-style "FROM Board AS b WHERE ..." == SELECT * FROM ...
  Result<RaNodePtr> ParseHqlQuery() {
    EQSQL_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    EQSQL_ASSIGN_OR_RETURN(RaNodePtr plan, ParseTableRef());
    if (MatchKeyword("WHERE")) {
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr pred, ParseExpr());
      plan = RaNode::Select(std::move(plan), std::move(pred));
    }
    return plan;
  }

  static std::string OutputName(const SelectItem& item, size_t index) {
    if (!item.alias.empty()) return item.alias;
    if (!item.raw_name.empty()) return item.raw_name;
    return "col" + std::to_string(index);
  }

  /// Builds the GroupBy node from parsed select items, GROUP BY keys,
  /// and the pending aggregates collected while parsing expressions.
  /// Emits the final projection items (applied above any ORDER BY) into
  /// `proj_out`.
  Result<RaNodePtr> BuildGroupBy(RaNodePtr input,
                                 const std::vector<SelectItem>& items,
                                 const std::vector<ScalarExprPtr>& keys,
                                 std::vector<ProjectItem>* proj_out) {
    std::vector<std::string> key_names;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i]->op() == ScalarOp::kColumnRef) {
        key_names.push_back(keys[i]->column_name());
      } else {
        key_names.push_back("key" + std::to_string(i));
      }
    }
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      if (item.star) {
        return Status::ParseError("SELECT * cannot be mixed with GROUP BY");
      }
      if (item.is_agg) {
        // Aggregate placeholders resolve against the GroupBy output.
        proj_out->push_back({item.expr, OutputName(item, i)});
        continue;
      }
      // Non-aggregate item must match a group key.
      bool matched = false;
      for (size_t k = 0; k < keys.size(); ++k) {
        if (item.expr->Equals(*keys[k])) {
          proj_out->push_back({ScalarExpr::Column(key_names[k]),
                               OutputName(item, i)});
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::ParseError(
            "non-aggregate SELECT item must appear in GROUP BY: " +
            item.expr->ToString());
      }
    }
    return RaNode::GroupBy(std::move(input), keys,
                           std::move(pending_aggs_));
  }

  // --- FROM clause ----------------------------------------------------------
  Result<RaNodePtr> ParseFrom() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(RaNodePtr plan, ParseTableRef());
    while (true) {
      if (MatchKeyword("JOIN") ||
          (CheckKeyword("INNER") && CheckKeyword("JOIN", 1) &&
           (Advance(), Advance(), true))) {
        EQSQL_ASSIGN_OR_RETURN(RaNodePtr right, ParseTableRef());
        EQSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr pred, ParseExpr());
        if (chain.Link() > kMaxParseDepth) return TooDeep();
        plan = RaNode::Join(std::move(plan), std::move(right),
                            std::move(pred));
        continue;
      }
      if (CheckKeyword("LEFT")) {
        Advance();
        MatchKeyword("OUTER");
        EQSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        EQSQL_ASSIGN_OR_RETURN(RaNodePtr right, ParseTableRef());
        EQSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr pred, ParseExpr());
        if (chain.Link() > kMaxParseDepth) return TooDeep();
        plan = RaNode::LeftOuterJoin(std::move(plan), std::move(right),
                                     std::move(pred));
        continue;
      }
      if (CheckKeyword("OUTER") && CheckKeyword("APPLY", 1)) {
        Advance();
        Advance();
        EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        EQSQL_ASSIGN_OR_RETURN(RaNodePtr inner, ParseQuery());
        EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        if (chain.Link() > kMaxParseDepth) return TooDeep();
        plan = RaNode::OuterApply(std::move(plan), std::move(inner));
        continue;
      }
      break;
    }
    return plan;
  }

  Result<RaNodePtr> ParseTableRef() {
    if (Match(TokenKind::kLParen)) {
      EQSQL_ASSIGN_OR_RETURN(RaNodePtr sub, ParseQuery());
      EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      MatchKeyword("AS");
      if (Peek().kind != TokenKind::kIdentifier) {
        return Status::ParseError("derived table requires an alias");
      }
      std::string alias = Advance().text;
      return RenameDerived(std::move(sub), alias);
    }
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected table name before '" + Peek().text +
                                "'");
    }
    std::string table = Advance().text;
    std::string alias;
    if (MatchKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected alias after AS");
      }
      alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      alias = Advance().text;  // implicit alias: "board b"
    }
    return RaNode::Scan(std::move(table), std::move(alias));
  }

  /// Wraps a derived-table subquery in a Project that requalifies its
  /// output columns as "alias.name". The subquery must expose explicit
  /// output names (Project or GroupBy at its root, possibly under
  /// Sort/Dedup/Limit).
  Result<RaNodePtr> RenameDerived(RaNodePtr sub, const std::string& alias) {
    EQSQL_ASSIGN_OR_RETURN(std::vector<std::string> names, OutputNames(sub));
    std::vector<ProjectItem> items;
    for (const std::string& name : names) {
      size_t dot = name.rfind('.');
      std::string bare =
          dot == std::string::npos ? name : name.substr(dot + 1);
      items.push_back({ScalarExpr::Column(name), alias + "." + bare});
    }
    return RaNode::Project(std::move(sub), std::move(items));
  }

  static Result<std::vector<std::string>> OutputNames(const RaNodePtr& node) {
    switch (node->op()) {
      case ra::RaOp::kProject: {
        std::vector<std::string> names;
        for (const ProjectItem& item : node->project_items()) {
          names.push_back(item.name);
        }
        return names;
      }
      case ra::RaOp::kGroupBy: {
        std::vector<std::string> names;
        const auto& keys = node->group_keys();
        for (size_t i = 0; i < keys.size(); ++i) {
          names.push_back(keys[i]->op() == ScalarOp::kColumnRef
                              ? keys[i]->column_name()
                              : "key" + std::to_string(i));
        }
        for (const AggregateSpec& agg : node->aggregates()) {
          names.push_back(agg.name);
        }
        return names;
      }
      case ra::RaOp::kSort:
      case ra::RaOp::kDedup:
      case ra::RaOp::kLimit:
      case ra::RaOp::kSelect:
        return OutputNames(node->child(0));
      default:
        return Status::ParseError(
            "derived table requires an explicit select list");
    }
  }

  // --- select items ---------------------------------------------------------
  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    size_t aggs_before = pending_aggs_.size();
    EQSQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    item.is_agg = pending_aggs_.size() > aggs_before;
    if (item.expr->op() == ScalarOp::kColumnRef &&
        !IsAggPlaceholder(item.expr->column_name())) {
      item.raw_name = item.expr->column_name();
    }
    if (item.is_agg && item.expr->op() == ScalarOp::kColumnRef) {
      // A bare aggregate call: default name is the function, lowercased.
      item.raw_name =
          AsciiToLower(std::string(ra::AggFuncToString(
              pending_aggs_.back().func)));
      size_t paren = item.raw_name.find('(');
      if (paren != std::string::npos) item.raw_name.resize(paren);
    }
    if (MatchKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected alias after AS");
      }
      item.alias = Advance().text;
    }
    return item;
  }

  static bool IsAggPlaceholder(const std::string& name) {
    return name.rfind("__agg", 0) == 0;
  }

  // --- expressions ------------------------------------------------------
  Result<ScalarExprPtr> ParseExpr() {
    ParseDepth::Nest nest(&depth_);
    if (nest.level() > kMaxParseDepth) return TooDeep();
    return ParseOr();
  }

  Result<ScalarExprPtr> ParseOr() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseAnd());
    while (MatchKeyword("OR")) {
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseAnd());
      if (chain.Link() > kMaxParseDepth) return TooDeep();
      lhs = ScalarExpr::Binary(ScalarOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExprPtr> ParseAnd() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseNot());
    while (MatchKeyword("AND")) {
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseNot());
      if (chain.Link() > kMaxParseDepth) return TooDeep();
      lhs = ScalarExpr::Binary(ScalarOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExprPtr> ParseNot() {
    if (CheckKeyword("NOT") && CheckKeyword("EXISTS", 1)) {
      Advance();
      return ParseExists(/*negated=*/true);
    }
    if (MatchKeyword("NOT")) {
      ParseDepth::Nest nest(&depth_);
      if (nest.level() > kMaxParseDepth) return TooDeep();
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr operand, ParseNot());
      return ScalarExpr::Unary(ScalarOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ScalarExprPtr> ParseComparison() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseAdditive());
    // IS [NOT] NULL postfix.
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      EQSQL_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      if (chain.Link() > kMaxParseDepth) return TooDeep();
      ScalarExprPtr test = ScalarExpr::Unary(ScalarOp::kIsNull, std::move(lhs));
      if (negated) test = ScalarExpr::Unary(ScalarOp::kNot, std::move(test));
      return test;
    }
    ScalarOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = ScalarOp::kEq; break;
      case TokenKind::kNe: op = ScalarOp::kNe; break;
      case TokenKind::kLt: op = ScalarOp::kLt; break;
      case TokenKind::kLe: op = ScalarOp::kLe; break;
      case TokenKind::kGt: op = ScalarOp::kGt; break;
      case TokenKind::kGe: op = ScalarOp::kGe; break;
      default:
        return lhs;
    }
    Advance();
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseAdditive());
    if (chain.Link() > kMaxParseDepth) return TooDeep();
    return ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
  }

  Result<ScalarExprPtr> ParseAdditive() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseMultiplicative());
    while (true) {
      ScalarOp op;
      if (Peek().kind == TokenKind::kPlus) {
        op = ScalarOp::kAdd;
      } else if (Peek().kind == TokenKind::kMinus) {
        op = ScalarOp::kSub;
      } else if (Peek().kind == TokenKind::kConcat) {
        op = ScalarOp::kConcat;
      } else {
        return lhs;
      }
      Advance();
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseMultiplicative());
      if (chain.Link() > kMaxParseDepth) return TooDeep();
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ScalarExprPtr> ParseMultiplicative() {
    ParseDepth::Chain chain(&depth_);
    EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseUnary());
    while (true) {
      ScalarOp op;
      if (Peek().kind == TokenKind::kStar) {
        op = ScalarOp::kMul;
      } else if (Peek().kind == TokenKind::kSlash) {
        op = ScalarOp::kDiv;
      } else if (Peek().kind == TokenKind::kPercent) {
        op = ScalarOp::kMod;
      } else {
        return lhs;
      }
      Advance();
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseUnary());
      if (chain.Link() > kMaxParseDepth) return TooDeep();
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ScalarExprPtr> ParseUnary() {
    if (Match(TokenKind::kMinus)) {
      ParseDepth::Nest nest(&depth_);
      if (nest.level() > kMaxParseDepth) return TooDeep();
      EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr operand, ParseUnary());
      return ScalarExpr::Unary(ScalarOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ScalarExprPtr> ParseExists(bool negated) {
    EQSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    EQSQL_ASSIGN_OR_RETURN(RaNodePtr sub, ParseQuery());
    EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return ScalarExpr::Exists(std::move(sub), negated);
  }

  Result<ScalarExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kIntLiteral: {
        int64_t v = static_cast<int64_t>(Advance().number);
        return ScalarExpr::Literal(catalog::Value::Int(v));
      }
      case TokenKind::kDoubleLiteral:
        return ScalarExpr::Literal(catalog::Value::Double(Advance().number));
      case TokenKind::kStringLiteral:
        return ScalarExpr::Literal(catalog::Value::String(Advance().text));
      case TokenKind::kQuestion:
        Advance();
        return ScalarExpr::Parameter(next_param_++);
      case TokenKind::kLParen: {
        Advance();
        EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr inner, ParseExpr());
        EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return ScalarExpr::Literal(catalog::Value::Null());
        }
        if (t.text == "TRUE" || t.text == "FALSE") {
          bool v = t.text == "TRUE";
          Advance();
          return ScalarExpr::Literal(catalog::Value::Bool(v));
        }
        if (t.text == "EXISTS") return ParseExists(/*negated=*/false);
        if (std::optional<AggFunc> agg = AggFromKeyword(t.text);
            agg.has_value() && Peek(1).kind == TokenKind::kLParen) {
          Advance();  // keyword
          Advance();  // '('
          AggregateSpec spec;
          spec.func = *agg;
          if (*agg == AggFunc::kCount && Match(TokenKind::kStar)) {
            spec.func = AggFunc::kCountStar;
          } else {
            EQSQL_ASSIGN_OR_RETURN(spec.arg, ParseExpr());
          }
          EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          spec.name = "__agg" + std::to_string(pending_aggs_.size());
          pending_aggs_.push_back(spec);
          return ScalarExpr::Column(spec.name);
        }
        if (t.text == "GREATEST" || t.text == "LEAST") {
          bool greatest = t.text == "GREATEST";
          Advance();
          EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
          std::vector<ScalarExprPtr> args;
          do {
            EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Match(TokenKind::kComma));
          EQSQL_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          return ScalarExpr::Nary(
              greatest ? ScalarOp::kGreatest : ScalarOp::kLeast,
              std::move(args));
        }
        if (t.text == "CASE") {
          Advance();
          EQSQL_RETURN_IF_ERROR(ExpectKeyword("WHEN"));
          EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr cond, ParseExpr());
          EQSQL_RETURN_IF_ERROR(ExpectKeyword("THEN"));
          EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr then_v, ParseExpr());
          EQSQL_RETURN_IF_ERROR(ExpectKeyword("ELSE"));
          EQSQL_ASSIGN_OR_RETURN(ScalarExprPtr else_v, ParseExpr());
          EQSQL_RETURN_IF_ERROR(ExpectKeyword("END"));
          return ScalarExpr::Case(std::move(cond), std::move(then_v),
                                  std::move(else_v));
        }
        return Status::ParseError("unexpected keyword '" + t.text +
                                  "' in expression");
      }
      case TokenKind::kIdentifier: {
        std::string name = Advance().text;
        while (Match(TokenKind::kDot)) {
          if (Peek().kind != TokenKind::kIdentifier) {
            return Status::ParseError("expected identifier after '.'");
          }
          name += "." + Advance().text;
        }
        return ScalarExpr::Column(std::move(name));
      }
      default:
        return Status::ParseError("unexpected token '" + t.text +
                                  "' in expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParseDepth depth_;  // tree depth, bounded by kMaxParseDepth
  int next_param_ = 0;
  std::vector<AggregateSpec> pending_aggs_;
};

}  // namespace

Result<RaNodePtr> ParseSql(std::string_view input) {
  EQSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(input));
  Parser parser(std::move(tokens));
  return parser.ParseTopLevel();
}

Result<DmlStatement> ParseDml(std::string_view input) {
  EQSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(input));
  Parser parser(std::move(tokens));
  return parser.ParseDmlTopLevel();
}

}  // namespace eqsql::sql
