#include "frontend/parser.h"

#include <cctype>

#include "frontend/lexer.h"
#include "obs/trace.h"

namespace eqsql::frontend {

namespace {

thread_local uint64_t parse_calls = 0;

/// Counts one level of parser nesting for its lifetime.
struct DepthGuard {
  explicit DepthGuard(int* d) : depth(d) { ++*depth; }
  ~DepthGuard() { --*depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
  int* depth;
};

class Parser {
 public:
  explicit Parser(std::vector<Tok> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> Parse() {
    Program program;
    while (!AtEnd()) {
      EQSQL_ASSIGN_OR_RETURN(Function fn, ParseFunction());
      program.functions.push_back(std::move(fn));
    }
    if (program.functions.empty()) {
      return Status::ParseError("empty program");
    }
    return program;
  }

 private:
  const Tok& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Tok& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool Check(TokKind kind) const { return Peek().kind == kind; }
  bool CheckKeyword(std::string_view kw) const {
    return Peek().kind == TokKind::kKeyword && Peek().text == kw;
  }
  bool Match(TokKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }
  bool MatchKeyword(std::string_view kw) {
    if (!CheckKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status Expect(TokKind kind, std::string_view what) {
    if (Match(kind)) return Status::OK();
    return Err("expected " + std::string(what));
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at line " +
                              std::to_string(Peek().loc.line) + " near '" +
                              Peek().text + "'");
  }
  Status TooDeep() const {
    return Err("nesting deeper than " + std::to_string(kMaxParseDepth) +
               " levels");
  }

  Result<Function> ParseFunction() {
    if (!MatchKeyword("func")) return Status(Err("expected 'func'"));
    if (!Check(TokKind::kIdent)) return Status(Err("expected function name"));
    Function fn;
    fn.name = Advance().text;
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    if (!Check(TokKind::kRParen)) {
      do {
        if (!Check(TokKind::kIdent)) return Status(Err("expected parameter"));
        fn.params.push_back(Advance().text);
      } while (Match(TokKind::kComma));
    }
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    EQSQL_ASSIGN_OR_RETURN(fn.body, ParseBlock());
    return fn;
  }

  Result<std::vector<StmtPtr>> ParseBlock() {
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
    std::vector<StmtPtr> stmts;
    while (!Check(TokKind::kRBrace)) {
      if (AtEnd()) return Status(Err("unterminated block"));
      EQSQL_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStmt());
      stmts.push_back(std::move(stmt));
    }
    Advance();  // '}'
    return stmts;
  }

  Result<StmtPtr> ParseStmt() {
    DepthGuard nest(&depth_);
    if (depth_ > kMaxParseDepth) return TooDeep();
    SourceLoc loc = Peek().loc;
    if (CheckKeyword("if")) return ParseIf();
    if (MatchKeyword("for")) {
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      if (!Check(TokKind::kIdent)) return Status(Err("expected loop variable"));
      std::string var = Advance().text;
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kColon, "':'"));
      EQSQL_ASSIGN_OR_RETURN(ExprPtr iterable, ParseExpr());
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      EQSQL_ASSIGN_OR_RETURN(std::vector<StmtPtr> body, ParseBlock());
      return Stmt::ForEach(std::move(var), std::move(iterable),
                           std::move(body), loc);
    }
    if (MatchKeyword("while")) {
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      EQSQL_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      EQSQL_ASSIGN_OR_RETURN(std::vector<StmtPtr> body, ParseBlock());
      return Stmt::While(std::move(cond), std::move(body), loc);
    }
    if (MatchKeyword("return")) {
      ExprPtr value;
      if (!Check(TokKind::kSemi)) {
        EQSQL_ASSIGN_OR_RETURN(value, ParseExpr());
      }
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kSemi, "';'"));
      return Stmt::Return(std::move(value), loc);
    }
    if (MatchKeyword("print")) {
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      EQSQL_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kSemi, "';'"));
      return Stmt::Print(std::move(value), loc);
    }
    if (MatchKeyword("break")) {
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kSemi, "';'"));
      return Stmt::Break(loc);
    }
    // Assignment: ident '=' ...
    if (Check(TokKind::kIdent) && Peek(1).kind == TokKind::kAssign) {
      std::string target = Advance().text;
      Advance();  // '='
      EQSQL_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      EQSQL_RETURN_IF_ERROR(Expect(TokKind::kSemi, "';'"));
      return Stmt::Assign(std::move(target), std::move(value), loc);
    }
    // Expression statement (method calls with side effects, user calls).
    EQSQL_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kSemi, "';'"));
    return Stmt::ExprStmt(std::move(value), loc);
  }

  Result<StmtPtr> ParseIf() {
    SourceLoc loc = Peek().loc;
    MatchKeyword("if");
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    EQSQL_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    std::vector<StmtPtr> then_body;
    if (Check(TokKind::kLBrace)) {
      EQSQL_ASSIGN_OR_RETURN(then_body, ParseBlock());
    } else {
      EQSQL_ASSIGN_OR_RETURN(StmtPtr single, ParseStmt());
      then_body.push_back(std::move(single));
    }
    std::vector<StmtPtr> else_body;
    if (MatchKeyword("else")) {
      if (Check(TokKind::kLBrace)) {
        EQSQL_ASSIGN_OR_RETURN(else_body, ParseBlock());
      } else {
        // A single statement, the `if` of an `else if` chain included.
        EQSQL_ASSIGN_OR_RETURN(StmtPtr single, ParseStmt());
        else_body.push_back(std::move(single));
      }
    }
    return Stmt::If(std::move(cond), std::move(then_body),
                    std::move(else_body), loc);
  }

  // --- expressions, precedence climbing -----------------------------------
  Result<ExprPtr> ParseExpr() {
    DepthGuard nest(&depth_);
    if (depth_ > kMaxParseDepth) return TooDeep();
    return ParseTernary();
  }

  Result<ExprPtr> ParseTernary() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr cond, ParseOr());
    if (!Match(TokKind::kQuestion)) return cond;
    SourceLoc loc = Peek().loc;
    EQSQL_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExpr());
    EQSQL_RETURN_IF_ERROR(Expect(TokKind::kColon, "':'"));
    EQSQL_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExpr());
    return Expr::Ternary(std::move(cond), std::move(then_e),
                         std::move(else_e), loc);
  }

  Result<ExprPtr> ParseOr() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Check(TokKind::kOrOr)) {
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseEquality());
    while (Check(TokKind::kAndAnd)) {
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseEquality());
      lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseEquality() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRelational());
    while (Check(TokKind::kEq) || Check(TokKind::kNe)) {
      BinOp op = Check(TokKind::kEq) ? BinOp::kEq : BinOp::kNe;
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRelational());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseRelational() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (true) {
      BinOp op;
      if (Check(TokKind::kLt)) op = BinOp::kLt;
      else if (Check(TokKind::kLe)) op = BinOp::kLe;
      else if (Check(TokKind::kGt)) op = BinOp::kGt;
      else if (Check(TokKind::kGe)) op = BinOp::kGe;
      else return lhs;
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs), loc);
    }
  }

  Result<ExprPtr> ParseAdditive() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokKind::kPlus) || Check(TokKind::kMinus)) {
      BinOp op = Check(TokKind::kPlus) ? BinOp::kAdd : BinOp::kSub;
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Check(TokKind::kStar) || Check(TokKind::kSlash) ||
           Check(TokKind::kPercent)) {
      BinOp op = Check(TokKind::kStar)
                     ? BinOp::kMul
                     : (Check(TokKind::kSlash) ? BinOp::kDiv : BinOp::kMod);
      SourceLoc loc = Advance().loc;
      EQSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Check(TokKind::kBang) || Check(TokKind::kMinus)) {
      const UnOp op = Check(TokKind::kBang) ? UnOp::kNot : UnOp::kNeg;
      SourceLoc loc = Advance().loc;
      DepthGuard nest(&depth_);
      if (depth_ > kMaxParseDepth) return TooDeep();
      EQSQL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(op, std::move(operand), loc);
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    EQSQL_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
    while (Match(TokKind::kDot)) {
      if (!Check(TokKind::kIdent)) return Status(Err("expected member name"));
      SourceLoc loc = Peek().loc;
      std::string member = Advance().text;
      if (Match(TokKind::kLParen)) {
        std::vector<ExprPtr> args;
        if (!Check(TokKind::kRParen)) {
          do {
            EQSQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Match(TokKind::kComma));
        }
        EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        // Normalize Hibernate-style getters: t.getP1() => t.p1
        if (args.empty() && member.size() > 3 &&
            member.compare(0, 3, "get") == 0 &&
            std::isupper(static_cast<unsigned char>(member[3]))) {
          std::string field = member.substr(3);
          field[0] =
              static_cast<char>(std::tolower(static_cast<unsigned char>(field[0])));
          expr = Expr::FieldAccess(std::move(expr), std::move(field), loc);
        } else {
          expr = Expr::MethodCall(std::move(expr), std::move(member),
                                  std::move(args), loc);
        }
      } else {
        expr = Expr::FieldAccess(std::move(expr), std::move(member), loc);
      }
    }
    return expr;
  }

  Result<ExprPtr> ParsePrimary() {
    const Tok& t = Peek();
    switch (t.kind) {
      case TokKind::kIntLit: {
        SourceLoc loc = t.loc;
        int64_t v = static_cast<int64_t>(Advance().number);
        return Expr::IntLit(v, loc);
      }
      case TokKind::kDoubleLit: {
        SourceLoc loc = t.loc;
        return Expr::DoubleLit(Advance().number, loc);
      }
      case TokKind::kStringLit: {
        SourceLoc loc = t.loc;
        return Expr::StringLit(Advance().text, loc);
      }
      case TokKind::kKeyword: {
        SourceLoc loc = t.loc;
        if (t.text == "true" || t.text == "false") {
          bool v = t.text == "true";
          Advance();
          return Expr::BoolLit(v, loc);
        }
        if (t.text == "null") {
          Advance();
          return Expr::NullLit(loc);
        }
        return Status(Err("unexpected keyword in expression"));
      }
      case TokKind::kIdent: {
        SourceLoc loc = t.loc;
        std::string name = Advance().text;
        if (Match(TokKind::kLParen)) {
          std::vector<ExprPtr> args;
          if (!Check(TokKind::kRParen)) {
            do {
              EQSQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
            } while (Match(TokKind::kComma));
          }
          EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
          return Expr::Call(std::move(name), std::move(args), loc);
        }
        return Expr::VarRef(std::move(name), loc);
      }
      case TokKind::kLParen: {
        Advance();
        EQSQL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        EQSQL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return inner;
      }
      default:
        return Status(Err("unexpected token in expression"));
    }
  }

  std::vector<Tok> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting, bounded by kMaxParseDepth
};

}  // namespace

uint64_t ParseProgramCallsOnThisThread() { return parse_calls; }

Result<Program> ParseProgram(std::string_view source) {
  ++parse_calls;
  obs::ScopedSpan span("parse");
  EQSQL_ASSIGN_OR_RETURN(std::vector<Tok> tokens, TokenizeImp(source));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace eqsql::frontend
