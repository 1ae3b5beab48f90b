#ifndef EQSQL_FRONTEND_PARSER_H_
#define EQSQL_FRONTEND_PARSER_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "frontend/ast.h"

namespace eqsql::frontend {

/// Parses ImpLang source text into a Program.
///
/// ImpLang is the Java-like imperative language our analyses consume; it
/// has exactly the constructs the paper's techniques handle (plus a few
/// that deliberately exercise the limitations):
///
///   program   := func*
///   func      := 'func' ident '(' params ')' block
///   block     := '{' stmt* '}'
///   stmt      := ident '=' expr ';'
///              | expr ';'
///              | 'if' '(' expr ')' block ['else' (block | if_stmt)]
///              | 'for' '(' ident ':' expr ')' block      (cursor loop)
///              | 'while' '(' expr ')' block
///              | 'return' [expr] ';'
///              | 'print' '(' expr ')' ';'
///              | 'break' ';'
///   expr      := ternary over || && ! == != < <= > >= + - * / % unary
///   primary   := literal | ident | call | '(' expr ')'
///                with postfix '.' field access and '.' method calls
///
/// Getter method calls `x.getFoo()` are normalized to field accesses
/// `x.foo` at parse time (Hibernate entity style).
///
/// A tree deeper than kMaxParseDepth fails with kParseError instead of
/// exhausting the stack of the passes behind the parser. Nesting counts
/// one level each (statements inside statement bodies, where an `else
/// if` chain nests too, expressions inside expressions, `!` /
/// unary-minus chains), and so does each link of an operator chain
/// (`1+1+...`, `a && b && ...`, `x.a.a...`, `x.f().g()...`).
Result<Program> ParseProgram(std::string_view source);

/// ParseProgram calls made so far on the calling thread. A probe for
/// tests that check a code path parses no program text.
uint64_t ParseProgramCallsOnThisThread();

/// Deepest tree ParseProgram accepts.
inline constexpr int kMaxParseDepth = 256;

}  // namespace eqsql::frontend

#endif  // EQSQL_FRONTEND_PARSER_H_
