#ifndef EQSQL_SQL_PARSER_H_
#define EQSQL_SQL_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "ra/ra_node.h"

namespace eqsql::sql {

/// Parses a SQL query (our SELECT subset) or an HQL-style query
/// ("FROM Board AS b WHERE b.rnd_id = 1", Hibernate's implicit
/// SELECT *) into a relational-algebra tree.
///
/// Supported grammar (keywords case-insensitive):
///
///   query     := SELECT [DISTINCT] items FROM from
///                [WHERE expr] [GROUP BY exprs] [ORDER BY keys] [LIMIT n]
///              | FROM table_ref [WHERE expr]                 (HQL style)
///   items     := '*' | item (',' item)*
///   item      := agg '(' expr | '*' ')' [AS ident] | expr [AS ident]
///   from      := table_ref (join)*
///   join      := [INNER] JOIN table_ref ON expr
///              | LEFT [OUTER] JOIN table_ref ON expr
///              | OUTER APPLY '(' query ')'
///   table_ref := ident [AS ident] | '(' query ')' AS ident
///
/// Positional '?' parameters are numbered left to right. ORDER BY keys
/// must reference pre-projection columns (base or GROUP BY outputs).
/// The resulting plan shape is:
///   Limit(Dedup(Project(Sort(GroupBy(Select(from))))))
/// with absent clauses omitted.
///
/// A tree deeper than kMaxParseDepth fails with kParseError instead of
/// exhausting the stack of the passes behind the parser. Nesting counts
/// one level each (subqueries, parenthesized expressions, NOT /
/// unary-minus chains), and so does each link of an operator or join
/// chain (`1+1+...`, `a AND b AND ...`, `t JOIN u ON ... JOIN ...`).
Result<ra::RaNodePtr> ParseSql(std::string_view input);

/// Deepest tree ParseSql (and the DML parser) accepts.
inline constexpr int kMaxParseDepth = 256;

}  // namespace eqsql::sql

#endif  // EQSQL_SQL_PARSER_H_
