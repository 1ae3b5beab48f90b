#ifndef EQSQL_EXEC_SCALAR_OPS_H_
#define EQSQL_EXEC_SCALAR_OPS_H_

#include "catalog/value.h"
#include "common/result.h"
#include "ra/scalar_expr.h"

namespace eqsql::exec {

/// SQL-semantics scalar operations over catalog::Value.
///
/// NULL handling follows MySQL (the paper's evaluation server):
/// arithmetic, comparisons, concatenation, GREATEST/LEAST propagate NULL;
/// AND/OR use three-valued logic; integer division by zero yields NULL.

/// Evaluates binary arithmetic (+ - * / %). Int op int stays int
/// (except / which follows integer division like MySQL DIV only when
/// both are ints and divide evenly is NOT required — we use C++ integer
/// division for int/int to match ImpLang's semantics).
Result<catalog::Value> EvalArithmetic(ra::ScalarOp op,
                                      const catalog::Value& lhs,
                                      const catalog::Value& rhs);

/// Evaluates a comparison; result is Bool or Null.
Result<catalog::Value> EvalComparison(ra::ScalarOp op,
                                      const catalog::Value& lhs,
                                      const catalog::Value& rhs);

/// Three-valued AND / OR. A deciding operand (FALSE for AND, TRUE for
/// OR) wins, then NULL; any other operand that is not a boolean is a
/// kRuntimeError.
Result<catalog::Value> EvalAnd(const catalog::Value& lhs,
                               const catalog::Value& rhs);
Result<catalog::Value> EvalOr(const catalog::Value& lhs,
                              const catalog::Value& rhs);
/// Three-valued NOT; a non-boolean operand is a kRuntimeError.
Result<catalog::Value> EvalNot(const catalog::Value& v);

/// String concatenation (numbers are stringified; NULL propagates).
Result<catalog::Value> EvalConcat(const catalog::Value& lhs,
                                  const catalog::Value& rhs);

/// GREATEST / LEAST over a non-empty argument list.
Result<catalog::Value> EvalGreatestLeast(bool greatest,
                                         const std::vector<catalog::Value>& args);

/// True iff `v` is boolean TRUE (NULL and FALSE both fail a predicate).
bool IsTruthy(const catalog::Value& v);

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_SCALAR_OPS_H_
