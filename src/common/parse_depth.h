#ifndef EQSQL_COMMON_PARSE_DEPTH_H_
#define EQSQL_COMMON_PARSE_DEPTH_H_

#include <algorithm>

namespace eqsql {

/// Deepest tree the SQL and ImpLang parsers accept, and the deepest
/// expression the D-IR builder keeps for a variable: the bound that keeps
/// every recursive pass over those trees within the stack.
inline constexpr int kMaxParseDepth = 256;

/// The depth of the tree a recursive-descent parser builds, which the
/// parser bounds so the recursive passes behind it cannot exhaust the
/// stack. Nesting (parentheses, subqueries, statement bodies, unary
/// operators) counts one level while open (Nest). So does each link that
/// puts a node above operands already parsed (binary operators, joins,
/// `.field` and method calls): a left-deep chain such as `1+1+...+1`
/// adds a level per operator without any nesting, so a Chain places each
/// link one level above the deepest point its operands reached.
struct ParseDepth {
  int depth = 0;  // nesting levels open
  int peak = 0;   // deepest level reached since the innermost Chain linked

  class Nest {
   public:
    explicit Nest(ParseDepth* d) : d_(d) {
      d->peak = std::max(d->peak, ++d->depth);
    }
    ~Nest() { --d_->depth; }
    int level() const { return d_->depth; }

   private:
    ParseDepth* d_;
  };

  class Chain {
   public:
    explicit Chain(ParseDepth* d)
        : d_(d), outer_peak_(d->peak), level_(d->depth) {
      d->peak = d->depth;
    }
    ~Chain() { d_->peak = std::max({outer_peak_, level_, d_->peak}); }
    /// Counts one node above every operand parsed since the last link;
    /// returns the level of the chain's deepest point.
    int Link() {
      level_ = std::max(level_, d_->peak) + 1;
      d_->peak = d_->depth;
      return level_;
    }

   private:
    ParseDepth* d_;
    int outer_peak_;
    int level_;
  };
};

}  // namespace eqsql

#endif  // EQSQL_COMMON_PARSE_DEPTH_H_
