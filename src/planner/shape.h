// Structural analysis of a normalized comprehension: extracts generators,
// index equalities, guards, lets, group-by and head into a flat record the
// translation rules of Sections 4-5 pattern-match on.
#ifndef SAC_PLANNER_SHAPE_H_
#define SAC_PLANNER_SHAPE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"

namespace sac::planner {

/// One generator over a named array binding. `idx` holds the index
/// variable names (2 for matrices, 1 for vectors); `val` the element
/// variable ("" when the pattern uses a wildcard).
struct GenInfo {
  std::string source;
  std::vector<std::string> idx;
  std::string val;
  comp::Pos pos;
};

/// A `let p = e` with a single-variable pattern.
struct LetInfo {
  std::string var;
  comp::ExprPtr expr;
};

struct QueryShape {
  std::string builder;  // "tiled", "rdd", "matrix", ... ("" if bare comp)
  std::vector<comp::ExprPtr> builder_args;

  std::vector<GenInfo> gens;
  std::vector<LetInfo> lets;
  /// Guards of the form v1 == v2 where both are index variables.
  std::vector<std::pair<std::string, std::string>> index_eqs;
  /// All remaining guards, in order.
  std::vector<comp::ExprPtr> guards;

  bool has_group_by = false;
  std::vector<std::string> group_key_vars;  // flattened key pattern vars

  comp::ExprPtr head_key;  // first component of the head pair
  comp::ExprPtr head_val;  // second component
  comp::Pos pos;

  /// Index of the generator binding index variable `v`, with its position
  /// inside that generator's index list; nullopt when not an index var.
  struct IdxRef {
    size_t gen;
    size_t pos;
  };
  std::optional<IdxRef> FindIndexVar(const std::string& v) const;

  /// Resolves `v` through index equalities: if v is equated to an index
  /// variable of generator g, returns that reference.
  std::optional<IdxRef> ResolveVar(const std::string& v) const;

  /// Inlines all lets into an expression (repeatedly substitutes).
  comp::ExprPtr InlineLets(const comp::ExprPtr& e) const;
};

/// Extracts a `((i,j),v)` / `(i,v)` generator over a named array; a `_`
/// value pattern leaves `val` empty. PlanError on any other pattern.
Result<GenInfo> AnalyzeGenerator(const comp::Qualifier& q);

/// Analyzes a normalized `builder(args)[ (key, val) | quals ]` (or bare
/// comprehension). Fails with PlanError on shapes outside the supported
/// fragment; the caller then falls back to a general strategy.
Result<QueryShape> AnalyzeShape(const comp::ExprPtr& e);

}  // namespace sac::planner

#endif  // SAC_PLANNER_SHAPE_H_
