// Query compilation: turns a normalized comprehension plus bindings into
// an executable physical plan over the DISC engine, choosing among the
// paper's translation strategies:
//
//   5.4 group-by-join (SUMMA)        -- TryGroupByJoin
//   5.3 join + reduceByKey on tiles  -- TryReduceByKey
//   5.1 tiling-preserving tile join  -- TryTilingPreserving
//   5.2 replication sets I_f(K)      -- TryReplication
//   4   coordinate-format fallback   -- TryCoo
//   --  local fallback (collect + reference eval, small data)
//
// Each Try* returns PlanError when its pattern does not apply; CompileQuery
// tries them in the order above (a strategy that shuffles less is always
// preferred) and returns the first plan that matches.
#ifndef SAC_PLANNER_PLANNER_H_
#define SAC_PLANNER_PLANNER_H_

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"
#include "src/planner/plan.h"
#include "src/planner/shape.h"

namespace sac::planner {

/// Compiles a query expression (already normalized by comp::Normalize).
/// `binds` must outlive compilation only; the returned plan owns copies of
/// everything it needs.
Result<CompiledQuery> CompileQuery(const comp::ExprPtr& query,
                                   const Bindings& binds,
                                   const PlannerOptions& opts);

// ---- individual strategies (exposed for unit tests) -----------------------

Result<CompiledQuery> TryGroupByJoin(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryReduceByKey(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryTilingPreserving(const QueryShape& shape,
                                          const Bindings& binds,
                                          const PlannerOptions& opts);
Result<CompiledQuery> TryReplication(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryCoo(const QueryShape& shape, const Bindings& binds,
                             const PlannerOptions& opts);

/// Total aggregation `op/[ e | quals ]` over one distributed generator.
Result<CompiledQuery> TryTotalAggregate(const comp::ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts);

/// Collect-everything fallback; refuses when inputs exceed
/// opts.local_fallback_max_cells.
Result<CompiledQuery> LocalFallbackPlan(const comp::ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts);

// ---- shared helpers --------------------------------------------------------

/// The PlanError a Try* strategy returns when its pattern does not apply.
Status NotApplicable(const std::string& rule, const std::string& why);

/// Identity of the scalar monoid ⊕ (count and avg fold as sums).
inline double MonoidIdentity(comp::ReduceOp op) {
  switch (op) {
    case comp::ReduceOp::kProd:
      return 1.0;
    case comp::ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
    case comp::ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

/// *acc ⊕= v for the scalar monoid (count and avg fold as sums).
inline void MonoidAccum(comp::ReduceOp op, double* acc, double v) {
  switch (op) {
    case comp::ReduceOp::kProd:
      *acc *= v;
      break;
    case comp::ReduceOp::kMin:
      *acc = std::min(*acc, v);
      break;
    case comp::ReduceOp::kMax:
      *acc = std::max(*acc, v);
      break;
    default:
      *acc += v;
      break;
  }
}

/// One aggregate ⊕/g of a group-by head: `g` is the per-element term over
/// the generator element variables; `op` is sum, prod, min or max.
struct AggInfo {
  comp::ReduceOp op;
  comp::ExprPtr g;
};

/// A (let-inlined) group-by head value decomposed into
/// f($agg0, ..., $aggm) over aggregates ⊕i/gi (rule 12 / Section 5.3).
struct AggDecomposition {
  std::vector<AggInfo> aggs;
  comp::ExprPtr finalize;  // over variables $agg0...$aggm
};

/// Decomposes a head value; count/ becomes a sum of 1 and avg/ a sum
/// divided by a count. PlanError on other monoids, nested aggregations or
/// a head with no aggregate.
Result<AggDecomposition> ExtractAggs(const comp::ExprPtr& head_val_inlined);

/// Whether the finalize step is just `$agg0` (one aggregate, no arithmetic).
bool FinalizeIsIdentity(const AggDecomposition& d);

/// Whether cost-based planning is active: PlannerOptions::auto_strategy
/// unless the SAC_AUTO_STRATEGY=off escape hatch overrides it.
bool AutoStrategyEnabled(const PlannerOptions& opts);

/// Evaluates a builder argument / scalar expression to an int64 using the
/// scalar bindings.
Result<int64_t> EvalScalarInt(const comp::ExprPtr& e, const Bindings& binds);

/// All numeric scalar bindings as an exec::ConstEnv.
void CollectScalarConsts(const Bindings& binds,
                         std::unordered_map<std::string, double>* out);

/// The entries of `binds` whose names appear in `names`: what a run
/// closure captures, so a compiled plan keeps alive only the datasets
/// its query reads.
Bindings BindingsNamed(const Bindings& binds,
                       const std::vector<std::string>& names);

}  // namespace sac::planner

#endif  // SAC_PLANNER_PLANNER_H_
