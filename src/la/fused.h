// Fused elementwise pipelines: a transpose feeding an elementwise op is
// executed as ONE blocked pass that reads the transposed operand in
// place, instead of materializing a transposed temporary tile and then
// running the op over it. Same values, same single arithmetic op per
// element -- results are bit-identical to the two-pass form -- but one
// tile allocation and one memory sweep fewer per stage (the tile_allocs
// counter the fusion gate in bench_abl_backend watches).
//
// The planner enables these under PlannerOptions::fuse_elementwise.
#ifndef SAC_LA_FUSED_H_
#define SAC_LA_FUSED_H_

#include <functional>

#include "src/la/tile.h"

namespace sac::la {

/// Recognized zip shapes (src/planner/fusion.h matches head expressions
/// onto these): a+b, a-b, a*b (Hadamard), alpha*a + beta*b.
enum class ZipOp { kAdd, kSub, kMul, kAxpby };

/// out = op(A, B) where A = a_t ? a^T : a and B = b_t ? b^T : b, computed
/// in one pass. Logical shapes of A and B must agree; `out` gets that
/// shape. alpha/beta are used by kAxpby only.
void FusedZip(ZipOp op, double alpha, double beta, const Tile& a, bool a_t,
              const Tile& b, bool b_t, Tile* out);

/// General zip through a scalar closure, transposed reads fused.
void FusedZipFn(const std::function<double(double, double)>& f,
                const Tile& a, bool a_t, const Tile& b, bool b_t, Tile* out);

/// out = f(A) with A = a_t ? a^T : a, one pass (map fused into the
/// transpose sweep).
void FusedMapFn(const std::function<double(double)>& f, const Tile& a,
                bool a_t, Tile* out);

/// out = alpha * A with A = a_t ? a^T : a, one pass.
void FusedScale(double alpha, const Tile& a, bool a_t, Tile* out);

}  // namespace sac::la

#endif  // SAC_LA_FUSED_H_
