// Packed, register-tiled GEMM (the "packed" kernel backend). A/B operands
// are repacked into contiguous panels sized for an MR x NR register
// microkernel, so the innermost loop streams both panels sequentially
// regardless of the tile's leading dimension. Below a size threshold the
// packing cost is not amortized and the call forwards to the unpacked
// blocked loop (la::GemmAccum), so default 64x64 tiles pay nothing.
//
// Numerics: per output element the accumulation order is byte-identical
// to la::GemmAccum and jvmlike::TileGemmAccum -- the accumulator is
// loaded from the existing C value and every k term is added in ascending
// order, with no k-blocking -- so all three backends produce bitwise
// equal products (tests/kernels_test.cc asserts this).
#ifndef SAC_LA_PACKED_GEMM_H_
#define SAC_LA_PACKED_GEMM_H_

#include "src/la/tile.h"

namespace sac::la {

/// out += a * b, same contract as la::GemmAccum (shapes m x l, l x n,
/// m x n; a 0x0 `out` is allocated to m x n zeros first).
void PackedGemmAccum(const Tile& a, const Tile& b, Tile* out);

/// Minimum min(m, n) at which PackedGemmAccum actually packs; smaller
/// products forward to la::GemmAccum. Set at the measured packed vs
/// unpacked crossover (see docs/KERNELS.md).
int64_t PackedGemmThreshold();

/// True when PackedGemmAccum would take the packed path for these shapes
/// (exposed so tests and benches can pick shapes on either side).
bool PackedGemmWouldPack(int64_t m, int64_t l, int64_t n);

}  // namespace sac::la

#endif  // SAC_LA_PACKED_GEMM_H_
