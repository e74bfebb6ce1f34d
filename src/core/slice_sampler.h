// Uniform sampling of cells from one tensor slice for SNS-RND / SNS+RND
// (Alg. 4 line 12 / Alg. 5 line 10).
//
// S is drawn from the *full index grid* of the slice {J : J[mode] = row} —
// zero cells included — not merely from its non-zeros: the paper defines
// x̄_J = x_J − x̃_J "for any index J of X", and sampled zero cells (where
// x̄_J = −x̃_J) are what pulls spurious model mass back down. Cells changed
// by the current event are excluded per footnote 2.
//
// Sampled cells carry their window value, fetched exactly once here, so the
// consumers (sns_rnd, sns_rnd_plus) never re-hash the window per cell.
//
// The sampler runs in two phases:
//   1. Draw. Rejection sampling picks the cells. Accept/reject decisions
//      depend only on coordinates, never on window values, and compare one
//      packed 64-bit slice offset per cell (a ModeIndex comparison when the
//      slice grid does not fit in 64 bits).
//   2. Fetch. Each accepted cell is hashed once and its hash-index slot
//      prefetched; then all cells are probed. The home-slot cache misses of
//      the θ lookups overlap instead of serializing.
// Invariant: the UniformInt draws, the accepted cells and their order, the
// values and the probe count (SparseTensor::hash_lookup_count) are exactly
// those of one rejection loop calling window.Get per accepted cell. The
// RNG stream, and so every downstream factor bit, does not depend on how
// the work is split.

#ifndef SLICENSTITCH_CORE_SLICE_SAMPLER_H_
#define SLICENSTITCH_CORE_SLICE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// One sampled slice cell: its window coordinate and current window value
/// (0.0 for the — typical — zero cells).
struct SampledCell {
  ModeIndex index;
  double value = 0.0;
};

/// Reusable per-call scratch of SampleSliceCellsInto: the packed slice
/// keys of phase 1 and the coordinate hashes of phase 2. Once Reserve()d
/// for the largest call, reuse is allocation-free.
struct SliceSamplerScratch {
  /// capacity: the most cells one call may produce plus the delta cells.
  void Reserve(int64_t capacity) {
    keys.reserve(static_cast<size_t>(capacity));
    hashes.reserve(static_cast<size_t>(capacity));
  }

  std::vector<uint64_t> keys;
  std::vector<uint64_t> hashes;
};

/// Samples up to `count` distinct cells uniformly without replacement from
/// the slice grid {J : J[mode] = row} of `window`'s shape into `out`
/// (cleared first, capacity preserved), never returning a cell of `delta`.
/// If the slice grid (minus delta cells) has at most `count` cells, all of
/// them are returned — so at most count + delta.cells.size() cells are ever
/// produced. Each cell carries its window value. With `out` and `scratch`
/// pre-reserved (see UpdateWorkspace) this performs no heap allocation —
/// the hot-path form used by the RND updaters.
void SampleSliceCellsInto(const SparseTensor& window, int mode, int64_t row,
                          int64_t count, const WindowDelta& delta, Rng& rng,
                          std::vector<SampledCell>& out,
                          SliceSamplerScratch& scratch);

/// Allocating convenience wrapper over SampleSliceCellsInto.
std::vector<SampledCell> SampleSliceCells(const SparseTensor& window, int mode,
                                          int64_t row, int64_t count,
                                          const WindowDelta& delta, Rng& rng);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SLICE_SAMPLER_H_
