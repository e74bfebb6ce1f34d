// Preallocated per-event scratch space of the row-update hot path.
//
// Every buffer a row updater touches during one event lives here, sized
// once (or when the model shape changes) by Prepare and reused event after
// event, so steady-state event processing performs zero heap allocations
// (guarded by the counting-allocator test in tests/hot_path_test.cpp).
// Owned by RowUpdaterBase and threaded through every UpdateRow
// implementation; SNS-MAT's ALS sweep uses the sibling AlsWorkspace
// (core/als.h).
//
// All rank-length scratch is 64-byte-aligned and padded to PaddedRank(R)
// with zero padding lanes (linalg/simd.h), so the padded rank-dispatch
// kernels may read and write the full stride. Prepare also resolves the
// RankKernelTable for the model's padded rank exactly once — the
// compile-time-specialized kernel set every updater calls per row.

#ifndef SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_
#define SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_

#include <vector>

#include "core/gram_solve.h"
#include "core/slice_sampler.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"

namespace sns {

struct UpdateWorkspace {
  /// (Re)sizes every buffer for the given shape and resolves the rank
  /// kernel tables for `tier`. No-op — and in particular allocation-free —
  /// when the shape and tier are unchanged. sample_capacity bounds the
  /// number of cells SampleSliceCellsInto may produce per row (0 for
  /// variants that never sample).
  void Prepare(int num_modes, int64_t rank, int64_t sample_capacity,
               KernelTier tier = ResolveKernelTier());

  /// Compile-time-rank kernel set for padded_rank at the prepared tier,
  /// resolved once by Prepare (i.e. at engine construction). Null before
  /// the first Prepare.
  const RankKernelTable* kernels = nullptr;
  /// PaddedRank(rank): the trip count of every padded kernel call.
  int64_t padded_rank = 0;

  /// ∗_{n≠m} Q(n) for the row currently being updated — preloaded by
  /// RowUpdaterBase::OnEvent (via GramProductCache) before each UpdateRow.
  Matrix h;
  /// ∗_{n≠m} U(n) of the sampled paths, written by
  /// RowUpdaterBase::HadamardOfPrevGramsExcept.
  Matrix h_prev;
  /// One reconstructed prev-Gram U(n) = Q(n) + Σ (p−a)'a.
  Matrix u_scratch;
  /// Cholesky-backed row solver (allocation-free fast path).
  GramSolver solver;

  AlignedVector old_row;   // Event-start value of the row in flight.
  AlignedVector rhs;       // Right-hand side / numerator accumulator.
  AlignedVector solution;  // Solve output before the factor write.
  AlignedVector had;       // Per-entry Hadamard row product.
  std::vector<SampledCell> samples;  // θ-sample output (RND variants).
  SliceSamplerScratch sampler;       // θ-sampler keys and hashes.

 private:
  int num_modes_ = 0;
  int64_t rank_ = 0;
  int64_t sample_capacity_ = 0;
  KernelTier tier_ = KernelTier::kGeneric;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_
