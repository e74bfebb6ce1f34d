#include "core/update_workspace.h"

namespace sns {

void UpdateWorkspace::Prepare(int num_modes, int64_t rank,
                              int64_t sample_capacity, KernelTier tier) {
  if (num_modes == num_modes_ && rank == rank_ &&
      sample_capacity == sample_capacity_ && tier == tier_) {
    return;
  }
  num_modes_ = num_modes;
  rank_ = rank;
  sample_capacity_ = sample_capacity;
  tier_ = tier;

  padded_rank = PaddedRank(rank);
  kernels = &GetRankKernelTable(padded_rank, tier);
  solver.set_kernels(&GetRankKernelTable(0, tier));

  h = Matrix(rank, rank);
  h_prev = Matrix(rank, rank);
  u_scratch = Matrix(rank, rank);
  old_row.Assign(rank, 0.0);
  rhs.Assign(rank, 0.0);
  solution.Assign(rank, 0.0);
  had.Assign(rank, 0.0);
  samples.clear();
  samples.reserve(static_cast<size_t>(sample_capacity));
  sampler.Reserve(sample_capacity);
}

}  // namespace sns
