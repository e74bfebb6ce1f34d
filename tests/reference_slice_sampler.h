// Reference θ-sampler for differential tests: the single-phase rejection
// loop the library's two-phase SampleSliceCellsInto must reproduce cell for
// cell, value for value and draw for draw. Duplicates and delta cells are
// rejected by ModeIndex comparison, and each accepted cell's value is
// fetched with window.Get as soon as it is accepted.

#ifndef SLICENSTITCH_TESTS_REFERENCE_SLICE_SAMPLER_H_
#define SLICENSTITCH_TESTS_REFERENCE_SLICE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/slice_sampler.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

inline std::vector<SampledCell> ReferenceSampleSliceCells(
    const SparseTensor& window, int mode, int64_t row, int64_t count,
    const WindowDelta& delta, Rng& rng) {
  auto is_delta = [&](const ModeIndex& index) {
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index == index) return true;
    }
    return false;
  };
  const int modes = window.num_modes();
  double grid_size = 1.0;
  for (int n = 0; n < modes; ++n) {
    if (n != mode) grid_size *= static_cast<double>(window.dim(n));
  }
  std::vector<SampledCell> cells;
  if (grid_size <= static_cast<double>(count) + delta.cells.size()) {
    ModeIndex index;
    for (int n = 0; n < modes; ++n) index.PushBack(0);
    index[mode] = static_cast<int32_t>(row);
    while (true) {
      if (!is_delta(index)) cells.push_back({index, window.Get(index)});
      int n = modes - 1;
      while (n >= 0) {
        if (n == mode) {
          --n;
          continue;
        }
        if (++index[n] < window.dim(n)) break;
        index[n] = 0;
        --n;
      }
      if (n < 0) break;
    }
    return cells;
  }
  int attempts = 0;
  const int max_attempts = static_cast<int>(count) * 20 + 64;
  while (static_cast<int64_t>(cells.size()) < count &&
         attempts++ < max_attempts) {
    ModeIndex index;
    for (int n = 0; n < modes; ++n) {
      index.PushBack(n == mode ? static_cast<int32_t>(row)
                               : static_cast<int32_t>(rng.UniformInt(
                                     0, window.dim(n) - 1)));
    }
    if (is_delta(index)) continue;
    bool seen = false;
    for (const SampledCell& cell : cells) seen = seen || cell.index == index;
    if (seen) continue;
    cells.push_back({index, window.Get(index)});
  }
  return cells;
}

}  // namespace sns

#endif  // SLICENSTITCH_TESTS_REFERENCE_SLICE_SAMPLER_H_
