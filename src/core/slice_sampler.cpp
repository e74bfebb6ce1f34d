#include "core/slice_sampler.h"

#include <algorithm>
#include <array>

namespace sns {
namespace {

bool IsDeltaCell(const WindowDelta& delta, const ModeIndex& index) {
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index == index) return true;
  }
  return false;
}

bool AlreadySampled(const std::vector<SampledCell>& cells,
                    const ModeIndex& index) {
  for (const SampledCell& cell : cells) {
    if (cell.index == index) return true;
  }
  return false;
}

/// Row-major strides of the slice grid, with stride 0 for the fixed mode,
/// so that Σ index[n]·stride[n] is a cell's offset inside the slice.
/// Returns false when the slice grid has 2^64 cells or more and the offsets
/// do not fit in a uint64_t.
bool SliceStrides(const SparseTensor& window, int mode,
                  std::array<uint64_t, kMaxTensorModes>& stride) {
  uint64_t size = 1;
  for (int n = window.num_modes() - 1; n >= 0; --n) {
    stride[static_cast<size_t>(n)] = n == mode ? 0 : size;
    if (n != mode && __builtin_mul_overflow(
                         size, static_cast<uint64_t>(window.dim(n)), &size)) {
      return false;
    }
  }
  return true;
}

/// Phase 2: fills in every cell's window value. Each coordinate is hashed
/// once and its home slot prefetched before the first probe, so the θ
/// lookups' cache misses overlap. One probe per cell, in cell order — the
/// same values and probe count as one window.Get per cell.
void FetchValues(const SparseTensor& window, std::vector<SampledCell>& cells,
                 std::vector<uint64_t>& hashes) {
  hashes.clear();
  for (const SampledCell& cell : cells) {
    const uint64_t hash = SparseTensor::CellHash(cell.index);
    window.PrefetchCell(hash);
    hashes.push_back(hash);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].value = window.GetHashed(cells[i].index, hashes[i]);
  }
}

}  // namespace

std::vector<SampledCell> SampleSliceCells(const SparseTensor& window, int mode,
                                          int64_t row, int64_t count,
                                          const WindowDelta& delta, Rng& rng) {
  std::vector<SampledCell> cells;
  SliceSamplerScratch scratch;
  SampleSliceCellsInto(window, mode, row, count, delta, rng, cells, scratch);
  return cells;
}

void SampleSliceCellsInto(const SparseTensor& window, int mode, int64_t row,
                          int64_t count, const WindowDelta& delta, Rng& rng,
                          std::vector<SampledCell>& out,
                          SliceSamplerScratch& scratch) {
  const int modes = window.num_modes();
  // Size of the slice grid (product of the other modes' extents).
  double grid_size = 1.0;
  for (int n = 0; n < modes; ++n) {
    if (n != mode) grid_size *= static_cast<double>(window.dim(n));
  }

  out.clear();
  ModeIndex base;
  for (int n = 0; n < modes; ++n) base.PushBack(0);
  base[mode] = static_cast<int32_t>(row);

  if (grid_size <= static_cast<double>(count) + delta.cells.size()) {
    // Tiny slice: enumerate every cell (odometer over the other modes).
    ModeIndex index = base;
    while (true) {
      if (!IsDeltaCell(delta, index)) out.push_back({index, 0.0});
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
    FetchValues(window, out, scratch.hashes);
    return;
  }

  // Phase 1: rejection sampling without replacement; duplicates are rare
  // because the grid dwarfs `count`. With packed offsets, `keys` holds the
  // on-slice delta cells' offsets followed by the accepted cells', so one
  // scan rejects both (θ is a small constant — Table III uses 20 — so a
  // linear scan beats a hash set).
  std::array<uint64_t, kMaxTensorModes> stride{};
  const bool packed = SliceStrides(window, mode, stride);
  auto offset_of = [&](const ModeIndex& index) {
    uint64_t offset = 0;
    for (int n = 0; n < modes; ++n) {
      offset += static_cast<uint64_t>(index[n]) * stride[static_cast<size_t>(n)];
    }
    return offset;
  };
  std::vector<uint64_t>& keys = scratch.keys;
  keys.clear();
  if (packed) {
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] == row) keys.push_back(offset_of(cell.index));
    }
  }
  // The sampled modes in draw order, with their extents.
  std::array<int, kMaxTensorModes> free_mode{};
  std::array<int64_t, kMaxTensorModes> free_dim{};
  int num_free = 0;
  for (int n = 0; n < modes; ++n) {
    if (n == mode) continue;
    free_mode[static_cast<size_t>(num_free)] = n;
    free_dim[static_cast<size_t>(num_free)] = window.dim(n);
    ++num_free;
  }

  out.reserve(static_cast<size_t>(count));
  int attempts = 0;
  const int max_attempts = static_cast<int>(count) * 20 + 64;
  while (static_cast<int64_t>(out.size()) < count &&
         attempts++ < max_attempts) {
    ModeIndex index = base;
    uint64_t offset = 0;
    for (int k = 0; k < num_free; ++k) {
      const int n = free_mode[static_cast<size_t>(k)];
      const int64_t i =
          rng.UniformInt(0, free_dim[static_cast<size_t>(k)] - 1);
      index[n] = static_cast<int32_t>(i);
      offset += static_cast<uint64_t>(i) * stride[static_cast<size_t>(n)];
    }
    if (packed) {
      if (std::find(keys.begin(), keys.end(), offset) != keys.end()) continue;
      keys.push_back(offset);
    } else if (IsDeltaCell(delta, index) || AlreadySampled(out, index)) {
      continue;
    }
    out.push_back({index, 0.0});
  }

  // Phase 2: the accepted cells' window values.
  FetchValues(window, out, scratch.hashes);
}

}  // namespace sns
