// Tests for the slice-grid sampler used by SNS-RND / SNS+RND.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/slice_sampler.h"
#include "reference_slice_sampler.h"

namespace sns {
namespace {

WindowDelta DeltaWithCells(std::vector<ModeIndex> cells) {
  WindowDelta delta;
  for (ModeIndex& cell : cells) delta.cells.push_back({cell, 1.0});
  return delta;
}

TEST(SliceSamplerTest, CellsAreDistinctInBoundsAndOnSlice) {
  SparseTensor window({6, 7, 5});
  Rng rng(1);
  WindowDelta delta;
  for (int trial = 0; trial < 20; ++trial) {
    auto cells = SampleSliceCells(window, /*mode=*/1, /*row=*/3,
                                  /*count=*/10, delta, rng);
    EXPECT_EQ(cells.size(), 10u);
    std::set<std::string> seen;
    for (const SampledCell& cell : cells) {
      EXPECT_EQ(cell.index.size(), 3);
      EXPECT_EQ(cell.index[1], 3);
      EXPECT_GE(cell.index[0], 0);
      EXPECT_LT(cell.index[0], 6);
      EXPECT_GE(cell.index[2], 0);
      EXPECT_LT(cell.index[2], 5);
      EXPECT_TRUE(seen.insert(cell.index.ToString()).second)
          << cell.index.ToString();
    }
  }
}

TEST(SliceSamplerTest, ExcludesDeltaCells) {
  SparseTensor window({2, 3, 2});
  Rng rng(2);
  // Slice mode 0, row 1 has 3*2 = 6 cells; exclude two of them.
  WindowDelta delta =
      DeltaWithCells({ModeIndex{1, 0, 0}, ModeIndex{1, 2, 1}});
  auto cells = SampleSliceCells(window, 0, 1, /*count=*/100, delta, rng);
  EXPECT_EQ(cells.size(), 4u);  // Enumeration path: all minus the 2 deltas.
  for (const SampledCell& cell : cells) {
    EXPECT_FALSE(cell.index == (ModeIndex{1, 0, 0}));
    EXPECT_FALSE(cell.index == (ModeIndex{1, 2, 1}));
  }
}

TEST(SliceSamplerTest, TinySliceEnumeratesEverything) {
  SparseTensor window({4, 3});
  Rng rng(3);
  WindowDelta delta;
  auto cells = SampleSliceCells(window, 1, 2, /*count=*/50, delta, rng);
  ASSERT_EQ(cells.size(), 4u);
  std::set<int32_t> first_indices;
  for (const SampledCell& cell : cells) {
    EXPECT_EQ(cell.index[1], 2);
    first_indices.insert(cell.index[0]);
  }
  EXPECT_EQ(first_indices.size(), 4u);
}

TEST(SliceSamplerTest, ApproximatelyUniformOverGrid) {
  SparseTensor window({10, 50});
  Rng rng(4);
  WindowDelta delta;
  std::map<int32_t, int> counts;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (const SampledCell& cell :
         SampleSliceCells(window, 0, 5, /*count=*/5, delta, rng)) {
      counts[cell.index[1]]++;
    }
  }
  // 4000 * 5 samples over 50 cells → mean 400 per cell.
  for (const auto& [index, count] : counts) {
    EXPECT_GT(count, 280) << index;
    EXPECT_LT(count, 520) << index;
  }
}

TEST(SliceSamplerTest, SamplesIncludeZeroCells) {
  // Window with a single non-zero: nearly all sampled cells must be zeros.
  SparseTensor window({30, 30, 4});
  window.Set({0, 0, 0}, 5.0);
  Rng rng(5);
  WindowDelta delta;
  auto cells = SampleSliceCells(window, 2, 0, /*count=*/40, delta, rng);
  EXPECT_EQ(cells.size(), 40u);
  int zero_cells = 0;
  for (const SampledCell& cell : cells) {
    // Sampled cells carry the window value so consumers never re-hash.
    EXPECT_DOUBLE_EQ(cell.value, window.Get(cell.index));
    if (cell.value == 0.0) ++zero_cells;
  }
  EXPECT_GE(zero_cells, 39);
}

// ---------------------------------------------------------------------------
// Differential pins: the two-phase sampler against the single-phase
// reference (reference_slice_sampler.h). Cells, values, RNG state and the
// window's probe count must match after every call.

// A window of `dims` with about `fill` of its cells non-zero.
SparseTensor RandomWindow(std::vector<int64_t> dims, double fill,
                          uint64_t seed, int64_t max_cells = 4000) {
  SparseTensor window(dims);
  Rng rng(seed);
  double grid = 1.0;
  for (int64_t d : dims) grid *= static_cast<double>(d);
  const int64_t cells = static_cast<int64_t>(
      std::min(grid * fill, static_cast<double>(max_cells)));
  for (int64_t i = 0; i < cells; ++i) {
    ModeIndex index;
    for (int64_t d : dims) {
      index.PushBack(static_cast<int32_t>(rng.UniformInt(0, d - 1)));
    }
    window.Add(index, rng.UniformDouble(0.5, 2.0));
  }
  return window;
}

// Runs `calls` sampler calls per row of `mode` and compares every output
// with the reference run from an identically seeded generator.
void ExpectMatchesReference(const SparseTensor& window, int mode,
                            int64_t count, const WindowDelta& delta,
                            uint64_t seed, int calls = 3) {
  Rng rng(seed);
  Rng ref_rng(seed);
  std::vector<SampledCell> out;
  SliceSamplerScratch scratch;
  for (int64_t row = 0; row < window.dim(mode); ++row) {
    for (int call = 0; call < calls; ++call) {
      const uint64_t probes_before = window.hash_lookup_count();
      SampleSliceCellsInto(window, mode, row, count, delta, rng, out, scratch);
      const uint64_t probes = window.hash_lookup_count() - probes_before;
      const std::vector<SampledCell> expected =
          ReferenceSampleSliceCells(window, mode, row, count, delta, ref_rng);
      const uint64_t ref_probes =
          window.hash_lookup_count() - probes_before - probes;
      SCOPED_TRACE(::testing::Message() << "mode " << mode << " row " << row
                                        << " call " << call);
      ASSERT_EQ(out.size(), expected.size());
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(out[i].index == expected[i].index)
            << i << ": " << out[i].index.ToString() << " vs "
            << expected[i].index.ToString();
        ASSERT_EQ(out[i].value, expected[i].value) << i;
      }
      ASSERT_TRUE(rng.SaveState() == ref_rng.SaveState());
      ASSERT_EQ(probes, ref_probes);
      ASSERT_EQ(probes, out.size());
    }
  }
}

// A delta with one cell on `row` of `mode` and one on the next row.
WindowDelta MixedDelta(const SparseTensor& window, int mode, int64_t row) {
  ModeIndex on;
  ModeIndex off;
  for (int n = 0; n < window.num_modes(); ++n) {
    on.PushBack(static_cast<int32_t>(window.dim(n) / 2));
    off.PushBack(static_cast<int32_t>(window.dim(n) / 2));
  }
  on[mode] = static_cast<int32_t>(row);
  off[mode] = static_cast<int32_t>((row + 1) % window.dim(mode));
  return DeltaWithCells({on, off});
}

TEST(SliceSamplerDifferentialTest, ThreeModeMatchesReference) {
  const SparseTensor window = RandomWindow({30, 40, 10}, 0.2, 11);
  for (int mode = 0; mode < 3; ++mode) {
    ExpectMatchesReference(window, mode, 20, WindowDelta{}, 100 + mode);
    ExpectMatchesReference(window, mode, 20, MixedDelta(window, mode, 3),
                           200 + mode);
  }
}

TEST(SliceSamplerDifferentialTest, FourAndFiveModeMatchReference) {
  const SparseTensor four = RandomWindow({12, 9, 8, 5}, 0.3, 12);
  const SparseTensor five = RandomWindow({7, 6, 5, 4, 3}, 0.3, 13);
  for (int mode = 0; mode < 4; ++mode) {
    ExpectMatchesReference(four, mode, 20, MixedDelta(four, mode, 1),
                           300 + mode);
  }
  for (int mode = 0; mode < 5; ++mode) {
    ExpectMatchesReference(five, mode, 20, MixedDelta(five, mode, 2),
                           400 + mode);
  }
}

TEST(SliceSamplerDifferentialTest, DeltaCellsOnTheSliceAreRejected) {
  // Slice grid of 5×5 = 25 cells, θ = 20: rejection sampling (not
  // enumeration) keeps drawing the two on-slice delta cells and duplicates.
  const SparseTensor window = RandomWindow({4, 5, 5}, 0.5, 14);
  ModeIndex a{2, 1, 1};
  ModeIndex b{2, 3, 4};
  const WindowDelta delta = DeltaWithCells({a, b});
  ExpectMatchesReference(window, 0, 20, delta, 500, /*calls=*/10);
  Rng rng(501);
  std::vector<SampledCell> out;
  SliceSamplerScratch scratch;
  for (int call = 0; call < 50; ++call) {
    SampleSliceCellsInto(window, 0, 2, 20, delta, rng, out, scratch);
    for (const SampledCell& cell : out) {
      EXPECT_FALSE(cell.index == a);
      EXPECT_FALSE(cell.index == b);
    }
  }
}

TEST(SliceSamplerDifferentialTest, TinySliceEnumerationMatchesReference) {
  // Slice grids of 3×2 = 6 cells: enumerated whether or not delta cells
  // sit on the slice.
  const SparseTensor window = RandomWindow({5, 3, 2}, 0.6, 15);
  ExpectMatchesReference(window, 0, 10, WindowDelta{}, 600);
  ExpectMatchesReference(window, 0, 4, MixedDelta(window, 0, 1), 601);
}

TEST(SliceSamplerDifferentialTest, LargeThetaMatchesReference) {
  const SparseTensor window = RandomWindow({8, 60, 50}, 0.1, 16);
  ExpectMatchesReference(window, 0, 500, MixedDelta(window, 0, 4), 700,
                         /*calls=*/1);
}

TEST(SliceSamplerDifferentialTest, GridBeyondSixtyFourBitsFallsBack) {
  // 600^7 ≈ 2.8e19 > 2^64 slice cells: no packed offset exists, so the
  // sampler compares ModeIndex values. 550^7 ≈ 1.5e19 still fits. (Draws
  // on grids this large never repeat a cell, so this pins cells, values and
  // draws, not the rejections.)
  for (const int64_t extent : {600, 550}) {
    std::vector<int64_t> dims(8, extent);
    dims[0] = 3;
    const SparseTensor window = RandomWindow(dims, 1.0, 17, /*max_cells=*/300);
    ExpectMatchesReference(window, 0, 20, MixedDelta(window, 0, 1), 800);
  }
}

}  // namespace
}  // namespace sns
