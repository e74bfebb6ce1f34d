// Correctness tests for the five SliceNStitch updaters (Algorithms 2-5).

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/als.h"
#include "core/cpd_state.h"
#include "core/continuous_cpd.h"
#include "core/gram_solve.h"
#include "core/sns_mat.h"
#include "core/sns_rnd.h"
#include "core/sns_rnd_plus.h"
#include "core/sns_vec.h"
#include "core/sns_vec_plus.h"
#include "tensor/mttkrp.h"
#include "reference_slice_sampler.h"

namespace sns {
namespace {

// Window tensor equal to the dense values of `model` (so X̃ = X exactly).
SparseTensor DenseWindowFromModel(const KruskalModel& model) {
  std::vector<int64_t> dims;
  for (int m = 0; m < model.num_modes(); ++m) {
    dims.push_back(model.factor(m).rows());
  }
  SparseTensor x(dims);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    x.Set(index, model.Evaluate(index));
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return x;
}

// Applies an arrival delta of value v at (i0, i1, W-1) to `window` and
// returns the WindowDelta describing it.
WindowDelta MakeArrival(SparseTensor& window, int32_t i0, int32_t i1,
                        double v, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.time = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
  window.Add(cell, v);
  delta.cells.push_back({cell, v});
  return delta;
}

// Applies a slide delta (w-th update) for tuple (i0, i1, v) to `window`.
WindowDelta MakeSlide(SparseTensor& window, int32_t i0, int32_t i1, double v,
                      int w, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kSlide;
  delta.w = w;
  delta.time = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex from = ModeIndex{i0, i1}.WithAppended(w_size - w);
  const ModeIndex to = ModeIndex{i0, i1}.WithAppended(w_size - w - 1);
  window.Add(from, -v);
  window.Add(to, v);
  delta.cells.push_back({from, -v});
  delta.cells.push_back({to, v});
  return delta;
}

double GramDrift(const CpdState& state) {
  double drift = 0.0;
  for (int m = 0; m < state.num_modes(); ++m) {
    Matrix expected =
        MultiplyTransposeA(state.model.factor(m), state.model.factor(m));
    drift = std::max(
        drift, MaxAbsDiff(state.grams[static_cast<size_t>(m)], expected));
  }
  return drift;
}

TEST(SnsMatTest, EventEqualsOneNormalizedAlsSweep) {
  Rng rng(21);
  const std::vector<int64_t> dims = {4, 3, 5};
  KruskalModel start = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(KruskalModel::Random(dims, 2, rng));

  CpdState state_updater(start);
  CpdState state_reference(start);

  WindowDelta delta = MakeArrival(window, 1, 2, 3.0, 5);
  // Reference sees the same post-delta window.
  SnsMatUpdater updater;
  updater.OnEvent(window, delta, state_updater);
  AlsSweep(window, state_reference, /*normalize_columns=*/true);

  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(MaxAbsDiff(state_updater.model.factor(m),
                         state_reference.model.factor(m)),
              1e-12);
  }
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(state_updater.model.lambda()[static_cast<size_t>(r)],
                     state_reference.model.lambda()[static_cast<size_t>(r)]);
  }
}

TEST(SnsMatTest, SkipsZeroValuedEvents) {
  Rng rng(22);
  const std::vector<int64_t> dims = {3, 3, 3};
  CpdState state(KruskalModel::Random(dims, 2, rng));
  KruskalModel before = state.model;
  SparseTensor window(dims);
  WindowDelta empty_delta;  // No cells.
  SnsMatUpdater updater;
  updater.OnEvent(window, empty_delta, state);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(MaxAbsDiff(state.model.factor(m), before.factor(m)), 1e-15);
  }
}

// Under a perfect model (X̃ = X, H nonsingular), Eq. 9's incremental time-
// mode update must coincide with the exact row least squares (Eq. 6/12).
TEST(SnsVecTest, TimeModeShortcutMatchesExactSolveUnderPerfectModel) {
  Rng rng(23);
  const int w_size = 4;
  const std::vector<int64_t> dims = {3, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  WindowDelta delta = MakeArrival(window, 2, 1, 5.0, w_size);

  // Expected: exact solve of the affected time row with the pre-event
  // factors (the time mode is updated first, so these are current).
  std::vector<double> b(PaddedRank(2)), expected(2);
  MttkrpRow(window, state.model.factors(), 2, w_size - 1, b.data());
  Matrix h = HadamardOfGramsExcept(state.grams, 2);
  SolveRowAgainstGram(h, b.data(), expected.data());

  SnsVecUpdater updater;
  updater.OnEvent(window, delta, state);

  const double* actual = state.model.factor(2).Row(w_size - 1);
  EXPECT_NEAR(actual[0], expected[0], 1e-8);
  EXPECT_NEAR(actual[1], expected[1], 1e-8);
}

// After an SNS-VEC event the final non-time row satisfies its normal
// equations exactly: A(m)(i,:) H = (X+ΔX)_(m)(i,:) K with everything at its
// final value (mode 1 is updated last in a 3-mode tensor).
TEST(SnsVecTest, LastNonTimeRowSatisfiesNormalEquations) {
  Rng rng(24);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  WindowDelta delta = MakeSlide(window, 3, 2, 2.0, 1, w_size);
  SnsVecUpdater updater;
  updater.OnEvent(window, delta, state);

  std::vector<double> rhs(PaddedRank(2));
  MttkrpRow(window, state.model.factors(), 1, 2, rhs.data());
  Matrix h = HadamardOfGramsExcept(state.grams, 1);
  const double* row = state.model.factor(1).Row(2);
  for (int64_t k = 0; k < 2; ++k) {
    double lhs = row[0] * h(0, k) + row[1] * h(1, k);
    EXPECT_NEAR(lhs, rhs[static_cast<size_t>(k)], 1e-8);
  }
}

TEST(SnsVecTest, OnlyAffectedRowsChange) {
  Rng rng(25);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  KruskalModel before = state.model;

  WindowDelta delta = MakeArrival(window, 2, 4, 1.5, w_size);
  SnsVecUpdater updater;
  updater.OnEvent(window, delta, state);

  for (int64_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(0)(i, r), before.factor(0)(i, r));
    }
  }
  for (int64_t i = 0; i < 6; ++i) {
    if (i == 4) continue;
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(1)(i, r), before.factor(1)(i, r));
    }
  }
  for (int64_t t = 0; t < w_size - 1; ++t) {  // Only row W-1 changes.
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(2)(t, r), before.factor(2)(t, r));
    }
  }
}

TEST(SnsVecTest, GramsStayConsistentAcrossEvents) {
  Rng rng(26);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  SnsVecUpdater updater;

  for (int step = 0; step < 50; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(0.5, 2.0), w_size);
    updater.OnEvent(window, delta, state);
  }
  EXPECT_LT(GramDrift(state), 1e-6);
}

TEST(SnsRndTest, ExactPathWhenDegreeBelowThreshold) {
  // With θ larger than any slice degree, SNS-RND uses Eq. 12 for every mode
  // — the update must then equal SNS-VEC's on non-time rows.
  Rng rng(27);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window_rnd = DenseWindowFromModel(model);
  SparseTensor window_vec = DenseWindowFromModel(model);
  CpdState state_rnd(model);
  CpdState state_vec(model);

  SnsRndUpdater rnd(/*sample_threshold=*/10000, /*seed=*/1);
  SnsVecUpdater vec;
  WindowDelta delta_rnd = MakeArrival(window_rnd, 1, 3, 2.0, w_size);
  WindowDelta delta_vec = MakeArrival(window_vec, 1, 3, 2.0, w_size);
  rnd.OnEvent(window_rnd, delta_rnd, state_rnd);
  vec.OnEvent(window_vec, delta_vec, state_vec);

  // Time rows may differ (Eq. 12 vs Eq. 9) but under the perfect model they
  // agree too; non-time rows must match given identical time rows.
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(
        MaxAbsDiff(state_rnd.model.factor(m), state_vec.model.factor(m)),
        1e-7)
        << "mode " << m;
  }
}

TEST(SnsRndTest, SampledPathKeepsGramsAndPrevGramsConsistent) {
  Rng rng(28);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  SnsRndUpdater updater(/*sample_threshold=*/3, /*seed=*/2);  // Forces sampling.

  for (int step = 0; step < 40; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(0.5, 1.5), w_size);
    updater.OnEvent(window, delta, state);
    ASSERT_LT(GramDrift(state), 1e-5) << "step " << step;
  }
}

TEST(CoordinateDescentTest, ClipsToBound) {
  Matrix hq = Matrix::Identity(3);
  // Padded contract: `row` spans hq.stride() doubles, padding at 0.0.
  double row[4] = {0.0, 0.0, 0.0, 0.0};
  double numerator[3] = {100.0, -50.0, 0.5};
  CoordinateDescentRow(row, 3, hq, numerator, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], -1.0);
  EXPECT_DOUBLE_EQ(row[2], 0.5);
}

TEST(CoordinateDescentTest, SkipsDeadComponents) {
  Matrix hq(2, 2);  // All zero: both components dead.
  double row[4] = {0.25, -0.75, 0.0, 0.0};
  double numerator[2] = {10.0, 10.0};
  CoordinateDescentRow(row, 2, hq, numerator, -5.0, 5.0);
  EXPECT_DOUBLE_EQ(row[0], 0.25);
  EXPECT_DOUBLE_EQ(row[1], -0.75);
}

// Coordinate descent with the Eq. 21 numerator solves the row least-squares
// problem exactly when run to convergence — one pass already matches the
// closed-form solve when HQ is diagonal; for general HQ, iterating must
// monotonically decrease ‖b − row·K'‖ measured through the normal equations.
TEST(CoordinateDescentTest, ReducesRowObjective) {
  Rng rng(29);
  Matrix k = Matrix::RandomNormal(12, 3, rng);   // Khatri-Rao stand-in.
  Matrix hq = MultiplyTransposeA(k, k);          // Gram of K.
  std::vector<double> target(12);
  for (auto& t : target) t = rng.Normal();
  // numerator_k = Σ_J x_J K(J,k) (Eq. 21 data term).
  std::vector<double> numerator(3, 0.0);
  for (int64_t j = 0; j < 12; ++j) {
    for (int64_t r = 0; r < 3; ++r) {
      numerator[static_cast<size_t>(r)] +=
          target[static_cast<size_t>(j)] * k(j, r);
    }
  }
  auto objective = [&](const double* row) {
    double obj = 0.0;
    for (int64_t j = 0; j < 12; ++j) {
      double approx = 0.0;
      for (int64_t r = 0; r < 3; ++r) approx += row[r] * k(j, r);
      const double diff = target[static_cast<size_t>(j)] - approx;
      obj += diff * diff;
    }
    return obj;
  };

  double row[4] = {rng.Normal(), rng.Normal(), rng.Normal(), 0.0};
  double previous = objective(row);
  for (int pass = 0; pass < 100; ++pass) {
    CoordinateDescentRow(row, 3, hq, numerator.data(), -1e6, 1e6);
    const double current = objective(row);
    EXPECT_LE(current, previous + 1e-9) << "pass " << pass;
    previous = current;
  }
  // Converges (linearly) to the closed-form least-squares solution.
  double expected[3];
  SolveRowAgainstGram(hq, numerator.data(), expected);
  EXPECT_NEAR(objective(row), objective(expected),
              1e-6 * (1.0 + objective(expected)));
}

TEST(SnsVecPlusTest, EntriesBoundedByEta) {
  Rng rng(30);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  const double eta = 0.6;
  SnsVecPlusUpdater updater(eta);

  for (int step = 0; step < 60; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(2.0, 8.0), w_size);
    updater.OnEvent(window, delta, state);
  }
  // Initial entries were in [0,1); every updated entry is clipped to ±η, so
  // nothing may exceed max(1, η).
  for (int m = 0; m < 3; ++m) {
    EXPECT_LE(state.model.factor(m).MaxAbs(), std::max(1.0, eta) + 1e-12);
  }
  EXPECT_LT(GramDrift(state), 1e-6);
}

TEST(SnsRndPlusTest, GramsAndBoundsHoldUnderSampling) {
  Rng rng(31);
  const int w_size = 3;
  const std::vector<int64_t> dims = {5, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  SnsRndPlusUpdater updater(/*sample_threshold=*/4, /*clip_bound=*/50.0,
                            /*seed=*/3);

  for (int step = 0; step < 60; ++step) {
    WindowDelta delta =
        step % 3 == 0
            ? MakeSlide(window, static_cast<int32_t>(rng.UniformInt(0, 4)),
                        static_cast<int32_t>(rng.UniformInt(0, 4)),
                        rng.UniformDouble(0.5, 2.0), 1 + step % 2, w_size)
            : MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 4)),
                          static_cast<int32_t>(rng.UniformInt(0, 4)),
                          rng.UniformDouble(0.5, 2.0), w_size);
    updater.OnEvent(window, delta, state);
    ASSERT_LT(GramDrift(state), 1e-5) << "step " << step;
    for (int m = 0; m < 3; ++m) {
      ASSERT_LE(state.model.factor(m).MaxAbs(), 50.0 + 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// RowUpdaterBase fails loudly — in every build type — on a delta whose
// cells span a third time row: its inline snapshot storage holds two.

TEST(RowUpdaterBaseDeathTest, ThirdTimeRowSnapshotFailsLoudly) {
  Rng rng(41);
  const int w_size = 4;
  const std::vector<int64_t> dims = {3, 3, w_size};
  CpdState state(KruskalModel::Random(dims, 2, rng));
  SparseTensor window(dims);
  WindowDelta delta;
  delta.kind = EventKind::kSlide;
  delta.w = 1;
  delta.tuple = Tuple{{1, 2}, 1.0, 0};
  for (int32_t t : {3, 2, 1}) {
    const ModeIndex cell = ModeIndex{1, 2}.WithAppended(t);
    window.Add(cell, 1.0);
    delta.cells.push_back({cell, 1.0});
  }
  SnsVecUpdater updater;
  EXPECT_DEATH(updater.OnEvent(window, delta, state), "num_time_snaps_ < 2");
}

// ---------------------------------------------------------------------------
// Differential pin of the shared θ-sampled kernel (RowUpdaterBase::
// SampledRowRhs): a test-local updater that builds the sampled right-hand
// side one cell at a time — the reference sampler, x̃ by a per-cell loop,
// then Hadamard row + axpy per cell — must leave factors, Grams and the RNG
// state of SNS-RND and SNS+RND bitwise unchanged, at every kernel tier the
// host runs, in float64 and mixed precision.

class PerCellRndReference : public RowUpdaterBase {
 public:
  // clip_bound = 0 solves like SNS-RND; > 0 runs SNS+RND's clipped
  // coordinate descent.
  PerCellRndReference(int64_t theta, double clip_bound, uint64_t seed)
      : RowUpdaterBase(theta + 4),
        theta_(theta),
        clip_bound_(clip_bound),
        rng_(seed) {}

  std::string_view name() const override { return "per-cell reference"; }
  Rng* MutableRng() override { return &rng_; }

 protected:
  bool NeedsPrevGrams() const override { return true; }

  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override {
    Matrix& factor = state.model.factor(mode);
    const RankKernelTable& kr = *ws.kernels;
    const int64_t padded = ws.padded_rank;
    kr.copy(factor.Row(row), ws.old_row.data(), padded);
    if (window.Degree(mode, row) <= theta_) {
      MttkrpRowDispatch(window, state, mode, row, ws.rhs.data(),
                        ws.had.data(), ws);
    } else {
      HadamardOfPrevGramsExcept(state, mode, ws);
      RowTimesMatrixPadded(ws.old_row.data(), ws.h_prev, ws.rhs.data(), kr);
      for (const SampledCell& cell :
           ReferenceSampleSliceCells(window, mode, row, theta_, delta, rng_)) {
        double prev = 0.0;
        for (int64_t r = 0; r < state.rank(); ++r) {
          double prod = 1.0;
          for (int m = 0; m < state.num_modes(); ++m) {
            prod *= PrevRow(m, cell.index[m], state)[r];
          }
          prev += prod;
        }
        HadamardRowDispatch(state, cell.index, mode, ws.had.data(), ws);
        kr.axpy(cell.value - prev, ws.had.data(), ws.rhs.data(), padded);
      }
      for (const DeltaCell& cell : delta.cells) {
        if (cell.index[mode] != row) continue;
        HadamardRowDispatch(state, cell.index, mode, ws.had.data(), ws);
        kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
      }
    }
    if (clip_bound_ > 0.0) {
      CoordinateDescentRow(factor.Row(row), state.rank(), ws.h, ws.rhs.data(),
                           -clip_bound_, clip_bound_, kr);
    } else {
      ws.solver.Factorize(ws.h);
      ws.solver.Solve(ws.rhs.data(), ws.solution.data());
      kr.copy(ws.solution.data(), factor.Row(row), padded);
    }
    CommitRow(mode, row, ws.old_row.data(), state);
  }

 private:
  int64_t theta_;
  double clip_bound_;
  Rng rng_;
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i),
                    static_cast<size_t>(a.cols()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Arrivals (w = 0) and slides (w ≥ 1) of random tuples over a sparse
// window whose slices outgrow θ = 3, fed to SNS-RND or SNS+RND and to the
// per-cell reference; compares every event.
void ExpectSampledKernelMatchesPerCellLoop(double clip_bound,
                                           std::vector<int64_t> dims,
                                           int64_t rank, KernelTier tier,
                                           FactorPrecision precision,
                                           uint64_t seed) {
  constexpr int64_t kTheta = 3;
  Rng rng(seed);
  const int modes = static_cast<int>(dims.size());
  const int w_size = static_cast<int>(dims.back());
  const KruskalModel model = KruskalModel::Random(dims, rank, rng);
  CpdState real(model, tier);
  CpdState ref(model, tier);
  real.SetFactorPrecision(precision);
  ref.SetFactorPrecision(precision);
  std::unique_ptr<EventUpdater> updater;
  if (clip_bound > 0.0) {
    updater = std::make_unique<SnsRndPlusUpdater>(kTheta, clip_bound, seed);
  } else {
    updater = std::make_unique<SnsRndUpdater>(kTheta, seed);
  }
  PerCellRndReference reference(kTheta, clip_bound, seed);
  updater->set_kernel_tier(tier);
  reference.set_kernel_tier(tier);

  SparseTensor window(dims);
  auto random_tuple = [&] {
    ModeIndex index;
    for (int m = 0; m + 1 < modes; ++m) {
      index.PushBack(static_cast<int32_t>(rng.UniformInt(0, dims[m] - 1)));
    }
    return index;
  };
  // Pre-fill so that most slices are heavier than θ.
  for (int i = 0; i < 40; ++i) {
    window.Add(random_tuple().WithAppended(static_cast<int32_t>(
                   rng.UniformInt(0, w_size - 1))),
               rng.UniformDouble(0.5, 2.0));
  }
  for (int step = 0; step < 60; ++step) {
    const ModeIndex tuple = random_tuple();
    const double v = rng.UniformDouble(0.5, 2.0);
    const int w = static_cast<int>(rng.UniformInt(0, w_size - 1));
    WindowDelta delta;
    delta.kind = w == 0 ? EventKind::kArrival : EventKind::kSlide;
    delta.w = w;
    delta.tuple = Tuple{{}, v, 0};
    for (int m = 0; m + 1 < modes; ++m) delta.tuple.index.PushBack(tuple[m]);
    if (w > 0) {
      const ModeIndex from = tuple.WithAppended(w_size - w);
      window.Add(from, -v);
      delta.cells.push_back({from, -v});
    }
    const ModeIndex to = tuple.WithAppended(w_size - w - 1);
    window.Add(to, v);
    delta.cells.push_back({to, v});

    updater->OnEvent(window, delta, real);
    reference.OnEvent(window, delta, ref);
    for (int m = 0; m < modes; ++m) {
      ASSERT_TRUE(BitwiseEqual(real.model.factor(m), ref.model.factor(m)))
          << "step " << step << " mode " << m;
      ASSERT_TRUE(BitwiseEqual(real.grams[static_cast<size_t>(m)],
                               ref.grams[static_cast<size_t>(m)]))
          << "step " << step << " mode " << m;
    }
    ASSERT_TRUE(updater->MutableRng()->SaveState() ==
                reference.MutableRng()->SaveState())
        << "step " << step;
  }
}

TEST(SampledKernelDifferentialTest, BitwiseEqualToPerCellLoopOnEveryTier) {
  int tiers_run = 0;
  for (const KernelTier tier :
       {KernelTier::kGeneric, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!KernelTierCompiledIn(tier) || !KernelTierSupported(tier)) continue;
    ++tiers_run;
    for (const FactorPrecision precision :
         {FactorPrecision::kFloat64, FactorPrecision::kFloat32Accum64}) {
      for (const double clip_bound : {0.0, 50.0}) {
        SCOPED_TRACE(::testing::Message()
                     << KernelTierName(tier) << " "
                     << FactorPrecisionName(precision)
                     << (clip_bound > 0.0 ? " SNS+RND" : " SNS-RND"));
        // 3-mode (fused fma3 path) at padded ranks 8 and 20, and 4-mode
        // (Hadamard row + axpy path).
        ExpectSampledKernelMatchesPerCellLoop(clip_bound, {7, 6, 4}, 5, tier,
                                              precision, 0x5a1);
        ExpectSampledKernelMatchesPerCellLoop(clip_bound, {7, 6, 4}, 20, tier,
                                              precision, 0x5a2);
        ExpectSampledKernelMatchesPerCellLoop(clip_bound, {5, 4, 3, 3}, 6,
                                              tier, precision, 0x5a3);
      }
    }
  }
  EXPECT_GE(tiers_run, 1);
}

}  // namespace
}  // namespace sns
