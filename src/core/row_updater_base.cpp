#include "core/row_updater_base.h"

#include <algorithm>

#include "tensor/mttkrp.h"

namespace sns {

void RowUpdaterBase::OnEvent(const SparseTensor& window,
                             const WindowDelta& delta, CpdState& state) {
  if (delta.cells.empty()) return;  // Zero-valued tuple.
  BeginEvent(delta, state);

  const int time_mode = state.num_modes() - 1;
  const int w_size = static_cast<int>(state.model.factor(time_mode).rows());
  const int w = delta.w;

  auto update_row = [&](int mode, int64_t row) {
    gram_cache_.ProductExcept(mode, ws_.h);
    UpdateRow(mode, row, window, delta, state, ws_);
    gram_cache_.NotifyModeChanged(mode);
  };

  // Time-mode rows first (Alg. 3 lines 3-6; 0-based indices). For a slide
  // both the slice the value left (W−w) and the one it entered (W−w−1) are
  // refreshed; arrivals touch only W−1, expiries only 0.
  if (w > 0) update_row(time_mode, w_size - w);
  if (w < w_size) update_row(time_mode, w_size - w - 1);

  // Then the i_m-th row of every non-time factor (Alg. 3 lines 7-8).
  for (int m = 0; m < time_mode; ++m) {
    update_row(m, delta.tuple.index[m]);
  }
}

void RowUpdaterBase::BeginEvent(const WindowDelta& delta,
                                const CpdState& state) {
  time_mode_ = state.num_modes() - 1;
  snap_rank_ = state.rank();
  snap_stride_ = PaddedRank(snap_rank_);
  ws_.Prepare(state.num_modes(), snap_rank_, sample_capacity_, tier_);
  gram_cache_.set_kernels(ws_.kernels);
  gram_cache_.BeginEvent(state.grams);
  // No-ops (and allocation-free) once sized for this shape.
  snapshot_values_.Resize((kMaxTensorModes + 2) * snap_stride_);
  if (NeedsPrevGrams()) {
    delta_values_.Resize(2 * (kMaxTensorModes + 2) * snap_stride_);
  }
  num_gram_deltas_ = 0;

  auto copy_row = [&](int mode, int64_t row, int segment) {
    // Full padded stride: the factor row's zero padding lanes come along,
    // keeping each snapshot segment a valid padded row.
    const double* data = state.model.factor(mode).Row(row);
    ws_.kernels->copy(data, snapshot_values_.data() + segment * snap_stride_,
                      snap_stride_);
  };
  // Time-mode rows, deduplicated: a delta may reference the same time slice
  // more than once, and PrevRow must see exactly one snapshot per row. The
  // inline storage assumes at most TWO distinct time rows per delta (the
  // two slices a slide touches) — a delta spanning more would silently
  // lose its third snapshot, so fail loudly instead, in every build type.
  num_time_snaps_ = 0;
  for (const DeltaCell& cell : delta.cells) {
    const int64_t row = cell.index[time_mode_];
    bool seen = false;
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) seen = true;
    }
    if (seen) continue;
    SNS_CHECK(num_time_snaps_ < 2);
    time_snap_row_[static_cast<size_t>(num_time_snaps_)] = row;
    copy_row(time_mode_, row, kMaxTensorModes + num_time_snaps_);
    ++num_time_snaps_;
  }
  // One snapshot per non-time mode, indexed by mode.
  for (int m = 0; m < time_mode_; ++m) {
    mode_snap_row_[static_cast<size_t>(m)] = delta.tuple.index[m];
    copy_row(m, delta.tuple.index[m], m);
  }
}

bool RowUpdaterBase::GcpUpdateRow(int mode, int64_t row,
                                  const SparseTensor& window,
                                  const WindowDelta& delta, CpdState& state,
                                  double clip_min, double clip_max,
                                  int64_t sample_threshold, Rng* rng) {
  if (loss_ == nullptr || loss_->kind() == LossKind::kGaussian) return false;
  const bool sampled =
      sample_threshold > 0 && window.Degree(mode, row) > sample_threshold;
  if (sampled) {
    // θ-sampled restriction: uniformly drawn slice cells (zero cells
    // included — their ℓ(0, θ) terms pull spurious model mass down; delta
    // cells excluded by the sampler) plus the event's delta cells at their
    // live window values.
    SampleSliceCellsInto(window, mode, row, sample_threshold, delta, *rng,
                         gcp_ws_.cells, ws_.sampler);
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] != row) continue;
      gcp_ws_.cells.push_back({cell.index, window.Get(cell.index)});
    }
    GcpNewtonRowUpdate(state, mode, row, *loss_, gcp_ws_.cells, clip_min,
                       clip_max, gcp_ws_);
  } else {
    GcpNewtonRowUpdateOnSlice(window, state, mode, row, *loss_, clip_min,
                              clip_max, gcp_ws_);
  }
  // Commit unconditionally: gcp_ws_.old_row holds the pre-update row either
  // way (GcpNewtonRowUpdate snapshots before deciding), and the Gram /
  // prev-Gram bookkeeping degenerates gracefully when the row is unchanged.
  CommitRow(mode, row, gcp_ws_.old_row.data(), state);
  return true;
}

const double* RowUpdaterBase::PrevRow(int mode, int64_t row,
                                      const CpdState& state) const {
  if (mode == time_mode_) {
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) {
        return snapshot_values_.data() + (kMaxTensorModes + t) * snap_stride_;
      }
    }
  } else if (mode_snap_row_[static_cast<size_t>(mode)] == row) {
    return snapshot_values_.data() + mode * snap_stride_;
  }
  return state.model.factor(mode).Row(row);
}

void RowUpdaterBase::CommitRow(int mode, int64_t row, const double* old_row,
                               CpdState& state) {
  // Mixed precision: quantize the just-written row through float32 (and
  // sync its mirror) BEFORE the Gram update, so Q tracks the quantized
  // factors exactly. No-op in float64 mode.
  state.SyncRowToF32(mode, row);
  const double* new_row = state.model.factor(mode).Row(row);
  ApplyGramRowUpdate(state.grams[static_cast<size_t>(mode)], old_row, new_row,
                     *ws_.kernels);
  if (NeedsPrevGrams()) {
    // Record the rank-1 correction U(mode) = Q(mode) + (p−a)'a. old_row is
    // also the event-start (prev) row p: rows update once per event. Both
    // segments span the full padded stride (padding: 0 − 0 = 0).
    SNS_CHECK(num_gram_deltas_ < static_cast<int>(delta_mode_.size()));
    double* diff = delta_values_.data() + 2 * num_gram_deltas_ * snap_stride_;
    double* saved_new = diff + snap_stride_;
    for (int64_t r = 0; r < snap_stride_; ++r) {
      diff[r] = old_row[r] - new_row[r];
      saved_new[r] = new_row[r];
    }
    delta_mode_[static_cast<size_t>(num_gram_deltas_)] = mode;
    ++num_gram_deltas_;
  }
}

void RowUpdaterBase::HadamardOfPrevGramsExcept(const CpdState& state,
                                               int skip_mode,
                                               UpdateWorkspace& ws) const {
  ws.h_prev.Fill(1.0);
  for (int n = 0; n < state.num_modes(); ++n) {
    if (n == skip_mode) continue;
    const Matrix& gram = state.grams[static_cast<size_t>(n)];
    bool has_delta = false;
    for (int k = 0; k < num_gram_deltas_; ++k) {
      if (delta_mode_[static_cast<size_t>(k)] == n) has_delta = true;
    }
    if (!has_delta) {
      // No row of mode n committed yet this event: U(n) = Q(n).
      HadamardAccumulate(ws.h_prev, gram, *ws.kernels);
      continue;
    }
    ws.u_scratch.CopyFrom(gram);
    for (int k = 0; k < num_gram_deltas_; ++k) {
      if (delta_mode_[static_cast<size_t>(k)] != n) continue;
      const double* diff = delta_values_.data() + 2 * k * snap_stride_;
      AddOuterProduct(ws.u_scratch, diff, diff + snap_stride_, *ws.kernels);
    }
    HadamardAccumulate(ws.h_prev, ws.u_scratch, *ws.kernels);
  }
}

namespace {

// Cells whose x̃ one PrevModelBlock call evaluates together.
constexpr size_t kPrevBlock = 4;

// out[j] = Σ_r Π_m rows[j][m][r] for kPrevBlock cells. Each cell keeps its
// own accumulator, and its sum runs r = 0…R−1 in order over
// prod = ((1·b1)·b2)·… exactly as a one-cell loop would; evaluating
// independent cells side by side only lets their add chains overlap.
// kModes = 3 drops the exact leading 1·b1; 0 is the runtime-order form.
template <int kModes>
void PrevModelBlock(const double* const (&rows)[kPrevBlock][kMaxTensorModes],
                    int modes, int64_t rank, double (&out)[kPrevBlock]) {
  double sum[kPrevBlock] = {};
  for (int64_t r = 0; r < rank; ++r) {
    for (size_t j = 0; j < kPrevBlock; ++j) {
      const double* const* cell = rows[j];
      double prod;
      if constexpr (kModes == 3) {
        prod = cell[0][r] * cell[1][r] * cell[2][r];
      } else {
        prod = 1.0;
        for (int m = 0; m < modes; ++m) prod *= cell[m][r];
      }
      sum[j] += prod;
    }
  }
  for (size_t j = 0; j < kPrevBlock; ++j) out[j] = sum[j];
}

}  // namespace

void RowUpdaterBase::SampledRowRhs(int mode, int64_t row,
                                   const SparseTensor& window,
                                   const WindowDelta& delta,
                                   const CpdState& state, int64_t sample_count,
                                   Rng& rng, UpdateWorkspace& ws) const {
  // First term: B(m)(row,:) H_prev with H_prev = ∗_{n≠m} U(n), each U(n)
  // reconstructed from Q(n) and this event's committed-row deltas.
  HadamardOfPrevGramsExcept(state, mode, ws);
  RowTimesMatrixPadded(ws.old_row.data(), ws.h_prev, ws.rhs.data(),
                       *ws.kernels);

  // Residual corrections at θ cells drawn uniformly from the slice grid
  // (zero cells included — they pull spurious model mass down; delta cells
  // excluded per footnote 2).
  SampleSliceCellsInto(window, mode, row, sample_count, delta, rng, ws.samples,
                       ws.sampler);
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  // Every sampled cell lies on the slice, so they share this mode's row.
  const double* slice_row = PrevRow(mode, row, state);
  const size_t count = ws.samples.size();
  for (size_t begin = 0; begin < count; begin += kPrevBlock) {
    const size_t size = std::min(kPrevBlock, count - begin);
    // A short last block repeats its last cell; the extra sums are unused.
    const double* rows[kPrevBlock][kMaxTensorModes];
    for (size_t j = 0; j < kPrevBlock; ++j) {
      const ModeIndex& index = ws.samples[begin + std::min(j, size - 1)].index;
      for (int m = 0; m < modes; ++m) {
        rows[j][m] = m == mode ? slice_row : PrevRow(m, index[m], state);
      }
    }
    double prev[kPrevBlock];
    if (modes == 3) {
      PrevModelBlock<3>(rows, modes, rank, prev);
    } else {
      PrevModelBlock<0>(rows, modes, rank, prev);
    }
    for (size_t j = 0; j < size; ++j) {
      const SampledCell& cell = ws.samples[begin + j];
      AccumulateCellRow(state, cell.index, mode, cell.value - prev[j], ws);
    }
  }

  // ΔX term.
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index[mode] != row) continue;
    AccumulateCellRow(state, cell.index, mode, cell.delta, ws);
  }
}

void RowUpdaterBase::AccumulateCellRow(const CpdState& state,
                                       const ModeIndex& index, int skip_mode,
                                       double weight,
                                       UpdateWorkspace& ws) const {
  const RankKernelTable& kr = *ws.kernels;
  if (state.num_modes() == 3) {
    // The Hadamard row is (1·a)·b = a·b exactly, and fma3's weight·(a·b)
    // ends in the same multiply-add as axpy(weight, had) on every tier.
    const int a = skip_mode == 0 ? 1 : 0;
    const int b = skip_mode == 2 ? 1 : 2;
    if (state.mixed()) {
      kr.fma3_f32(weight, state.factors32[static_cast<size_t>(a)].Row(index[a]),
                  state.factors32[static_cast<size_t>(b)].Row(index[b]),
                  ws.rhs.data(), ws.padded_rank);
    } else {
      kr.fma3(weight, state.model.factor(a).Row(index[a]),
              state.model.factor(b).Row(index[b]), ws.rhs.data(),
              ws.padded_rank);
    }
    return;
  }
  HadamardRowDispatch(state, index, skip_mode, ws.had.data(), ws);
  kr.axpy(weight, ws.had.data(), ws.rhs.data(), ws.padded_rank);
}

void RowUpdaterBase::HadamardRowDispatch(const CpdState& state,
                                         const ModeIndex& index, int skip_mode,
                                         double* out,
                                         UpdateWorkspace& ws) const {
  if (state.mixed()) {
    HadamardRowProduct32(state.factors32, index, skip_mode, out, *ws.kernels);
  } else {
    HadamardRowProduct(state.model.factors(), index, skip_mode, out,
                       *ws.kernels);
  }
}

void RowUpdaterBase::MttkrpRowDispatch(const SparseTensor& window,
                                       const CpdState& state, int mode,
                                       int64_t row, double* out, double* had,
                                       UpdateWorkspace& ws) const {
  if (state.mixed()) {
    MttkrpRow32(window, state.factors32, mode, row, out, had, *ws.kernels);
  } else {
    MttkrpRow(window, state.model.factors(), mode, row, out, had, *ws.kernels);
  }
}

}  // namespace sns
