#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/serial.h"
#include "losses/loss_function.h"

namespace svcbench {
namespace {

std::string SerializeHandle(const sns::StreamHandle& handle) {
  sns::serial::StringSink sink;
  sns::serial::Writer writer(sink);
  SNS_CHECK(handle.SerializeState(writer).ok());
  return sink.TakeData();
}

std::string SerializeEngine(const sns::ContinuousCpd& engine) {
  sns::serial::StringSink sink;
  sns::serial::Writer writer(sink);
  engine.SerializeTo(writer);
  SNS_CHECK(writer.status().ok());
  return sink.TakeData();
}

bool SameMatrix(const sns::Matrix& a, const sns::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i), sizeof(double) * a.cols()) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<sns::ContinuousCpd> EngineSnapshot(
    sns::SnsService& service, const std::string& name,
    const std::vector<int64_t>& mode_dims,
    const sns::ContinuousCpdOptions& options) {
  auto payload = service.Query(name, [](const sns::StreamHandle& handle) {
    return SerializeHandle(handle);
  });
  SNS_CHECK(payload.ok());

  auto fresh_handle = sns::StreamHandle::Create(name, mode_dims, options);
  auto fresh_engine = sns::ContinuousCpd::Create(mode_dims, options);
  SNS_CHECK(fresh_handle.ok() && fresh_engine.ok());
  const size_t header = SerializeHandle(fresh_handle.value()).size() -
                        SerializeEngine(*fresh_engine.value()).size();
  SNS_CHECK(header < payload.value().size());

  auto engine = sns::ContinuousCpd::Create(mode_dims, options);
  SNS_CHECK(engine.ok());
  sns::serial::StringSource source(
      std::string_view(payload.value()).substr(header));
  sns::serial::Reader reader(source);
  const sns::Status restored = engine.value()->RestoreFrom(reader);
  SNS_CHECK(restored.ok());
  SNS_CHECK(source.remaining() == 0);
  return std::move(engine).value();
}

void AddStageMetrics(const StageLedger& ledger, double base_us_per_tuple,
                     Report& report) {
  const double per_tuple = 1.0 / static_cast<double>(ledger.tuples);
  report.Add("stream.window_us_per_tuple", ledger.window_us * per_tuple, "us",
             ledger.tuples);
  report.Add("stream.events_per_tuple",
             static_cast<double>(ledger.events) * per_tuple, "count",
             ledger.tuples);
  report.Add("core.update_us_p50", ledger.update_us.Median(), "us",
             ledger.update_us.size());
  report.Add("core.update_us_p99", ledger.update_us.Quantile(0.99), "us",
             ledger.update_us.size());
  report.Add("core.update_share",
             ledger.update_us.Sum() * per_tuple / base_us_per_tuple, "ratio");
  report.Add("core.fitness_track_us_per_tuple",
             ledger.fitness_track_us * per_tuple, "us", ledger.tuples);
  report.Add("core.sampled_row_frac",
             ledger.row_updates == 0
                 ? 0.0
                 : static_cast<double>(ledger.sampled_rows) /
                       static_cast<double>(ledger.row_updates),
             "ratio", ledger.row_updates);
}

bool SameCpdState(const sns::CpdState& a, const sns::CpdState& b) {
  if (a.num_modes() != b.num_modes() || a.grams.size() != b.grams.size()) {
    return false;
  }
  for (int m = 0; m < a.num_modes(); ++m) {
    if (!SameMatrix(a.model.factor(m), b.model.factor(m))) return false;
  }
  for (size_t m = 0; m < a.grams.size(); ++m) {
    if (!SameMatrix(a.grams[m], b.grams[m])) return false;
  }
  return a.model.lambda() == b.model.lambda();
}

StageReplay::StageReplay(const sns::ContinuousCpd& engine)
    : options_(engine.options()),
      window_(engine.window_model()),
      state_(engine.state()),
      updater_(options_.sample_threshold, options_.clip_bound,
               options_.seed + 1, options_.nonnegative_factors) {
  // The engine's updater is seeded with seed + 1 and draws nothing before
  // the first live event, so a fresh one matches it right after Initialize.
  SNS_CHECK(options_.variant == sns::SnsVariant::kRndPlus);
  SNS_CHECK(options_.loss == sns::LossKind::kGaussian);
  updater_.set_kernel_tier(
      sns::ResolveKernelTier(options_.force_generic_kernels));
  tracker_.Reset(window_.tensor(), state_, options_.fitness_resync_interval);
  if (options_.robust.enabled) {
    outliers_.Configure(options_.robust.threshold, options_.robust.decay,
                        options_.robust.capacity);
  }
}

double StageReplay::CaptureOutlier(sns::Tuple& tuple) {
  // ContinuousCpd::MaybeDecayOutliers + MaybeCaptureOutlier.
  if (!outlier_decay_armed_) {
    outlier_decay_armed_ = true;
    next_outlier_decay_ = tuple.time + options_.period;
  } else {
    while (tuple.time >= next_outlier_decay_) {
      outliers_.Decay();
      next_outlier_decay_ += options_.period;
    }
  }
  const sns::ModeIndex cell =
      tuple.index.WithAppended(options_.window_size - 1);
  const double mu = sns::GetLossFunction(options_.loss)
                        .Link(state_.model.Evaluate(cell));
  const double observed = window_.tensor().Get(cell) + tuple.value;
  const double limit = std::fabs(observed) + options_.robust.threshold;
  const double captured = outliers_.Capture(
      tuple.index, std::clamp(observed - mu, -limit, limit));
  tuple.value -= captured;
  return captured;
}

void StageReplay::HandleEvent(const sns::WindowDelta& delta,
                              StageLedger* ledger) {
  if (ledger == nullptr) {
    tracker_.OnWindowDelta(delta, window_.tensor(), state_);
    updater_.OnEvent(window_.tensor(), delta, state_);
    tracker_.OnFactorsUpdated(state_);
    return;
  }
  ++ledger->events;
  if (!delta.cells.empty()) {
    // The rows RowUpdaterBase::OnEvent refreshes: the time slices the
    // delta touches, then the tuple's row of every non-time mode. Slice
    // degrees do not change during the update.
    const sns::SparseTensor& x = window_.tensor();
    const int time_mode = x.num_modes() - 1;
    const int w_size = options_.window_size;
    auto count_row = [&](int mode, int64_t row) {
      ++ledger->row_updates;
      if (x.Degree(mode, row) > options_.sample_threshold) {
        ++ledger->sampled_rows;
      }
    };
    if (delta.w > 0) count_row(time_mode, w_size - delta.w);
    if (delta.w < w_size) count_row(time_mode, w_size - delta.w - 1);
    for (int m = 0; m < time_mode; ++m) count_row(m, delta.tuple.index[m]);
  }
  const Clock::time_point t0 = Clock::now();
  tracker_.OnWindowDelta(delta, window_.tensor(), state_);
  const Clock::time_point t1 = Clock::now();
  updater_.OnEvent(window_.tensor(), delta, state_);
  const Clock::time_point t2 = Clock::now();
  tracker_.OnFactorsUpdated(state_);
  const Clock::time_point t3 = Clock::now();
  ledger->fitness_track_us += MicrosBetween(t0, t1) + MicrosBetween(t2, t3);
  ledger->update_us.Add(MicrosBetween(t1, t2));
}

void StageReplay::Run(std::span<const sns::Tuple> tuples,
                      StageLedger* ledger) {
  const Clock::time_point begin = Clock::now();
  for (const sns::Tuple& input : tuples) {
    // Scheduled slides/expiries due at or before the arrival, then the
    // arrival itself (ContinuousCpd::ProcessBatch's order).
    while (window_.NextScheduledTime() <= input.time) {
      const Clock::time_point t0 = ledger ? Clock::now() : Clock::time_point();
      const sns::WindowDelta delta = window_.PopScheduled();
      if (ledger) ledger->window_us += MicrosBetween(t0, Clock::now());
      HandleEvent(delta, ledger);
    }
    sns::Tuple tuple = input;
    if (options_.robust.enabled) {
      const Clock::time_point t0 = ledger ? Clock::now() : Clock::time_point();
      CaptureOutlier(tuple);
      if (ledger) ledger->capture_us += MicrosBetween(t0, Clock::now());
    }
    const Clock::time_point t0 = ledger ? Clock::now() : Clock::time_point();
    const sns::WindowDelta delta = window_.Ingest(tuple);
    if (ledger) ledger->window_us += MicrosBetween(t0, Clock::now());
    HandleEvent(delta, ledger);
  }
  if (ledger) {
    ledger->tuples += static_cast<int64_t>(tuples.size());
    ledger->wall_us += MicrosBetween(begin, Clock::now());
  }
}

}  // namespace svcbench
