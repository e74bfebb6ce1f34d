// Stage-timed replay: the per-layer ledger of one SNS+RND stream.
//
// The service runs a stream's window, updater and fitness tracker inside one
// engine call, so the benchmark cannot time them from outside the engine.
// The replay rebuilds those three components from the engine's own state —
// restored bitwise from the live stream's serialized state right after
// Initialize — and drives them with the same tuples in ContinuousCpd's event
// order, timing each call into a layer. At the end the caller compares the
// replay's factors, λ and Grams bitwise with the engine's final state; any
// drift between this replica of the event loop and the engine fails the
// run, so the ledger cannot silently describe code that no longer runs.
#ifndef SVCBENCH_REPLAY_H_
#define SVCBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "bench_util.h"
#include "core/continuous_cpd.h"
#include "core/sns_rnd_plus.h"
#include "losses/outlier_store.h"

namespace svcbench {

/// Stage times of the timed part of a replay.
struct StageLedger {
  int64_t tuples = 0;
  int64_t events = 0;
  double window_us = 0.0;         // AdvanceTo pops + Ingest.
  double fitness_track_us = 0.0;  // OnWindowDelta + OnFactorsUpdated.
  double capture_us = 0.0;        // Robust-mode outlier capture.
  Samples update_us;              // One sample per EventUpdater::OnEvent.
  int64_t row_updates = 0;
  int64_t sampled_rows = 0;       // Row updates whose slice degree > θ.
  double wall_us = 0.0;           // Whole timed replay, timers included.

  double StageSumUs() const {
    return window_us + fitness_track_us + capture_us + update_us.Sum();
  }
};

/// Adds the ledger's stream and core metrics to `report`. core.update_share
/// is the OnEvent time per tuple over `base_us_per_tuple`.
void AddStageMetrics(const StageLedger& ledger, double base_us_per_tuple,
                     Report& report);

/// Rebuilds the complete engine state of a live service stream: the
/// handle's serialized state is its schema/options header followed by the
/// engine payload, so the header is stripped (its length measured on a
/// fresh handle with identical name, schema and options) and the payload
/// restored into a fresh engine.
std::unique_ptr<sns::ContinuousCpd> EngineSnapshot(
    sns::SnsService& service, const std::string& name,
    const std::vector<int64_t>& mode_dims,
    const sns::ContinuousCpdOptions& options);

/// True when factors, λ and Gram matrices are bitwise equal.
bool SameCpdState(const sns::CpdState& a, const sns::CpdState& b);

/// The replica of ContinuousCpd's live event loop for SNS+RND with the
/// Gaussian loss, with or without robust mode.
class StageReplay {
 public:
  /// Starts from `engine`, which must be freshly initialized (no live event
  /// processed yet): copies its window and CpdState and builds a fresh
  /// updater, fitness tracker and outlier store from its options.
  explicit StageReplay(const sns::ContinuousCpd& engine);

  /// Processes `tuples` chronologically. With a ledger, each call into a
  /// layer is timed into it; without one, nothing is timed.
  void Run(std::span<const sns::Tuple> tuples, StageLedger* ledger);

  const sns::CpdState& state() const { return state_; }

 private:
  void HandleEvent(const sns::WindowDelta& delta, StageLedger* ledger);
  double CaptureOutlier(sns::Tuple& tuple);

  sns::ContinuousCpdOptions options_;
  sns::ContinuousTensorWindow window_;
  sns::CpdState state_;
  sns::SnsRndPlusUpdater updater_;
  sns::RunningFitnessTracker tracker_;
  sns::OutlierStore outliers_;
  int64_t next_outlier_decay_ = 0;
  bool outlier_decay_armed_ = false;
};

}  // namespace svcbench

#endif  // SVCBENCH_REPLAY_H_
