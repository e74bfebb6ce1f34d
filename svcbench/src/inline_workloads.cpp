// hot_stream and anomaly_robust: one stream on an inline service (shards =
// 0, metrics off), fed one tuple per Ingest call in a closed loop.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/serial.h"
#include "replay.h"
#include "workloads.h"

namespace svcbench {
namespace {

// --- Workload parameters -------------------------------------------------

// hot_stream: the NY-Taxi preset at 4x its default event count (265x265,
// R=20, W=10, T=3600, θ=20, η=1000, SNS+RND, Gaussian).
constexpr double kTaxiScale = 4.0;
// Segment tuples per --seconds; the segment is timed kPasses times.
constexpr int64_t kHotSegmentTuplesPerSecond = 600;
constexpr double kHotFitnessFloor = 0.2;

// anomaly_robust: the Chicago-Crime preset at 4x (77x32, R=20, W=10,
// T=720), 20 spikes of magnitude 12, robust mode τ=6, decay 0.5, capacity
// 4096. The whole live stream is the timed segment, so every spike is
// scored.
constexpr double kCrimeScale = 4.0;
constexpr int64_t kAnomalySegmentTuplesPerSecond = 600;
constexpr int kSpikes = 20;
constexpr double kSpikeMagnitude = 12.0;
constexpr double kAnomalyFitnessFloor = 0.25;
constexpr double kPrecisionFloor = 0.8;

// Set-ups timed before the first pass; untraced runs time one more before
// each pass, so the setup_s median spans the whole run.
constexpr int kSetupReps = 5;
// Untraced runs time the segment this many times (best per position kept).
constexpr int kPasses = 5;
// Tuples per lockstep step of the traced run's service/replay pair, and per
// timed chunk of the untraced passes.
constexpr size_t kLockstepChunk = 500;
// Untraced passes move the thread to the next CPU every kChunksPerCpu
// chunks, pass p starting p CPUs further on, so that over the passes each
// chunk is timed on several cores at several times.
constexpr size_t kChunksPerCpu = 4;
// An operator polls the live stream after every kPollEvery-th tuple: one
// poll is a TopK(mode 0, k = 10) and a RunningFitness, which pays the
// tracker's lazy exact resync (more than fitness_resync_interval events pass
// between polls). Poll time is excluded from tuples_per_s.
constexpr size_t kPollEvery = 16;
// Acceptance bound on the replay ledger: stage times must add up to the
// untraced time per tuple within this share.
constexpr double kMaxUnattributedFrac = 0.10;

// --- Detector sink ---------------------------------------------------------

// Scores every arrival by the outlier mass the robust mode diverted from it
// (StreamEvent::OutlierCapture), the §VI-G application's detector. With
// `timed`, it also times its own callback (the traced run's api layer).
class DetectorSink : public sns::EventSink {
 public:
  explicit DetectorSink(bool timed) : timed_(timed) {}

  void OnStreamEvent(const sns::StreamEvent& event) override {
    const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point();
    ++callbacks_;
    if (event.kind() == sns::EventKind::kArrival && !event.empty()) {
      detections_.push_back({event.time(), event.tuple().index,
                             std::fabs(event.OutlierCapture()), false});
    }
    if (timed_) callback_us_ += MicrosBetween(start, Clock::now());
  }

  std::vector<sns::Detection>& detections() { return detections_; }
  int64_t callbacks() const { return callbacks_; }
  double callback_us() const { return callback_us_; }

 private:
  bool timed_;
  int64_t callbacks_ = 0;
  double callback_us_ = 0.0;
  std::vector<sns::Detection> detections_;
};

// --- The generic inline run -------------------------------------------------

struct InlineWorkload {
  std::string name;
  sns::DataStream stream{std::vector<int64_t>{1}};
  sns::ContinuousCpdOptions options;
  size_t warm_end = 0;     // [0, warm_end): Warmup.
  size_t timed_begin = 0;  // [warm_end, timed_begin): untimed pre-roll.
  size_t timed_end = 0;    // [timed_begin, timed_end): the timed segment.
  double fitness_floor = 0.0;
  bool detector = false;   // anomaly_robust only.
  std::vector<sns::InjectedAnomaly> truth;

  std::span<const sns::Tuple> tuples(size_t begin, size_t end) const {
    return Slice(stream, begin, end - begin);
  }
};

// A service holding the workload's stream, with its detector attached. The
// sink is declared first so that it outlives the service it is attached to.
struct Live {
  std::unique_ptr<DetectorSink> sink;
  std::unique_ptr<sns::SnsService> service;
};

// One timing of the segment. The per-position samples (chunk_s, latency_us)
// are in segment order, so passes over the same segment line up.
struct SegmentRun {
  double wall_s = 0.0;  // Ingest calls only.
  Samples chunk_s;      // Ingest calls only, per kLockstepChunk tuples.
  Samples latency_us;   // Per tuple.
  Samples poll_us;      // Per poll.
  Samples fitness_query_us;  // The RunningFitness part of each poll.
  int64_t queries = 0;
  int64_t failed = 0;
  double fitness = 0.0;
  double precision = 1.0;
  uint64_t applied_sequence = 0;
};

// Untimed ingestion, one tuple per call; returns the failed calls.
int64_t IngestEach(sns::SnsService& service, const std::string& name,
                   std::span<const sns::Tuple> tuples) {
  int64_t failed = 0;
  for (const sns::Tuple& tuple : tuples) {
    if (!service.Ingest(name, tuple).ok()) ++failed;
  }
  return failed;
}

// CreateStream + Warmup + Initialize on a fresh inline service, `reps`
// times; keeps the last service.
Live SetUp(const InlineWorkload& w, int reps, bool sink_timing,
           Samples& setup_s, Samples& init_s) {
  Live live;
  for (int rep = 0; rep < reps; ++rep) {
    live.service.reset();
    live.sink = w.detector ? std::make_unique<DetectorSink>(sink_timing)
                           : nullptr;
    auto service = std::make_unique<sns::SnsService>();
    const Clock::time_point t0 = Clock::now();
    auto handle =
        service->CreateStream(w.name, w.stream.mode_dims(), w.options);
    SNS_CHECK(handle.ok());
    // Inline service: the handle may be touched directly.
    if (live.sink) SNS_CHECK(handle.value()->AddSink(live.sink.get()).ok());
    SNS_CHECK(service->Warmup(w.name, w.tuples(0, w.warm_end)).ok());
    const Clock::time_point t1 = Clock::now();
    SNS_CHECK(service->Initialize(w.name).ok());
    const Clock::time_point t2 = Clock::now();
    setup_s.Add(SecondsBetween(t0, t2));
    init_s.Add(SecondsBetween(t1, t2));
    live.service = std::move(service);
  }
  return live;
}

// A fresh inline service holding the stream restored from `checkpoint`.
Live Restore(const InlineWorkload& w, const std::string& checkpoint,
             bool sink_timing) {
  Live live;
  live.service = std::make_unique<sns::SnsService>();
  sns::serial::StringSource source(checkpoint);
  auto handle = live.service->Restore(source);
  SNS_CHECK(handle.ok());
  if (w.detector) {
    live.sink = std::make_unique<DetectorSink>(sink_timing);
    SNS_CHECK(handle.value()->AddSink(live.sink.get()).ok());
  }
  return live;
}

// One operator poll of the live stream; returns its latency.
double Poll(sns::SnsService& service, const std::string& name,
            SegmentRun& run) {
  const Clock::time_point start = Clock::now();
  const bool top_ok = service.TopK(name, /*mode=*/0, /*k=*/10).ok();
  const Clock::time_point mid = Clock::now();
  const bool fitness_ok = service.RunningFitness(name).ok();
  const Clock::time_point end = Clock::now();
  run.queries += 2;
  if (!top_ok) ++run.failed;
  if (!fitness_ok) ++run.failed;
  run.fitness_query_us.Add(MicrosBetween(mid, end));
  const double us = MicrosBetween(start, end);
  run.poll_us.Add(us);
  return us;
}

// Times the segment on `live`, then checks and scores its outputs. With a
// replay, the replay follows the service in lockstep, chunk by chunk, so
// host noise hits the untraced service timing and the traced replay timing
// alike. With `cpus`, the thread moves between CPUs (untimed) as described
// at kChunksPerCpu, starting `pass` CPUs on.
SegmentRun TimeSegment(const InlineWorkload& w, Live& live,
                       StageReplay* replay, StageLedger* ledger,
                       CpuRotation* cpus = nullptr, size_t pass = 0) {
  SegmentRun run;
  const auto timed = w.tuples(w.timed_begin, w.timed_end);
  run.latency_us.Reserve(timed.size());
  for (size_t done = 0; done < timed.size(); done += kLockstepChunk) {
    const size_t chunk_index = done / kLockstepChunk;
    if (cpus != nullptr && chunk_index % kChunksPerCpu == 0) {
      cpus->Pin(chunk_index / kChunksPerCpu + pass);
    }
    const auto chunk = timed.subspan(
        done, std::min<size_t>(kLockstepChunk, timed.size() - done));
    double query_us = 0.0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < chunk.size(); ++i) {
      const Clock::time_point begin = Clock::now();
      if (!live.service->Ingest(w.name, chunk[i]).ok()) ++run.failed;
      run.latency_us.Add(MicrosBetween(begin, Clock::now()));
      if ((done + i + 1) % kPollEvery == 0) {
        query_us += Poll(*live.service, w.name, run);
      }
    }
    const double chunk_s =
        SecondsBetween(start, Clock::now()) - query_us * 1e-6;
    run.chunk_s.Add(chunk_s);
    run.wall_s += chunk_s;
    if (replay != nullptr) replay->Run(chunk, ledger);
  }
  run.applied_sequence = live.service->AppliedSequence(w.name).value();
  run.fitness = live.service
                    ->Query(w.name, [](const sns::StreamHandle& h) {
                      return h.ExactFitness();
                    })
                    .value();
  if (live.sink) {
    sns::LabelDetections(w.truth, /*time_slack=*/0,
                         &live.sink->detections());
    run.precision = sns::PrecisionAtTopK(live.sink->detections(), kSpikes);
  }
  return run;
}

void CheckSegment(const InlineWorkload& w, const SegmentRun& run,
                  Report& report) {
  const int64_t segment = static_cast<int64_t>(w.timed_end - w.timed_begin);
  report.CountOps(segment + run.queries, run.failed);
  report.Check(run.failed == 0, "ingest or query calls failed");
  // Warmup, Initialize, and one ticket per ingested tuple.
  report.Check(run.applied_sequence ==
                   static_cast<uint64_t>(2 + w.timed_end - w.warm_end),
               "AppliedSequence differs from the tickets issued");
  report.Check(std::isfinite(run.fitness) && run.fitness >= w.fitness_floor,
               "fitness " + std::to_string(run.fitness) + " below floor " +
                   std::to_string(w.fitness_floor));
  if (w.detector) {
    report.Check(run.precision >= kPrecisionFloor,
                 "precision@" + std::to_string(kSpikes) + " " +
                     std::to_string(run.precision) + " below floor");
  }
}

// Untraced: the segment is timed kPasses times, each from the same
// checkpoint taken after the pre-roll. The passes do bitwise the same work,
// so each position (chunk of kLockstepChunk tuples, tuple) keeps its fastest
// of the kPasses timings, and the passes time each chunk on several cores
// (kChunksPerCpu): interference from other tenants of a shared host
// (seconds long, one core at a time, and invisible to the thread's CPU
// clock) slows a position in one pass, rarely in all of them. tuples_per_s
// is the segment over the sum of the best chunk times; the ingest latencies
// are quantiles over the best per-tuple times. Poll times are pooled over
// the passes instead: a poll's resync has a fast and a slow mode, and the
// p99 of the best per-poll times, near the edge between the modes, jumped
// from run to run (spread over six seeds 0.35 on hot_stream and 0.24 on
// anomaly_robust, against 0.14 and 0.06 for the p99 of the pooled polls).
Report RunUntraced(const RunConfig& config, const InlineWorkload& w) {
  Report report;
  Samples setup_s;
  Samples init_s;
  Live live = SetUp(w, kSetupReps, /*sink_timing=*/false, setup_s, init_s);
  report.CountOps(2 + static_cast<int64_t>(w.timed_begin - w.warm_end),
                  IngestEach(*live.service, w.name,
                             w.tuples(w.warm_end, w.timed_begin)));
  sns::serial::StringSink checkpoint;
  SNS_CHECK(live.service->Checkpoint(w.name, checkpoint).ok());
  live = Live();

  const double segment = static_cast<double>(w.timed_end - w.timed_begin);
  Samples pass_throughput;
  SegmentRun best;  // Position by position, the fastest pass.
  Samples query_us;  // Pooled over the passes.
  SegmentRun first;
  CpuRotation cpus;
  for (int pass = 0; pass < kPasses; ++pass) {
    SetUp(w, 1, /*sink_timing=*/false, setup_s, init_s);
    Live restored = Restore(w, checkpoint.data(), /*sink_timing=*/false);
    SegmentRun run = TimeSegment(w, restored, nullptr, nullptr, &cpus,
                                 static_cast<size_t>(pass));
    CheckSegment(w, run, report);
    pass_throughput.Add(segment / run.wall_s);
    query_us.Append(run.poll_us);
    if (pass == 0) {
      first = run;
      best = run;
    } else {
      best.chunk_s.KeepMin(run.chunk_s);
      best.latency_us.KeepMin(run.latency_us);
      // The passes replay identical inputs from an identical state.
      report.Check(run.fitness == first.fitness &&
                       run.precision == first.precision,
                   "passes from one checkpoint disagree");
    }
  }
  report.Note("timed chunks rotated over " +
              std::to_string(cpus.cpus().size()) + " CPUs");
  if (!w.detector) {
    report.Note("precision_at_k: no injected spikes on " + config.workload +
                "; reported as the vacuous 1.0 (k = 0)");
  }
  const int64_t tuples = static_cast<int64_t>(segment);
  report.Add("tuples_per_s", segment / best.chunk_s.Sum(), "1/s", tuples);
  report.Add("latency_p50_us", best.latency_us.Median(), "us", tuples);
  report.Add("latency_p99_us", best.latency_us.Quantile(0.99), "us", tuples);
  report.Detail("query_p50_us", query_us.Median(), "us", query_us.size());
  report.Add("query_p99_us", query_us.Quantile(0.99), "us", query_us.size());
  // The plain median over whole passes, for comparison: host noise moves it
  // far more than the best-of-passes figures above.
  report.Detail("tuples_per_s_pass_median", pass_throughput.Median(), "1/s",
                kPasses);
  report.Add("fitness", first.fitness, "ratio");
  report.Add("precision_at_k", first.precision, "ratio",
             w.detector ? kSpikes : 0);
  report.Add("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

// Traced: one pass from Initialize through the pre-roll and the segment,
// with the stage-timed replay in lockstep, plus (detector only) a pass with
// the sink timing its own callbacks.
Report RunTraced(const InlineWorkload& w) {
  Report report;
  Samples setup_s;
  Samples init_s;
  Live live = SetUp(w, kSetupReps, /*sink_timing=*/false, setup_s, init_s);
  StageReplay replay(*EngineSnapshot(*live.service, w.name,
                                     w.stream.mode_dims(), w.options));
  const auto preroll = w.tuples(w.warm_end, w.timed_begin);
  report.CountOps(2 + static_cast<int64_t>(preroll.size()),
                  IngestEach(*live.service, w.name, preroll));
  replay.Run(preroll, nullptr);
  StageLedger ledger;
  const SegmentRun run = TimeSegment(w, live, &replay, &ledger);
  CheckSegment(w, run, report);
  auto engine_final =
      EngineSnapshot(*live.service, w.name, w.stream.mode_dims(), w.options);
  report.Check(SameCpdState(replay.state(), engine_final->state()),
               "replay factors/Grams are not bitwise equal to the engine's");

  report.Add("core.init_s", init_s.Median(), "s", init_s.size());
  report.Add("core.fitness_query_us_p50", run.fitness_query_us.Median(), "us",
             run.fitness_query_us.size());
  report.Add("core.fitness_query_us_p99", run.fitness_query_us.Quantile(0.99),
             "us", run.fitness_query_us.size());

  const double segment = static_cast<double>(w.timed_end - w.timed_begin);
  double sink_us_per_tuple = 0.0;
  if (w.detector) {
    Samples unused_setup;
    Samples unused_init;
    Live timed_sink =
        SetUp(w, 1, /*sink_timing=*/true, unused_setup, unused_init);
    IngestEach(*timed_sink.service, w.name, preroll);
    const int64_t callbacks_before = timed_sink.sink->callbacks();
    const double us_before = timed_sink.sink->callback_us();
    const SegmentRun sink_run = TimeSegment(w, timed_sink, nullptr, nullptr);
    CheckSegment(w, sink_run, report);
    sink_us_per_tuple = (timed_sink.sink->callback_us() - us_before) / segment;
    report.Detail("api.sink_events_per_tuple",
                  static_cast<double>(timed_sink.sink->callbacks() -
                                      callbacks_before) /
                      segment,
                  "count");
    report.Detail("api.sink_us_per_tuple", sink_us_per_tuple, "us");
    const sns::StreamStats stats = live.service->Stats(w.name).value();
    const double arrivals = static_cast<double>(w.timed_end - w.warm_end);
    report.Detail("losses.capture_frac",
                  static_cast<double>(stats.outlier_captures) / arrivals,
                  "ratio");
    report.Detail("losses.outlier_cells",
                  static_cast<double>(stats.outlier_cells), "count");
    report.Detail("losses.evictions",
                  static_cast<double>(stats.outlier_evictions), "count");
  }

  const double untraced_us = run.wall_s * 1e6 / segment;
  const double per_tuple = 1.0 / static_cast<double>(ledger.tuples);
  const double stage_us = ledger.StageSumUs() * per_tuple + sink_us_per_tuple;
  const double unattributed = 1.0 - stage_us / untraced_us;
  report.Note("ledger: untraced " + std::to_string(untraced_us) +
              " us/tuple, stages " + std::to_string(stage_us) +
              " us/tuple (window " +
              std::to_string(ledger.window_us * per_tuple) + ", update " +
              std::to_string(ledger.update_us.Sum() * per_tuple) +
              ", fitness tracking " +
              std::to_string(ledger.fitness_track_us * per_tuple) +
              ", capture " + std::to_string(ledger.capture_us * per_tuple) +
              ", sink " + std::to_string(sink_us_per_tuple) + ")");
  report.Check(std::fabs(unattributed) <= kMaxUnattributedFrac,
               "stage times do not add up to the untraced time per tuple");
  AddStageMetrics(ledger, untraced_us, report);
  report.Add("bench.unattributed_frac", unattributed, "ratio");
  // Traced replay against the untraced engine path it replicates (the
  // detector sink, which the replay does not run, taken out).
  report.Add("bench.trace_overhead_frac",
             ledger.wall_us * per_tuple / (untraced_us - sink_us_per_tuple) -
                 1.0,
             "ratio");
  return report;
}

Report RunInline(const RunConfig& config, const InlineWorkload& w) {
  SNS_CHECK(w.timed_end <= static_cast<size_t>(w.stream.size()));
  return config.trace ? RunTraced(w) : RunUntraced(config, w);
}

}  // namespace

Report RunHotStream(const RunConfig& config) {
  InlineWorkload w;
  w.name = "hot";
  sns::DatasetSpec spec = sns::NewYorkTaxiPreset(kTaxiScale);
  spec.stream.seed = DeriveSeed(config.seed, 1);
  w.options = spec.engine;
  w.options.seed = DeriveSeed(config.seed, 2);
  const int64_t span = spec.WarmupEndTime();  // W·T.
  const int64_t timed = kHotSegmentTuplesPerSecond * config.seconds;
  w.stream = GenerateStream(spec.stream, span, span, timed);
  w.warm_end = static_cast<size_t>(w.stream.CountTuplesThrough(span));
  // Timing starts once one window span of live tuples has passed: before
  // that, the warm-up tuples' slides inflate the events per tuple.
  w.timed_begin = static_cast<size_t>(w.stream.CountTuplesThrough(2 * span));
  w.timed_end = w.timed_begin + static_cast<size_t>(timed);
  w.options.expected_nnz = static_cast<int64_t>(w.warm_end);
  w.fitness_floor = kHotFitnessFloor;
  return RunInline(config, w);
}

Report RunAnomalyRobust(const RunConfig& config) {
  InlineWorkload w;
  w.name = "crime";
  sns::DatasetSpec spec = sns::ChicagoCrimePreset(kCrimeScale);
  spec.stream.seed = DeriveSeed(config.seed, 1);
  w.options = spec.engine;
  w.options.seed = DeriveSeed(config.seed, 2);
  w.options.robust.enabled = true;
  w.options.robust.threshold = 6.0;
  w.options.robust.decay = 0.5;
  w.options.robust.capacity = 4096;
  const int64_t span = spec.WarmupEndTime();
  sns::DataStream clean = GenerateStream(
      spec.stream, span, 0, kAnomalySegmentTuplesPerSecond * config.seconds);
  sns::Rng rng(DeriveSeed(config.seed, 3));
  w.stream = sns::InjectAnomalies(clean, kSpikes, kSpikeMagnitude,
                                  span + spec.engine.period, rng, &w.truth);
  w.warm_end = static_cast<size_t>(w.stream.CountTuplesThrough(span));
  w.timed_begin = w.warm_end;
  w.timed_end = static_cast<size_t>(w.stream.size());
  w.options.expected_nnz = static_cast<int64_t>(w.warm_end);
  w.fitness_floor = kAnomalyFitnessFloor;
  w.detector = true;
  return RunInline(config, w);
}

}  // namespace svcbench
