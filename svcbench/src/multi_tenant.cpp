// multi_tenant: 48 small journaled streams on a 3-shard service with
// telemetry on, fed micro-batches of 32 through IngestAsync by one
// generator thread while one admin thread queries and checkpoints.
//
// Phase A is an open loop at a fixed aggregate rate with the admin thread
// running its schedule; each batch is timed from its due time, and a pass
// is invalid when the generator falls behind or the backlog grows. Phase B
// is a closed-loop saturation run (a fixed window of batches in flight)
// over a fixed tuple count; its throughput is the workload's tuples_per_s.
// Untraced runs play both phases kPasses times from one checkpoint; traced
// runs play one such pass and add the inline baseline.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.h"
#include "replay.h"
#include "workloads.h"

namespace svcbench {
namespace {

// --- Workload parameters -------------------------------------------------

constexpr int kTenants = 48;
constexpr int kShards = 3;
constexpr int kBatch = 32;
// Phase A aggregate rate, tuples/s: about a third of the seed's phase-B
// saturation rate (~30k tuples/s on a 4-core host). At half of it the
// latency tail is a queueing tail, and its run-to-run spread exceeded the
// bounds.
constexpr double kPhaseARate = 10000.0;
// Phase A lasts --seconds/2 and phase B plays this many tuples per second
// of --seconds/2, both split over the passes.
constexpr int64_t kPhaseBTuplesPerSecond = 30000;
// Closed loop: batches in flight per shard during phase B.
constexpr int kInFlightPerShard = 8;
// Admin schedule: one slot every kAdminSlotUs; every kCheckpointEvery-th
// slot checkpoints the next stream (round-robin), the others alternate
// TopK and RunningFitness over the streams.
constexpr int64_t kAdminSlotUs = 4000;
constexpr int kCheckpointEvery = 25;
constexpr int kSetupReps = 3;
// Untraced runs play phases A and B this many times, each on a service
// restored from one checkpoint of all streams taken after the pre-roll;
// every metric is the median over the passes, which keeps a burst of host
// noise during one pass out of it.
constexpr int kPasses = 5;
constexpr int kSnapshotReps = 20;

// Validity bounds of the open loop.
constexpr double kMaxGeneratorLagP99Us = 5000.0;
// Mean batches outstanding in phase A's last quarter may exceed the first
// quarter's by at most this many.
constexpr double kMaxBacklogGrowthBatches = 2.0 * kShards;

constexpr double kFitnessFloor = 0.1;

// Per-stream shape: 64x64, R=8, W=10, T=3600, ~1500 tuples per window span.
constexpr int64_t kDim = 64;
constexpr int64_t kWindowSpan = 10 * 3600;
constexpr int64_t kTuplesPerWindowSpan = 1500;
constexpr sns::SnsVariant kVariants[4] = {
    sns::SnsVariant::kVec, sns::SnsVariant::kRnd, sns::SnsVariant::kVecPlus,
    sns::SnsVariant::kRndPlus};

// --- Inputs ------------------------------------------------------------------

struct Tenant {
  std::string name;
  sns::DataStream stream{std::vector<int64_t>{1}};
  sns::ContinuousCpdOptions options;
  size_t warm_end = 0;    // [0, warm_end): Warmup.
  size_t live_begin = 0;  // [warm_end, live_begin): untimed pre-roll.
  int shard = 0;
  int64_t batches_issued = 0;
};

struct Inputs {
  std::vector<Tenant> tenants;
  int64_t phase_a_batches = 0;
  int64_t phase_b_batches = 0;
};

Inputs MakeInputs(const RunConfig& config) {
  Inputs in;
  // Per pass; a traced run plays one pass (plus the inline baseline).
  const double half = 0.5 * config.seconds;
  in.phase_a_batches = static_cast<int64_t>(
      std::llround(kPhaseARate * half / kPasses / kBatch));
  in.phase_b_batches = static_cast<int64_t>(
      std::llround(kPhaseBTuplesPerSecond * half / kPasses / kBatch));
  const int64_t per_tenant =
      (in.phase_a_batches + in.phase_b_batches + kTenants - 1) / kTenants;
  for (int i = 0; i < kTenants; ++i) {
    Tenant t;
    char name[16];
    std::snprintf(name, sizeof(name), "t%02d", i);
    t.name = name;
    sns::SyntheticStreamConfig gen;
    gen.mode_dims = {kDim, kDim};
    gen.num_events = kTuplesPerWindowSpan;
    gen.time_span = kWindowSpan;
    gen.latent_rank = 6;
    gen.noise_fraction = 0.1;
    gen.popularity_skew = 1.1;
    gen.diurnal_period = 86400;
    gen.diurnal_strength = 0.5;
    gen.seed = DeriveSeed(config.seed, 100 + i);
    t.stream =
        GenerateStream(gen, kWindowSpan, kWindowSpan, per_tenant * kBatch);
    t.warm_end = static_cast<size_t>(t.stream.CountTuplesThrough(kWindowSpan));
    t.live_begin =
        static_cast<size_t>(t.stream.CountTuplesThrough(2 * kWindowSpan));
    t.options.rank = 8;
    t.options.window_size = 10;
    t.options.period = 3600;
    t.options.variant = kVariants[i % 4];
    t.options.sample_threshold = 20;
    t.options.clip_bound = 1000.0;
    t.options.init.max_iterations = 40;
    t.options.init.fitness_tolerance = 1e-4;
    t.options.seed = DeriveSeed(config.seed, 200 + i);
    t.options.expected_nnz = static_cast<int64_t>(t.warm_end);
    in.tenants.push_back(std::move(t));
  }
  return in;
}

// Global batch k goes to tenant k % 48 as its (k / 48)-th live batch.
std::span<const sns::Tuple> BatchTuples(const Tenant& t, int64_t nth) {
  return Slice(t.stream, t.live_begin + static_cast<size_t>(nth) * kBatch,
               kBatch);
}

// The first window span of live tuples, one ticket per stream: before it
// has passed, the warm-up tuples' slides inflate the events per tuple.
std::span<const sns::Tuple> PreRoll(const Tenant& t) {
  return Slice(t.stream, t.warm_end, t.live_begin - t.warm_end);
}

// --- Service set-up ----------------------------------------------------------

struct SetupTimes {
  double setup_s = 0.0;
  double init_s = 0.0;  // Sum over the streams' Initialize calls.
};

SetupTimes SetUpStreams(sns::SnsService& service, Inputs& in,
                        const std::string& journal_root) {
  SetupTimes times;
  const Clock::time_point start = Clock::now();
  for (Tenant& t : in.tenants) {
    SNS_CHECK(service.CreateStream(t.name, t.stream.mode_dims(), t.options)
                  .ok());
    SNS_CHECK(service.Warmup(t.name, Slice(t.stream, 0, t.warm_end)).ok());
    const Clock::time_point init_start = Clock::now();
    SNS_CHECK(service.Initialize(t.name).ok());
    times.init_s += SecondsBetween(init_start, Clock::now());
    SNS_CHECK(service.EnableJournal(t.name, journal_root + "/" + t.name).ok());
  }
  times.setup_s = SecondsBetween(start, Clock::now());
  return times;
}

sns::ServiceOptions ShardedOptions() {
  sns::ServiceOptions options;
  options.shards = kShards;
  options.backpressure = sns::BackpressurePolicy::kBlock;
  options.metrics.enabled = true;
  return options;
}

// --- Completion collectors ------------------------------------------------

// Waits on one shard's tickets in issue order. A shard applies its mailbox
// FIFO, so each Wait returns when that ticket completed, and the collector
// timestamps completions without polling.
class Collector {
 public:
  struct Done {
    double latency_us = 0.0;  // From due (open loop) or issue (closed loop).
    Clock::time_point completed;
    bool ok = false;
    int phase = 0;
  };

  Collector() : thread_([this] { Loop(); }) {}
  ~Collector() { Stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(sns::Ticket ticket, Clock::time_point start, int phase) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back({std::move(ticket), start, phase});
    }
    cv_.notify_one();
  }

  /// Joins the thread once every pushed ticket completed.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  int64_t completed() const { return completed_.load(); }
  /// Valid after Stop().
  const std::vector<Done>& done() const { return done_; }

 private:
  struct Pending {
    sns::Ticket ticket;
    Clock::time_point start;
    int phase;
  };

  void Loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
        if (pending_.empty()) return;
        p = std::move(pending_.front());
        pending_.pop_front();
      }
      const bool ok = p.ticket.Wait().ok();
      const Clock::time_point now = Clock::now();
      done_.push_back({MicrosBetween(p.start, now), now, ok, p.phase});
      completed_.fetch_add(1);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;  // Guarded by mu_.
  bool stopping_ = false;        // Guarded by mu_.
  std::vector<Done> done_;       // Collector thread only, until joined.
  std::atomic<int64_t> completed_{0};
  std::thread thread_;           // Last: starts after the members it uses.
};

// --- Admin thread (phase A) ----------------------------------------------

struct AdminResult {
  // From issue to reply: the admin thread is one closed-loop client, so a
  // slow checkpoint delays its later queries without inflating them.
  Samples query_us;
  Samples fitness_inner_us;  // Traced: RunningFitness inside the shard hop.
  Samples checkpoint_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

void RunAdmin(sns::SnsService& service, const Inputs& in,
              const std::string& checkpoint_dir, Clock::time_point start,
              Clock::time_point end, bool trace, AdminResult* out) {
  int checkpoints = 0;
  for (int64_t slot = 0;; ++slot) {
    const Clock::time_point due =
        start + std::chrono::microseconds(slot * kAdminSlotUs);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const Tenant& t = in.tenants[static_cast<size_t>(slot % kTenants)];
    const Clock::time_point issued = Clock::now();
    bool ok = false;
    if (slot % kCheckpointEvery == kCheckpointEvery - 1) {
      const Tenant& c =
          in.tenants[static_cast<size_t>(checkpoints++ % kTenants)];
      ok = service
               .CheckpointToFile(c.name, checkpoint_dir + "/" + c.name +
                                             ".ckpt")
               .ok();
      out->checkpoint_ms.Add(MicrosBetween(issued, Clock::now()) / 1000.0);
    } else if (slot % 2 == 0) {
      ok = service.TopK(t.name, /*mode=*/0, /*k=*/5).ok();
      out->query_us.Add(MicrosBetween(issued, Clock::now()));
    } else if (trace) {
      // Same hop, with the tracker's own cost timed inside it.
      auto inner = service.Query(t.name, [](const sns::StreamHandle& h) {
        const Clock::time_point begin = Clock::now();
        const double fitness = h.RunningFitness();
        return std::isfinite(fitness) ? MicrosBetween(begin, Clock::now())
                                      : -1.0;
      });
      out->query_us.Add(MicrosBetween(issued, Clock::now()));
      ok = inner.ok() && inner.value() >= 0.0;
      if (ok) out->fitness_inner_us.Add(inner.value());
    } else {
      ok = service.RunningFitness(t.name).ok();
      out->query_us.Add(MicrosBetween(issued, Clock::now()));
    }
    ++out->attempted;
    if (!ok) ++out->failed;
  }
}

// --- Telemetry helpers ---------------------------------------------------

// Histogram of the samples recorded between two snapshots of one
// instrument. min/max span the whole run, which only bounds the clamp.
sns::telemetry::HistogramSnapshot Diff(
    const sns::telemetry::HistogramSnapshot& after,
    const sns::telemetry::HistogramSnapshot& before) {
  sns::telemetry::HistogramSnapshot d = after;
  d.count = 0;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
    d.count += d.buckets[i];
  }
  d.sum = after.sum - before.sum;
  d.min = 0;
  return d;
}

sns::telemetry::ServiceMetricsSnapshot Snapshot(sns::SnsService& service) {
  auto snap = service.Metrics();
  SNS_CHECK(snap.ok());
  return std::move(snap).value();
}

double NsToUs(double ns) { return ns / 1000.0; }

// Cost of one steady_clock read, ns (for the trace-overhead estimate).
double ClockReadNs() {
  constexpr int kReads = 200000;
  const Clock::time_point begin = Clock::now();
  Clock::time_point last = begin;
  for (int i = 0; i < kReads; ++i) last = Clock::now();
  return MicrosBetween(begin, last) * 1000.0 / kReads;
}

// --- Phases A and B ---------------------------------------------------------

// Everything one play of phases A and B measured.
struct PhaseRun {
  Samples latency_a_us;  // Phase A, from due time (open loop).
  Samples latency_b_us;  // Phase B, from issue (closed loop).
  double tuples_per_s = 0.0;  // Phase B.
  Clock::time_point a_start;
  Clock::time_point b_start;
  Clock::time_point b_end;
  AdminResult admin;
  Samples lag_us;
  double backlog_first = 0.0;  // Mean outstanding batches, first quarter.
  double backlog_last = 0.0;   // Same, last quarter of phase A.
  Samples submit_us;           // Traced only.
  int64_t failed_batches = 0;
  sns::telemetry::ServiceMetricsSnapshot before_b;  // Traced only.
  sns::telemetry::ServiceMetricsSnapshot after_b;   // Traced only.
};

PhaseRun RunPhases(sns::SnsService& svc, Inputs& in,
                   const std::string& checkpoint_dir, bool trace) {
  PhaseRun run;
  // Pinned shard of each stream, from the telemetry snapshot.
  for (const auto& s : Snapshot(svc).streams) {
    for (Tenant& t : in.tenants) {
      if (t.name == s.name) t.shard = s.shard;
    }
  }
  for (Tenant& t : in.tenants) t.batches_issued = 0;

  std::vector<std::unique_ptr<Collector>> collectors;
  for (int s = 0; s < kShards; ++s) {
    collectors.push_back(std::make_unique<Collector>());
  }
  auto completed = [&] {
    int64_t n = 0;
    for (const auto& c : collectors) n += c->completed();
    return n;
  };
  auto issue = [&](int64_t k, Clock::time_point start, int phase) {
    Tenant& t = in.tenants[static_cast<size_t>(k % kTenants)];
    const auto batch = BatchTuples(t, k / kTenants);
    const Clock::time_point before = trace ? Clock::now() : start;
    sns::Ticket ticket = svc.IngestAsync(t.name, batch);
    if (trace) run.submit_us.Add(MicrosBetween(before, Clock::now()));
    ++t.batches_issued;
    collectors[static_cast<size_t>(t.shard)]->Push(ticket, start, phase);
    return ticket;
  };

  // Phase A: open loop at kPhaseARate with the admin schedule.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kBatch / kPhaseARate));
  run.a_start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point a_end = run.a_start + interval * in.phase_a_batches;
  std::thread admin_thread(RunAdmin, std::ref(svc), std::cref(in),
                           checkpoint_dir, run.a_start, a_end, trace,
                           &run.admin);
  std::vector<double> outstanding;
  for (int64_t k = 0; k < in.phase_a_batches; ++k) {
    const Clock::time_point due = run.a_start + interval * k;
    std::this_thread::sleep_until(due);
    run.lag_us.Add(MicrosBetween(due, Clock::now()));
    outstanding.push_back(static_cast<double>(k - completed()));
    issue(k, due, /*phase=*/0);
  }
  admin_thread.join();
  while (completed() < in.phase_a_batches) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const size_t quarter = outstanding.size() / 4;
  for (size_t i = 0; i < quarter; ++i) {
    run.backlog_first += outstanding[i] / static_cast<double>(quarter);
    run.backlog_last += outstanding[outstanding.size() - 1 - i] /
                        static_cast<double>(quarter);
  }
  if (trace) run.before_b = Snapshot(svc);

  // Phase B: closed loop, kInFlightPerShard batches per shard in flight;
  // each new batch waits for the one issued in_flight batches earlier.
  const size_t in_flight = static_cast<size_t>(kInFlightPerShard) * kShards;
  std::vector<sns::Ticket> window(in_flight);
  run.b_start = Clock::now();
  for (int64_t j = 0; j < in.phase_b_batches; ++j) {
    sns::Ticket& slot = window[static_cast<size_t>(j) % in_flight];
    if (slot.valid()) slot.Wait();
    slot = issue(in.phase_a_batches + j, Clock::now(), /*phase=*/1);
  }
  for (auto& c : collectors) c->Stop();
  if (trace) run.after_b = Snapshot(svc);

  run.b_end = run.b_start;
  for (const auto& c : collectors) {
    for (const Collector::Done& d : c->done()) {
      if (!d.ok) ++run.failed_batches;
      if (d.phase == 0) {
        run.latency_a_us.Add(d.latency_us);
      } else {
        run.latency_b_us.Add(d.latency_us);
        run.b_end = std::max(run.b_end, d.completed);
      }
    }
  }
  run.tuples_per_s = static_cast<double>(in.phase_b_batches * kBatch) /
                     SecondsBetween(run.b_start, run.b_end);
  return run;
}

// Checks one play of the phases and the streams' final state; returns the
// median fitness over the streams.
double CheckPhases(sns::SnsService& svc, const Inputs& in,
                   const PhaseRun& run, Report& report,
                   int64_t* diverged_streams) {
  report.CountOps(in.phase_a_batches + in.phase_b_batches +
                      run.admin.attempted,
                  run.failed_batches + run.admin.failed);
  report.Check(run.failed_batches == 0, "ingest tickets failed");
  report.Check(run.admin.failed == 0, "admin queries or checkpoints failed");
  Samples stream_fitness;
  std::string diverged;
  *diverged_streams = 0;
  uint64_t quarantines = 0;
  for (const Tenant& t : in.tenants) {
    // Warmup, Initialize and the pre-roll are ticketed too.
    auto applied = svc.AppliedSequence(t.name);
    const uint64_t tickets = static_cast<uint64_t>(3 + t.batches_issued);
    report.Check(applied.ok() && applied.value() == tickets,
                 t.name + ": AppliedSequence differs from the tickets issued");
    const double fitness = svc.Query(t.name, [](const sns::StreamHandle& h) {
                                return h.ExactFitness();
                              }).value();
    report.Check(std::isfinite(fitness), t.name + ": fitness not finite");
    stream_fitness.Add(fitness);
    if (fitness < 0.0) {
      ++*diverged_streams;
      diverged += " " + t.name + " (" + sns::VariantName(t.options.variant) +
                  ")";
    }
    quarantines += svc.Health(t.name).value().quarantine_count;
  }
  report.Check(quarantines == 0, "streams were quarantined");
  // The median, not the mean: the unclipped SNS-VEC/SNS-RND streams can
  // diverge (fitness far below 0), which would swing a mean by orders of
  // magnitude. Divergences are counted and named instead.
  const double fitness = stream_fitness.Median();
  report.Check(fitness >= kFitnessFloor,
               "median fitness " + std::to_string(fitness) + " below floor");
  if (!diverged.empty()) {
    report.Note("streams whose model diverged (fitness < 0):" + diverged);
  }
  report.Note("phase A: " + std::to_string(in.phase_a_batches) +
              " batches, lag p99 " + std::to_string(run.lag_us.Quantile(0.99)) +
              " us, outstanding " + std::to_string(run.backlog_first) +
              " -> " + std::to_string(run.backlog_last) + "; phase B: " +
              std::to_string(in.phase_b_batches) + " batches in " +
              std::to_string(SecondsBetween(run.b_start, run.b_end)) + " s");
  return fitness;
}

// Open-loop honesty: empty when phase A kept its schedule and its backlog
// did not grow, else why not.
std::string OpenLoopInvalid(const PhaseRun& run) {
  const double lag_p99 = run.lag_us.Quantile(0.99);
  if (lag_p99 > kMaxGeneratorLagP99Us) {
    return "generator fell behind: lag p99 " + std::to_string(lag_p99) +
           " us";
  }
  if (run.backlog_last > run.backlog_first + kMaxBacklogGrowthBatches) {
    return "backlog grew across phase A: " +
           std::to_string(run.backlog_first) + " -> " +
           std::to_string(run.backlog_last) + " batches outstanding";
  }
  return "";
}

// Set-up repeated kSetupReps times; the last service is returned.
std::unique_ptr<sns::SnsService> SetUpRepeated(const RunConfig& config,
                                               Inputs& in, Samples& setup_s,
                                               Samples& init_s) {
  std::unique_ptr<sns::SnsService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const std::string journal =
        config.work_dir + "/setup-" + std::to_string(rep);
    service = std::make_unique<sns::SnsService>(ShardedOptions());
    const SetupTimes times = SetUpStreams(*service, in, journal);
    setup_s.Add(times.setup_s);
    init_s.Add(times.init_s);
  }
  return service;
}

// Every stream's pre-roll, one ticket per stream.
void PreRollAll(sns::SnsService& service, const Inputs& in, Report& report) {
  std::vector<sns::Ticket> preroll;
  for (const Tenant& t : in.tenants) {
    preroll.push_back(service.IngestAsync(t.name, PreRoll(t)));
  }
  int64_t failed = 0;
  for (const sns::Ticket& ticket : preroll) {
    if (!ticket.Wait().ok()) ++failed;
  }
  report.CountOps(static_cast<int64_t>(preroll.size()), failed);
  report.Check(failed == 0, "pre-roll ingest failed");
}

Report RunUntraced(const RunConfig& config, Inputs& in) {
  Report report;
  Samples setup_s;
  Samples init_s;
  std::vector<std::string> checkpoints;
  {
    auto service = SetUpRepeated(config, in, setup_s, init_s);
    PreRollAll(*service, in, report);
    for (const Tenant& t : in.tenants) {
      sns::serial::StringSink sink;
      SNS_CHECK(service->Checkpoint(t.name, sink).ok());
      checkpoints.push_back(sink.TakeData());
    }
  }

  Samples throughput;
  Samples latency_p50;
  Samples latency_p99;
  Samples query_p50;
  Samples query_p99;
  double fitness = 0.0;
  int64_t samples_a = 0;
  int64_t samples_q = 0;
  int valid_passes = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::string root = config.work_dir + "/pass-" +
                             std::to_string(pass);
    std::filesystem::create_directories(root + "/checkpoints");
    sns::SnsService svc(ShardedOptions());
    // Restored in creation order, so each stream lands on the same shard.
    for (size_t i = 0; i < in.tenants.size(); ++i) {
      sns::serial::StringSource source(checkpoints[i]);
      SNS_CHECK(svc.Restore(source).ok());
      SNS_CHECK(svc.EnableJournal(in.tenants[i].name,
                                  root + "/journal/" + in.tenants[i].name)
                    .ok());
    }
    const PhaseRun run = RunPhases(svc, in, root + "/checkpoints", false);
    int64_t diverged = 0;
    const double pass_fitness = CheckPhases(svc, in, run, report, &diverged);
    // Every pass replays identical inputs from an identical state.
    if (pass > 0) {
      report.Check(pass_fitness == fitness,
                   "passes from one checkpoint disagree");
    }
    fitness = pass_fitness;
    // A pass whose open loop did not hold is invalid: noted, not reported.
    const std::string invalid = OpenLoopInvalid(run);
    if (!invalid.empty()) {
      report.Note("pass " + std::to_string(pass) + " invalid: " + invalid);
      continue;
    }
    ++valid_passes;
    throughput.Add(run.tuples_per_s);
    latency_p50.Add(run.latency_a_us.Median());
    latency_p99.Add(run.latency_a_us.Quantile(0.99));
    query_p50.Add(run.admin.query_us.Median());
    query_p99.Add(run.admin.query_us.Quantile(0.99));
    samples_a += static_cast<int64_t>(run.latency_a_us.size());
    samples_q += static_cast<int64_t>(run.admin.query_us.size());
  }
  report.Check(2 * valid_passes > kPasses,
               "most passes broke the open-loop schedule");
  report.Add("tuples_per_s", throughput.Median(), "1/s",
             in.phase_b_batches * kBatch * valid_passes);
  report.Add("latency_p50_us", latency_p50.Median(), "us", samples_a);
  report.Add("latency_p99_us", latency_p99.Median(), "us", samples_a);
  report.Detail("query_p50_us", query_p50.Median(), "us", samples_q);
  report.Add("query_p99_us", query_p99.Median(), "us", samples_q);
  report.Add("fitness", fitness, "ratio", kTenants);
  report.Add("precision_at_k", 1.0, "ratio", 0);
  report.Note("precision_at_k: no injected spikes on multi_tenant; "
              "reported as the vacuous 1.0 (k = 0)");
  report.Add("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

Report RunTraced(const RunConfig& config, Inputs& in) {
  Report report;
  Samples setup_s;
  Samples init_s;
  auto service = SetUpRepeated(config, in, setup_s, init_s);
  sns::SnsService& svc = *service;
  // Stage-timed replays of the SNS+RND streams, started from their engine
  // state right after Initialize (replay.h).
  std::vector<std::pair<const Tenant*, std::unique_ptr<StageReplay>>> replays;
  for (const Tenant& t : in.tenants) {
    if (t.options.variant != sns::SnsVariant::kRndPlus) continue;
    replays.emplace_back(&t, std::make_unique<StageReplay>(*EngineSnapshot(
                                 svc, t.name, t.stream.mode_dims(),
                                 t.options)));
  }
  PreRollAll(svc, in, report);
  const std::string root = config.work_dir + "/traced";
  std::filesystem::create_directories(root);
  const PhaseRun run = RunPhases(svc, in, root, true);
  int64_t diverged_streams = 0;
  CheckPhases(svc, in, run, report, &diverged_streams);
  const std::string invalid = OpenLoopInvalid(run);
  if (!invalid.empty()) report.Note("open loop invalid: " + invalid);

  // The replays take the same tuples, untimed through the pre-roll and
  // timed through the batches, and must end bitwise on the engines' state.
  // The sharded service gives no per-stream untimed time to compare with,
  // so core.update_share is relative to the replay's own time here.
  StageLedger ledger;
  for (auto& [t, replay] : replays) {
    replay->Run(PreRoll(*t), nullptr);
    replay->Run(Slice(t->stream, t->live_begin,
                      static_cast<size_t>(t->batches_issued) * kBatch),
                &ledger);
    report.Check(
        SameCpdState(replay->state(),
                     EngineSnapshot(svc, t->name, t->stream.mode_dims(),
                                    t->options)
                         ->state()),
        t->name + ": replay factors/Grams are not bitwise equal to the "
                  "engine's");
  }
  AddStageMetrics(ledger, ledger.wall_us / static_cast<double>(ledger.tuples),
                  report);

  report.Add("core.init_s", init_s.Median(), "s", init_s.size());
  report.Detail("core.diverged_streams", static_cast<double>(diverged_streams),
                "count", kTenants);
  report.Add("core.fitness_query_us_p50", run.admin.fitness_inner_us.Median(),
             "us", run.admin.fitness_inner_us.size());
  report.Add("core.fitness_query_us_p99",
             run.admin.fitness_inner_us.Quantile(0.99), "us",
             run.admin.fitness_inner_us.size());
  report.Detail("api.submit_us_p50", run.submit_us.Median(), "us",
                run.submit_us.size());
  report.Detail("api.submit_us_p99", run.submit_us.Quantile(0.99), "us",
                run.submit_us.size());
  uint64_t admission_rejects = 0;
  for (const auto& s : run.after_b.streams) {
    admission_rejects += s.admission_rejects;
  }
  report.Detail("api.admission_rejects", static_cast<double>(admission_rejects),
                "count");

  // Runtime, over phase B.
  const auto& snap1 = run.before_b;
  const auto& snap2 = run.after_b;
  const double b_wall_s = SecondsBetween(run.b_start, run.b_end);
  const auto apply_b = Diff(snap2.apply_ns, snap1.apply_ns);
  const auto ingest_b = Diff(snap2.ingest_latency_ns, snap1.ingest_latency_ns);
  report.Detail("runtime.apply_us_p50", NsToUs(apply_b.Percentile(0.5)), "us",
                apply_b.count);
  report.Detail("runtime.apply_us_p99", NsToUs(apply_b.Percentile(0.99)), "us",
                apply_b.count);
  report.Detail("runtime.queue_wait_us_mean",
                NsToUs(ingest_b.Mean() - apply_b.Mean()), "us", ingest_b.count);
  double busy_sum = 0.0;
  double busy_max = 0.0;
  int64_t depth_peak = 0;
  uint64_t blocked = 0;
  for (size_t s = 0; s < snap2.shards.size(); ++s) {
    const double busy = static_cast<double>(snap2.shards[s].apply_ns.sum -
                                            snap1.shards[s].apply_ns.sum);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    depth_peak = std::max(depth_peak, snap2.shards[s].queue_depth_peak);
    blocked += snap2.shards[s].mailbox_blocked;
  }
  const double shards = static_cast<double>(snap2.shards.size());
  report.Detail("runtime.shard_busy_frac", busy_sum / shards / (b_wall_s * 1e9),
                "ratio");
  report.Detail("runtime.queue_depth_peak", static_cast<double>(depth_peak),
                "count");
  report.Detail("runtime.mailbox_blocked", static_cast<double>(blocked),
                "count");
  report.Detail("runtime.shard_skew", busy_max / (busy_sum / shards), "ratio");

  // Durability, over the whole run.
  sns::telemetry::HistogramSnapshot append_ns;
  uint64_t journal_bytes = 0;
  uint64_t tuples_ingested = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_writes = 0;
  for (const auto& s : snap2.streams) {
    append_ns.Merge(s.journal_append_ns);
    journal_bytes += s.journal_bytes;
    tuples_ingested += s.tuples_ingested;
    checkpoint_bytes += s.checkpoint_bytes;
    checkpoint_writes += s.checkpoint_writes;
  }
  report.Detail("durability.journal_append_us_p50",
                NsToUs(append_ns.Percentile(0.5)), "us", append_ns.count);
  report.Detail("durability.journal_append_us_p99",
                NsToUs(append_ns.Percentile(0.99)), "us", append_ns.count);
  report.Detail("durability.journal_bytes_per_tuple",
                static_cast<double>(journal_bytes) /
                    static_cast<double>(std::max<uint64_t>(1, tuples_ingested)),
                "B");
  report.Detail("durability.checkpoint_ms", run.admin.checkpoint_ms.Median(),
                "ms", run.admin.checkpoint_ms.size());
  const uint64_t writes = std::max<uint64_t>(1, checkpoint_writes);
  report.Detail("durability.checkpoint_bytes",
                static_cast<double>(checkpoint_bytes) /
                    static_cast<double>(writes),
                "B", checkpoint_writes);

  Samples snapshot_us;
  for (int i = 0; i < kSnapshotReps; ++i) {
    const Clock::time_point begin = Clock::now();
    Snapshot(svc);
    snapshot_us.Add(MicrosBetween(begin, Clock::now()));
  }
  report.Detail("telemetry.snapshot_us", snapshot_us.Median(), "us",
                snapshot_us.size());

  report.Detail("bench.generator_lag_p99_us", run.lag_us.Quantile(0.99), "us",
                run.lag_us.size());
  // Share of the batch latency the generator saw that the service's own
  // submission-to-completion histogram does not account for (phase B).
  report.Add("bench.unattributed_frac",
             1.0 - NsToUs(ingest_b.Mean()) / run.latency_b_us.Mean(), "ratio");
  // Timer reads the traced run adds (two per submit, two per traced
  // fitness query), costed at the measured price of one read, against the
  // wall time of both phases.
  const double added_reads =
      2.0 * static_cast<double>(run.submit_us.size() +
                                run.admin.fitness_inner_us.size());
  report.Add("bench.trace_overhead_frac",
             added_reads * ClockReadNs() / 1e9 /
                 SecondsBetween(run.a_start, run.b_end),
             "ratio");

  // --- Single-threaded baseline: the same streams and tuples inline ---
  std::vector<std::vector<double>> sharded_factors;
  for (const Tenant& t : in.tenants) {
    sharded_factors.push_back(
        svc.Query(t.name, [](const sns::StreamHandle& h) {
             return FactorSnapshot(h);
           }).value());
  }
  const double sharded_tuples_per_s = run.tuples_per_s;
  service.reset();
  sns::ServiceOptions inline_options;
  inline_options.metrics.enabled = true;
  sns::SnsService inline_svc(inline_options);
  SetUpStreams(inline_svc, in, config.work_dir + "/inline");
  for (const Tenant& t : in.tenants) {
    report.Check(inline_svc.Ingest(t.name, PreRoll(t)).ok(),
                 "inline baseline pre-roll failed");
  }
  const int64_t batches = in.phase_a_batches + in.phase_b_batches;
  Clock::time_point inline_b_start;
  for (int64_t k = 0; k < batches; ++k) {
    if (k == in.phase_a_batches) inline_b_start = Clock::now();
    const Tenant& t = in.tenants[static_cast<size_t>(k % kTenants)];
    report.Check(inline_svc.Ingest(t.name, BatchTuples(t, k / kTenants)).ok(),
                 "inline baseline ingest failed");
  }
  const double inline_tuples_per_s =
      static_cast<double>(in.phase_b_batches * kBatch) /
      SecondsBetween(inline_b_start, Clock::now());
  report.Detail("runtime.scaling", sharded_tuples_per_s / inline_tuples_per_s,
                "ratio");
  for (size_t i = 0; i < in.tenants.size(); ++i) {
    const Tenant& t = in.tenants[i];
    report.Check(BitwiseEqual(sharded_factors[i],
                              FactorSnapshot(*inline_svc.Find(t.name))),
                 t.name + ": sharded factors differ from the inline run");
  }
  report.Note("inline baseline: " + std::to_string(inline_tuples_per_s) +
              " tuples/s over the phase-B batches");
  return report;
}

}  // namespace

Report RunMultiTenant(const RunConfig& config) {
  Inputs in = MakeInputs(config);
  return config.trace ? RunTraced(config, in) : RunUntraced(config, in);
}

}  // namespace svcbench
