// Shared plumbing of the service benchmark: run configuration, sample
// statistics, the metric report, and host provenance.
#ifndef SVCBENCH_BENCH_UTIL_H_
#define SVCBENCH_BENCH_UTIL_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "slicenstitch.h"

namespace svcbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One invocation of the benchmark, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Per-run directory for journals and checkpoints; created by main and
  /// removed when the run ends.
  std::string work_dir;
};

/// Derives an independent 64-bit seed for one input stream from the run
/// seed (SplitMix64 finalizer), so the same --seed always gives the same
/// inputs and distinct purposes never share a generator state.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t purpose);

/// A bag of samples with nearest-rank quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Reserve(size_t n) { values_.reserve(n); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  /// Keeps, position by position, the smaller of this sample's and
  /// `other`'s values (same length): the best of repeated timings of the
  /// same work, one timing per position.
  void KeepMin(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// Metrics, checks and notes of one run; printed by main.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;  // Samples behind the value (1 for scalars).
  };

  /// Adds a metric of the result line; a non-finite value fails the run.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  /// Adds a number that is printed with the metrics but left out of the
  /// result line: a per-layer number of a layer only this workload calls,
  /// or an end-to-end number too noisy to carry a bound (query_p50_us).
  void Detail(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1);
  /// Records a failed output check when `ok` is false.
  void Check(bool ok, const std::string& what);
  /// A free-form line printed before the result (e.g. why a metric is not
  /// measured on this workload).
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Counts operations attempted and failed (or refused).
  void CountOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& details() const { return details_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failures_.empty(); }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Pins the calling thread to one of the CPUs it may run on, in turn, and
/// gives the thread back its original CPU set when destroyed. On a shared
/// host, interference from other tenants hits one core at a time, often for
/// seconds: timing repeats of the same work on different cores lets a
/// best-of-repeats figure find an undisturbed core.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the `i`-th allowed CPU (modulo their count). When the thread
  /// cannot be pinned it runs where the scheduler puts it.
  void Pin(size_t i);
  /// The CPUs rotated over (empty when the CPU set could not be read).
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  cpu_set_t original_;
  bool have_original_ = false;
  std::vector<int> cpus_;
};

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// True when `path` lives on a tmpfs mount.
bool IsOnTmpfs(const std::string& path);

/// One-line JSON provenance record: nproc, kernel tier, build type,
/// compiler, seed, workload, trace flag and whether the work directory
/// (journals, checkpoints) is on tmpfs.
std::string ProvenanceJson(const RunConfig& config);

/// A flat copy of every factor entry of one stream (all modes, time mode
/// last), read through the public FactorRow query. Two streams with
/// bitwise-equal snapshots have bitwise-equal factors.
std::vector<double> FactorSnapshot(const sns::StreamHandle& handle);

/// Bitwise equality of two double vectors (NaN payloads and signed zeros
/// included).
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// Tuples [first, first + count) of a stream as a span.
inline std::span<const sns::Tuple> Slice(const sns::DataStream& stream,
                                         size_t first, size_t count) {
  return std::span<const sns::Tuple>(stream.tuples()).subspan(first, count);
}

/// Generates a preset-shaped stream holding at least `live_tuples` tuples
/// after stream time `warmup_time + skip_time`: the time span and the event
/// count grow together, so the tuple density (and thus the window size and
/// slice degrees) stays that of `config`.
sns::DataStream GenerateStream(sns::SyntheticStreamConfig config,
                               int64_t warmup_time, int64_t skip_time,
                               int64_t live_tuples);

}  // namespace svcbench

#endif  // SVCBENCH_BENCH_UTIL_H_
