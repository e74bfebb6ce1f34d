#include "bench_util.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

namespace svcbench {

uint64_t DeriveSeed(uint64_t run_seed, uint64_t purpose) {
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + purpose + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) - 1;
  return sorted[index];
}

void Samples::KeepMin(const Samples& other) {
  SNS_CHECK(other.values_.size() == values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    values_[i] = std::min(values_[i], other.values_[i]);
  }
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  Check(std::isfinite(value), name + " is not finite");
  metrics_.push_back({name, value, unit, samples});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  Check(std::isfinite(value), name + " is not finite");
  details_.push_back({name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  have_original_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
  if (!have_original_) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (have_original_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Pin(size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[i % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool IsOnTmpfs(const std::string& path) {
  constexpr long kTmpfsMagic = 0x01021994;
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return false;
  return static_cast<long>(fs.f_type) == kTmpfsMagic;
}

std::string ProvenanceJson(const RunConfig& config) {
  std::ostringstream out;
  out << "{\"workload\": \"" << config.workload << "\", \"seed\": "
      << config.seed << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_tier\": \""
      << sns::KernelTierName(sns::ResolveKernelTier()) << "\""
      << ", \"build_type\": \"" << SVCBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \""
#if defined(__clang__)
      << "clang " << __clang_version__
#elif defined(__GNUC__)
      << "gcc " << __VERSION__
#else
      << "unknown"
#endif
      << "\", \"journal_on_tmpfs\": "
      << (IsOnTmpfs(config.work_dir) ? "true" : "false") << "}";
  return out.str();
}

std::vector<double> FactorSnapshot(const sns::StreamHandle& handle) {
  std::vector<double> out;
  for (int mode = 0; mode < handle.num_modes(); ++mode) {
    const int64_t rows = mode + 1 < handle.num_modes()
                             ? handle.mode_dims()[static_cast<size_t>(mode)]
                             : handle.window_size();
    for (int64_t row = 0; row < rows; ++row) {
      auto view = handle.FactorRow(mode, row);
      SNS_CHECK(view.ok());
      out.insert(out.end(), view.value().begin(), view.value().end());
    }
  }
  return out;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

sns::DataStream GenerateStream(sns::SyntheticStreamConfig config,
                               int64_t warmup_time, int64_t skip_time,
                               int64_t live_tuples) {
  const double density = static_cast<double>(config.num_events) /
                         static_cast<double>(config.time_span);
  // Arrivals are random and diurnally modulated, so the expected live span
  // gets 25% headroom, grown until the stream really holds enough tuples.
  for (double headroom = 1.25;; headroom *= 1.25) {
    const int64_t live_time =
        skip_time + static_cast<int64_t>(std::ceil(headroom * live_tuples /
                                                   density));
    config.time_span = warmup_time + live_time;
    config.num_events = static_cast<int64_t>(
        std::ceil(density * static_cast<double>(config.time_span)));
    auto stream = sns::GenerateSyntheticStream(config);
    SNS_CHECK(stream.ok());
    const int64_t past_skip =
        stream.value().size() -
        stream.value().CountTuplesThrough(warmup_time + skip_time);
    if (past_skip >= live_tuples) return std::move(stream).value();
  }
}

}  // namespace svcbench
