// svcbench — the service benchmark program.
//
//   svcbench --workload <hot_stream|multi_tenant|anomaly_robust>
//            --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one line per metric (name, value, unit, samples), the run's
// provenance, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when an output check failed. svcbench/run.py builds and runs this
// program; see svcbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include <unistd.h>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload "
               "<hot_stream|multi_tenant|anomaly_robust> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  std::exit(2);
}

svcbench::RunConfig ParseArgs(int argc, char** argv) {
  svcbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.seconds < 1 || config.seconds > 60) {
    Usage("--seconds not in 1..60");
  }
  if (config.work_dir.empty()) Usage("--workdir is required");
  return config;
}

// Report::Add has failed the run for a non-finite value; JSON has no
// spelling for one, so it is printed as 0.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  svcbench::RunConfig config = ParseArgs(argc, argv);
  // A private directory per run for journals and checkpoints.
  const std::filesystem::path work =
      std::filesystem::path(config.work_dir) /
      ("run-" + std::to_string(::getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  config.work_dir = work.string();

  svcbench::Report report;
  if (config.workload == "hot_stream") {
    report = svcbench::RunHotStream(config);
  } else if (config.workload == "multi_tenant") {
    report = svcbench::RunMultiTenant(config);
  } else if (config.workload == "anomaly_robust") {
    report = svcbench::RunAnomalyRobust(config);
  } else {
    Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  const std::string provenance = svcbench::ProvenanceJson(config);
  std::filesystem::remove_all(work);

  for (const auto& m : report.metrics()) {
    std::printf("%-36s %16.6g %-6s (n=%lld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const auto& m : report.details()) {
    std::printf("%-36s %16.6g %-6s (n=%lld, not in the result line)\n",
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
  for (const std::string& note : report.notes()) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("provenance %s\n", provenance.c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted()
       << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return report.correct() ? 0 : 1;
}
