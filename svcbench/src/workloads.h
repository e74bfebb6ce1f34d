// The three service workloads. Each runs against the public API, checks
// its outputs, and fills a Report: the end-to-end metrics for an untraced
// run, the per-layer ledger for a traced one (RunConfig::trace).
#ifndef SVCBENCH_WORKLOADS_H_
#define SVCBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace svcbench {

/// One NY-Taxi-shaped SNS+RND stream on an inline service, one tuple per
/// Ingest call, timed in the steady state.
Report RunHotStream(const RunConfig& config);

/// 48 small journaled streams on 3 shards fed by micro-batches: an open-loop
/// phase with admin queries and checkpoints, then a closed-loop saturation
/// phase.
Report RunMultiTenant(const RunConfig& config);

/// Chicago-Crime-shaped robust SNS+RND stream with injected spikes and a
/// detector sink scoring every arrival by its outlier capture.
Report RunAnomalyRobust(const RunConfig& config);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOADS_H_
