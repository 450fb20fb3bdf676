#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bench_common.hpp"
#include "harness/json.hpp"

namespace csaw::bench {

/// Schema version of the BENCH_throughput.json trajectory record; bump it
/// whenever a field changes meaning. The full schema is documented in
/// docs/BENCHMARKS.md. v3 added the "service" block and the
/// service_throughput figure-smoke case. v4 added latency percentiles to
/// the service block's siblings: the "service_overlap" block (concurrent
/// vs serialized dispatch of two independent-graph streams), the
/// "service_fairness" block (flooding vs light tenant under quota + DRR)
/// and the service_concurrent figure-smoke case. v5 added the
/// "paged_service" block: the demand-driven partition cache vs a
/// residency baseline (single_graph) and two paged graphs contending
/// for one undersized device (contention) — all simulated SEPS, gated.
/// v6 added the telemetry histograms to the "service" block: queue-wait
/// and host in-flight latency distributions ("histograms", informational
/// like the rest of the block) snapshotted from Service::histogram().
/// v7 added the "sharded_service" block: one pinned walk workload served
/// at shard counts {1, 2, 4}, simulated SEPS per count (gated) with
/// forwarding-cost counters; bytes are CHECKed identical across counts.
/// Still v7: single_graph's legacy_seps/legacy_transfers/speedup gave way
/// to barrier_seps/barrier_transfers when the up-front residency plan
/// they measured was deleted (no kept field changed meaning; the barrier
/// SEPS is not gated). Also still v7: the record dropped its single-shot
/// host clock — the "service", "service_overlap" and "service_fairness"
/// blocks, each schedule's per-width "runs" (wall_seconds, speedup),
/// figure_smoke's wall_seconds and the top-level hardware_concurrency —
/// leaving host time to perfbench's repeated runs. No kept field changed
/// meaning.
constexpr int kTrajectorySchemaVersion = 7;

/// Runs the throughput trajectory workloads (biased neighbor sampling +
/// biased random walk on the CSAW_THROUGHPUT_GRAPH stand-in, default LJ)
/// under both schedules at every thread width, printing tables to `log`
/// and returning the schema-versioned record ready to be written as
/// BENCH_throughput.json.
///
/// The host thread widths are resolved exactly once (1, 2, 4 and the
/// CSAW_THREADS/hardware_concurrency auto width, deduplicated) and
/// recorded in the "threads" field, so trajectory points name the grid
/// they ran on. The grid exists for its check: simulated SEPS is
/// width-invariant by construction (asserted), and the record keeps only
/// the simulated numbers — host time is perfbench's to measure.
///
/// Checks (CheckError on violation):
///   - samples and simulated time identical across widths per schedule,
///   - samples identical across schedules,
///   - pipelined SEPS >= step-barrier SEPS per workload.
Json run_throughput_trajectory(const BenchEnv& env, std::ostream& log);

}  // namespace csaw::bench
