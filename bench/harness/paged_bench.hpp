#pragma once

#include <iosfwd>

#include "bench_common.hpp"
#include "harness/json.hpp"

namespace csaw::bench {

/// Runs the paged-service scenario and returns the "paged_service" block
/// of the trajectory record (docs/BENCHMARKS.md, schema v5). Two
/// sub-cases, both fully simulated and therefore GATED by bench_compare:
///
///   single_graph — one out-of-memory walk workload (8 partitions, a
///   6-slot device budget) run twice: the kStepBarrier waves vs the
///   demand-driven partition cache of the kPipelined schedule. Sampled
///   bytes are CHECKed byte-identical and the cached run is CHECKed to
///   move fewer partitions — the cache's acceptance criterion, enforced
///   at bench time. Records both SEPS (only the cached one gated),
///   transfer counts, cache hit/prefetch counters and the
///   transfer-overlap share of the cached makespan.
///
///   contention — two paged graphs registered with one csaw::Service on
///   a device deliberately too small for either (kExceeds), so each
///   graph's PartitionCache gets half the device budget and thrashes. A
///   paused-then-resumed one-batch-per-graph mix keeps the composition
///   deterministic; SEPS is ServiceStats::sampled_edges over the summed
///   simulated batch makespans.
Json run_paged_service(const BenchEnv& env, std::ostream& log);

}  // namespace csaw::bench
