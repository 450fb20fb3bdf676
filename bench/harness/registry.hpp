#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace csaw::bench {

/// Result of one figure-smoke case: a fixed-size, env-independent
/// mini-workload through the same code path a full figure bench drives.
/// SEPS is simulated (deterministic across machines — the comparator
/// gates on it).
struct SmokeResult {
  std::uint64_t sampled_edges = 0;
  double seps = 0.0;
};

/// One entry of the harness registry.
struct SmokeCase {
  /// Stable identifier used as the JSON key ("fig13_oom_opts").
  std::string name;
  /// The paper artifact whose code path this smokes ("Fig. 13").
  std::string figure;
  std::function<SmokeResult()> run;
};

/// The figure-smoke subset the harness executes alongside the throughput
/// trajectory: one tiny deterministic workload per exercised subsystem
/// (in-memory SELECT variants, the out-of-memory scheduler, instance
/// scaling, multi-device split). Workload sizes are fixed constants —
/// deliberately independent of the CSAW_* scaling knobs — so the
/// committed trajectory record stays comparable across machines.
const std::vector<SmokeCase>& figure_smoke_cases();

}  // namespace csaw::bench
