// Fig. 9(a): C-SAW vs KnightKing on biased random walk, million sampled
// edges per second (MSEPS), with 1 and 6 GPUs.
//
// KnightKing is reproduced as a walker-centric CPU engine with per-vertex
// alias tables (its static-bias strategy), timed in wall-clock on this
// host; C-SAW runs on the analytic V100-like simulator. Absolute numbers
// are therefore model-based — the *shape* to check is the order-of-
// magnitude gap and the multi-GPU scaling (paper: 10x / 14.7x average).
#include <iostream>

#include "algorithms/random_walks.hpp"
#include "baselines/knightking.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace csaw;
  const auto env = bench::BenchEnv::from_env();
  bench::print_banner("Fig. 9(a) — C-SAW vs KnightKing, biased random walk",
                      "Fig. 9(a); paper setup: 4,000 instances, walk length "
                      "2,000 (scaled here to " +
                          std::to_string(env.walk_instances) + " x " +
                          std::to_string(env.walk_length) + ")");

  auto setup = biased_random_walk(env.walk_length);
  TablePrinter table({"graph", "KnightKing MSEPS", "C-SAW 1 GPU MSEPS",
                      "C-SAW 6 GPU MSEPS", "speedup 1 GPU", "speedup 6 GPU"});

  for (const DatasetSpec& spec : paper_datasets()) {
    const CsrGraph& g = bench::dataset(spec.abbr);
    const auto seeds = bench::make_seeds(g, env.walk_instances, env.seed);

    const auto kk =
        knightking_biased_walk(g, seeds, env.walk_length, env.seed);

    auto run_devices = [&](std::uint32_t devices) {
      SamplerOptions options;
      // Paper-shape fidelity: measure the barriered executor the paper
      // evaluates; the pipelined gain is tracked by bench_harness instead.
      options.schedule = Schedule::kStepBarrier;
      options.num_devices = devices;  // kAuto: >1 resolves to multi-device
      // FR/TW run the out-of-memory engine at bench-scale transfer costs:
      // paper-scaled transfers would dominate a scaled-down walk entirely
      // (every step changes partitions), hiding the compute comparison
      // this figure is about. See docs/BENCHMARKS.md "FR and TW at
      // bench-scale transfer cost".
      options.memory_assumption = spec.exceeds_device_memory
                                      ? MemoryAssumption::kExceeds
                                      : MemoryAssumption::kFits;
      options.num_partitions = 4;
      options.resident_partitions = 2;
      Sampler sampler(g, setup, options);
      return sampler.run_single_seed(seeds);
    };
    const auto one = run_devices(1);
    const auto six = run_devices(6);

    const double kk_mseps = kk.seps() / 1e6;
    const double one_mseps = one.seps() / 1e6;
    const double six_mseps = six.seps() / 1e6;
    table.row()
        .cell(spec.abbr)
        .cell(kk_mseps, 2)
        .cell(one_mseps, 2)
        .cell(six_mseps, 2)
        .cell(kk_mseps > 0 ? one_mseps / kk_mseps : 0.0, 1)
        .cell(kk_mseps > 0 ? six_mseps / kk_mseps : 0.0, 1);
  }
  table.print(std::cout);
  std::cout << "Paper shape: C-SAW ~10x (1 GPU) and ~14.7x (6 GPUs) over "
               "KnightKing on average; largest margins on low-degree "
               "graphs (AM, CP, WG).\n";
  return 0;
}
