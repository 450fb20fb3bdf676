// Out-of-memory sampling demo (paper §V): sample a graph that exceeds the
// device's memory using partitioned residency, and show what each
// optimization buys — batched multi-instance sampling, workload-aware
// scheduling, and thread-block balancing.
#include <iostream>

#include "algorithms/neighbor_sampling.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/table.hpp"

int main() {
  using namespace csaw;
  // A stand-in for a Twitter/Friendster-class graph at bench scale.
  const CsrGraph graph = generate_rmat(32768, 262144, 0xF00D);
  std::cout << "graph: " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " edges, CSR "
            << graph.bytes() / (1024 * 1024) << " MiB\n"
            << "device holds 2 of 4 partitions at a time\n\n";

  auto setup = biased_neighbor_sampling(/*neighbor_size=*/2, /*depth=*/3);
  std::vector<VertexId> seeds(2000);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = static_cast<VertexId>((i * 523) % graph.num_vertices());
  }

  struct Config {
    const char* label;
    bool batched, workload_aware, balancing;
  };
  const std::vector<Config> configs = {
      {"baseline", false, false, false},
      {"+ batched sampling (BA)", true, false, false},
      {"+ workload-aware scheduling (WS)", true, true, false},
      {"+ block balancing (BAL)", true, true, true},
  };

  TablePrinter table({"configuration", "transfers", "MiB moved",
                      "kernel launches", "imbalance", "sim ms", "speedup"});
  double baseline_seconds = 0.0;
  for (const Config& config : configs) {
    // The bench-scale stand-in actually fits a 16 GB device, so the
    // paging behaviour is requested explicitly (the paper "pretends"
    // likewise); kAuto would pick the in-memory engine here.
    SamplerOptions options;
    options.mode = ExecutionMode::kOutOfMemory;
    options.num_partitions = 4;
    options.resident_partitions = 2;
    options.num_streams = 2;
    options.oom_batched = config.batched;
    options.oom_workload_aware = config.workload_aware;
    options.oom_block_balancing = config.balancing;
    // The toggles are those of the paper's barriered wave scheduler; the
    // pipelined default pages through the demand cache instead.
    options.schedule = Schedule::kStepBarrier;

    Sampler sampler(graph, setup, options);
    const RunResult run = sampler.run_single_seed(seeds);
    if (baseline_seconds == 0.0) baseline_seconds = run.sim_seconds;

    const OomMetrics& metrics = run.oom.value();
    table.row()
        .cell(config.label)
        .cell(static_cast<std::int64_t>(metrics.partition_transfers))
        .cell(static_cast<double>(metrics.bytes_transferred) /
                  (1024.0 * 1024.0),
              1)
        .cell(static_cast<std::int64_t>(metrics.kernel_launches))
        .cell(metrics.kernel_imbalance, 3)
        .cell(run.sim_seconds * 1e3, 2)
        .cell(baseline_seconds / run.sim_seconds, 2);
  }
  table.print(std::cout);
  std::cout << "Every configuration produces a statistically identical "
               "sample; walks would be bit-identical (counter-based RNG — "
               "see tests/oom/oom_test.cpp).\n";
  return 0;
}
