#include "harness/registry.hpp"

#include <memory>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "util/check.hpp"

namespace csaw::bench {
namespace {

/// Deterministic seed vertices spread over the graph (the pattern every
/// bench uses, fixed here so smoke results never depend on env knobs).
std::vector<VertexId> smoke_seeds(const CsrGraph& g, std::uint32_t n) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((i * 131) % g.num_vertices());
  }
  return seeds;
}

SmokeResult run_one(const CsrGraph& g, const AlgorithmSetup& setup,
                    std::uint32_t instances, SamplerOptions options) {
  Sampler sampler(g, setup, std::move(options));
  const RunResult result = sampler.run_single_seed(smoke_seeds(g, instances));
  return SmokeResult{result.sampled_edges(), result.seps()};
}

const CsrGraph& smoke_graph() {
  static const CsrGraph g = generate_rmat(8192, 65536, 0xC5A7);
  return g;
}

/// Independent second graph for the concurrent-dispatch smoke case.
const CsrGraph& smoke_graph_b() {
  static const CsrGraph g = generate_rmat(8192, 65536, 0xC5A8);
  return g;
}

}  // namespace

const std::vector<SmokeCase>& figure_smoke_cases() {
  static const std::vector<SmokeCase> cases = {
      {"fig10_inmem_sampling", "Fig. 10",
       [] {
         // In-memory SELECT path: biased neighbor sampling at the
         // paper's NeighborSize = Depth = 2.
         return run_one(smoke_graph(), biased_neighbor_sampling(2, 2), 256,
                        SamplerOptions{});
       }},
      {"fig11_walk_iterations", "Fig. 11",
       [] {
         // Long-walk SELECT iteration path (ITS over walk steps).
         return run_one(smoke_graph(), biased_random_walk(64), 256,
                        SamplerOptions{});
       }},
      {"fig13_oom_scheduler", "Fig. 13",
       [] {
         // Out-of-memory backend under the barriered wave scheduler the
         // figure quantifies (pinned, like oom_bench_options): paging,
         // batched multi-instance sampling, workload-aware scheduling.
         SamplerOptions options;
         options.mode = ExecutionMode::kOutOfMemory;
         options.memory_assumption = MemoryAssumption::kExceeds;
         options.schedule = Schedule::kStepBarrier;
         return run_one(smoke_graph(), biased_random_walk(32), 256, options);
       }},
      {"oom_pipelined_walk", "§V (repo-native)",
       [] {
         // The same workload under the pipelined residency chains —
         // gates the OOM pipelined path the fig13 case deliberately
         // avoids.
         SamplerOptions options;
         options.mode = ExecutionMode::kOutOfMemory;
         options.memory_assumption = MemoryAssumption::kExceeds;
         options.schedule = Schedule::kPipelined;
         return run_one(smoke_graph(), biased_random_walk(32), 256, options);
       }},
      {"fig16_instance_scaling", "Fig. 16",
       [] {
         // The instance axis of the scaling sweeps (4x the other cases).
         return run_one(smoke_graph(), biased_neighbor_sampling(2, 2), 1024,
                        SamplerOptions{});
       }},
      {"fig17_multi_device", "Fig. 17",
       [] {
         // Disjoint instance groups across two simulated devices.
         SamplerOptions options;
         options.mode = ExecutionMode::kMultiDevice;
         options.num_devices = 2;
         return run_one(smoke_graph(), biased_random_walk(32), 512, options);
       }},
      {"service_throughput", "§serving (repo-native)",
       [] {
         // The service tier end to end, deterministically: a fixed mix of
         // requests queues while the dispatcher is paused, so the batching
         // (and therefore the simulated makespan the SEPS gate reads) is a
         // pure function of the mix — two algorithms, varying request
         // sizes, one coalesced stream space.
         ServiceConfig config;
         config.start_paused = true;
         config.max_queue_depth = 64;
         Service service(config);
         service.add_graph(
             "smoke", std::make_shared<const CsrGraph>(smoke_graph()));
         std::vector<Submission> submissions;
         for (std::uint32_t r = 0; r < 48; ++r) {
           SampleRequest request;
           request.graph = "smoke";
           request.algorithm = (r % 3 == 0)
                                   ? AlgorithmId::kBiasedNeighborSampling
                                   : AlgorithmId::kBiasedRandomWalk;
           request.depth_or_length = (r % 3 == 0) ? 2 : 32;
           const std::uint32_t instances = 4 + (r % 5);
           for (std::uint32_t i = 0; i < instances; ++i) {
             request.seeds.push_back({static_cast<VertexId>(
                 (r * 131 + i * 17) % smoke_graph().num_vertices())});
           }
           submissions.push_back(service.submit(std::move(request)));
         }
         service.resume();
         for (Submission& s : submissions) {
           CSAW_CHECK_MSG(s.accepted(), "smoke request rejected: "
                                            << to_string(s.rejected));
           s.result.get();
         }
         service.shutdown();
         const ServiceStats stats = service.stats();
         return SmokeResult{stats.sampled_edges,
                            sampled_edges_per_second(stats.sampled_edges,
                                                     stats.sim_seconds)};
       }},
      {"service_concurrent", "§serving (repo-native)",
       [] {
         // The concurrent dispatcher end to end, deterministically: a
         // fixed two-tenant request mix over two independent graphs
         // queues while paused, then dispatches with two batch runners
         // on the shared pool. Batch *composition* is a pure function of
         // the mix (each graph+algorithm class coalesces from a static
         // queue), so sampled_edges and the summed simulated makespan —
         // the gated SEPS — are schedule-independent even though batch
         // *interleaving* is not.
         ServiceConfig config;
         config.start_paused = true;
         config.max_concurrent_batches = 2;
         config.max_queue_depth = 64;
         Service service(config);
         service.add_graph(
             "smoke_a", std::make_shared<const CsrGraph>(smoke_graph()));
         service.add_graph(
             "smoke_b", std::make_shared<const CsrGraph>(smoke_graph_b()));
         std::vector<Submission> submissions;
         for (std::uint32_t r = 0; r < 40; ++r) {
           const CsrGraph& graph =
               (r % 2 == 0) ? smoke_graph() : smoke_graph_b();
           SampleRequest request;
           request.graph = (r % 2 == 0) ? "smoke_a" : "smoke_b";
           request.tenant = (r % 5 == 0) ? "burst" : "steady";
           request.algorithm = (r % 4 == 0)
                                   ? AlgorithmId::kBiasedNeighborSampling
                                   : AlgorithmId::kBiasedRandomWalk;
           request.depth_or_length = (r % 4 == 0) ? 2 : 24 + (r % 3);
           const std::uint32_t instances = 3 + (r % 4);
           for (std::uint32_t i = 0; i < instances; ++i) {
             request.seeds.push_back({static_cast<VertexId>(
                 (r * 131 + i * 17) % graph.num_vertices())});
           }
           submissions.push_back(service.submit(std::move(request)));
         }
         service.resume();
         for (Submission& s : submissions) {
           CSAW_CHECK_MSG(s.accepted(), "concurrent smoke rejected: "
                                            << to_string(s.rejected));
           s.result.get();
         }
         service.shutdown();
         const ServiceStats stats = service.stats();
         // The deterministic overlap witness: with two independent-graph
         // heads queued and capacity 2, the scheduler must have had two
         // batches formed-in-flight at once (a scheduling fact, unlike
         // executing overlap, which is timing-dependent).
         CSAW_CHECK(stats.peak_inflight_batches == 2);
         return SmokeResult{stats.sampled_edges,
                            sampled_edges_per_second(stats.sampled_edges,
                                                     stats.sim_seconds)};
       }},
  };
  return cases;
}

}  // namespace csaw::bench
