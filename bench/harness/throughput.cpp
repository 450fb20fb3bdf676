#include "harness/throughput.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "gpusim/thread_pool.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace csaw::bench {
namespace {

struct Measurement {
  double seps = 0.0;
  std::uint64_t sampled_edges = 0;
  double sim_seconds = 0.0;
};

/// Resolves the thread-width grid exactly once per process: the auto
/// width (CSAW_THREADS, else hardware_concurrency) must not be re-read
/// per measurement, so every row of a trajectory point ran on the same
/// grid and the JSON can record it.
std::vector<std::uint32_t> resolve_thread_widths() {
  std::vector<std::uint32_t> widths = {1, 2, 4,
                                       csaw::sim::resolve_num_threads(0)};
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

}  // namespace

Json run_throughput_trajectory(const BenchEnv& env, std::ostream& log) {
  const std::string abbr = env_string("CSAW_THROUGHPUT_GRAPH").value_or("LJ");
  const CsrGraph& g = dataset(abbr);
  const auto widths = resolve_thread_widths();

  struct Workload {
    std::string name;
    AlgorithmSetup setup;
    std::uint32_t instances;
  };
  const std::vector<Workload> workloads = {
      {"biased_neighbor_sampling", biased_neighbor_sampling(2, 2),
       env.sampling_instances},
      {"biased_random_walk", biased_random_walk(env.walk_length),
       env.walk_instances},
  };
  // Labels come from to_string(Schedule) so the metric names the
  // comparator keys on can never drift from the engine's own naming.
  const Schedule schedules[] = {Schedule::kPipelined, Schedule::kStepBarrier};

  Json record = Json::object();
  record.set("schema_version", kTrajectorySchemaVersion);
  record.set("benchmark", "throughput");
  record.set("graph", abbr);
  Json threads_json = Json::array();
  for (const std::uint32_t t : widths) threads_json.push_back(t);
  record.set("threads", std::move(threads_json));
  Json env_json = Json::object();
  env_json.set("sampling_instances", env.sampling_instances);
  env_json.set("walk_instances", env.walk_instances);
  env_json.set("walk_length", env.walk_length);
  env_json.set("seed", env.seed);
  // The stand-in's resolved shape captures the dataset knobs
  // (CSAW_SCALE / CSAW_EDGE_CAP) without re-reading them: any knob that
  // reshapes the graph changes these counts, and content-only changes
  // come from the seed above.
  env_json.set("graph_vertices", static_cast<std::uint64_t>(g.num_vertices()));
  env_json.set("graph_edges", static_cast<std::uint64_t>(g.num_edges()));
  record.set("env", std::move(env_json));

  Json workloads_json = Json::array();
  for (const Workload& work : workloads) {
    log << "-- " << work.name << " (" << work.instances << " instances)\n";
    const auto seeds = make_seeds(g, work.instances, env.seed);

    Json workload_json = Json::object();
    workload_json.set("name", work.name);
    workload_json.set("instances", work.instances);
    Json schedules_json = Json::array();
    std::uint64_t pipelined_edges = 0;
    double pipelined_seps = 0.0;
    double barrier_seps = 0.0;

    for (const Schedule schedule : schedules) {
      const std::string schedule_label = to_string(schedule);
      TablePrinter table({"schedule", "threads", "SEPS (simulated)"});
      std::optional<Measurement> first;  // the 1-thread run
      for (const std::uint32_t threads : widths) {
        SamplerOptions options;
        options.num_threads = threads;
        options.schedule = schedule;
        Sampler sampler(g, work.setup, options);
        const RunResult result = sampler.run_single_seed(seeds);
        const Measurement m{result.seps(), result.sampled_edges(),
                            result.sim_seconds};
        if (!first) first = m;

        // The determinism contract: the host width changes nothing
        // simulated.
        CSAW_CHECK_MSG(m.sampled_edges == first->sampled_edges &&
                           m.sim_seconds == first->sim_seconds,
                       "parallel run diverged from the 1-thread baseline at "
                           << threads << " threads (" << schedule_label
                           << ")");

        auto row = table.row();
        row.cell(schedule_label);
        row.cell(static_cast<std::int64_t>(threads));
        row.cell(m.seps, 0);
      }
      table.print(log);

      if (schedule == Schedule::kPipelined) {
        pipelined_edges = first->sampled_edges;
        pipelined_seps = first->seps;
      } else {
        barrier_seps = first->seps;
        CSAW_CHECK_MSG(
            first->sampled_edges == pipelined_edges,
            "schedules sampled different edge counts for " << work.name);
      }

      Json schedule_json = Json::object();
      schedule_json.set("schedule", schedule_label);
      schedule_json.set("seps", first->seps);
      schedule_json.set("sim_seconds", first->sim_seconds);
      schedules_json.push_back(std::move(schedule_json));
    }

    // The pipelined scheduler must never lose simulated throughput — the
    // acceptance bar of the perf trajectory (docs/BENCHMARKS.md).
    CSAW_CHECK_MSG(pipelined_seps >= barrier_seps,
                   work.name << ": pipelined SEPS " << pipelined_seps
                             << " fell below step-barrier SEPS "
                             << barrier_seps);
    log << "   pipelined / step_barrier SEPS: "
        << pipelined_seps / std::max(barrier_seps, 1e-12) << "x\n";

    workload_json.set("sampled_edges", pipelined_edges);
    workload_json.set("schedules", std::move(schedules_json));
    workloads_json.push_back(std::move(workload_json));
  }
  record.set("workloads", std::move(workloads_json));
  return record;
}

}  // namespace csaw::bench
