// The trajectory harness: one registry run producing the tracked perf
// record. Executes the throughput trajectory (pipelined vs step-barrier
// SEPS, checked identical at 1..N host threads), the figure-smoke subset
// and the paged and sharded service scenarios, and writes the
// schema-versioned BENCH_throughput.json — committed at the repo root as
// the perf trajectory, gated in CI by bench_compare. Everything it
// records is simulated, gated or a check; host time is perfbench's. See
// docs/BENCHMARKS.md for the schema and workflow.
//
// Every simulated device a case builds, inside Samplers and Services too,
// has its timeline checked (sim::check_timeline) as it is dropped; an
// infeasible one aborts the run.
//
// Usage: bench_harness [--out <path>]      (default ./BENCH_throughput.json)
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "gpusim/timeline.hpp"
#include "harness/paged_bench.hpp"
#include "harness/registry.hpp"
#include "harness/shard_bench.hpp"
#include "harness/throughput.hpp"
#include "util/table.hpp"

namespace {

std::atomic<std::uint64_t> audited_devices{0};

void audit_timeline(const csaw::sim::Device& device) {
  try {
    csaw::sim::check_timeline(device);
  } catch (const std::exception& e) {
    std::cerr << "infeasible simulated timeline: " << e.what() << "\n";
    std::abort();
  }
  ++audited_devices;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csaw;
  sim::set_device_audit(&audit_timeline);
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_harness [--out <path>]\n";
      return 2;
    }
  }

  const auto env = bench::BenchEnv::from_env();
  bench::print_banner(
      "Trajectory harness — throughput + figure smoke",
      "pipelined vs step-barrier SEPS; schema v" +
          std::to_string(bench::kTrajectorySchemaVersion));

  bench::Json record;
  try {
    record = bench::run_throughput_trajectory(env, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "throughput trajectory failed: " << e.what() << "\n";
    return 1;
  }

  std::cout << "-- figure smoke\n";
  TablePrinter table({"case", "figure", "edges", "SEPS (simulated)"});
  bench::Json smoke_json = bench::Json::array();
  for (const bench::SmokeCase& smoke : bench::figure_smoke_cases()) {
    bench::SmokeResult result;
    try {
      result = smoke.run();
    } catch (const std::exception& e) {
      std::cerr << "smoke case " << smoke.name << " failed: " << e.what()
                << "\n";
      return 1;
    }
    auto row = table.row();
    row.cell(smoke.name);
    row.cell(smoke.figure);
    row.cell(static_cast<std::int64_t>(result.sampled_edges));
    row.cell(result.seps, 0);

    bench::Json entry = bench::Json::object();
    entry.set("name", smoke.name);
    entry.set("figure", smoke.figure);
    entry.set("sampled_edges", result.sampled_edges);
    entry.set("seps", result.seps);
    smoke_json.push_back(std::move(entry));
  }
  table.print(std::cout);
  record.set("figure_smoke", std::move(smoke_json));

  std::cout << "-- paged service: demand cache vs barrier waves "
               "(simulated, gated)\n";
  try {
    record.set("paged_service", bench::run_paged_service(env, std::cout));
  } catch (const std::exception& e) {
    std::cerr << "paged service scenario failed: " << e.what() << "\n";
    return 1;
  }

  std::cout << "-- sharded service: walk workload at shard counts 1/2/4 "
               "(simulated, gated)\n";
  try {
    record.set("sharded_service", bench::run_sharded_service(env, std::cout));
  } catch (const std::exception& e) {
    std::cerr << "sharded service scenario failed: " << e.what() << "\n";
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << record.dump();
  std::cout << "Timelines checked: " << audited_devices.load()
            << " simulated devices.\n";
  std::cout << "Wrote " << out_path
            << ". SEPS fields are simulated (machine-independent).\n";
  return 0;
}
