// perfbench_run: runs one benchmark workload and writes its result record.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <result.json> [--trace-out <trace.json>]
//
// Prints a human-readable metric table to stdout and writes the full
// record (metrics, environment, verdict) to --out. perfbench/run.py is
// the entry point that builds this binary and reduces the record to the
// benchmark's result line.

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>

#include "common.hpp"

namespace {

using csaw::perfbench::Report;
using csaw::perfbench::RunArgs;

int usage() {
  std::cerr << "usage: perfbench_run --workload <walk_corpus|gnn_serve|"
               "paged_serve|sharded_serve|gnn_saturation> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file> "
               "[--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      return usage();
    }
  }
  using Workload = void (*)(const RunArgs&, Report&);
  const std::map<std::string, Workload> workloads = {
      {"walk_corpus", csaw::perfbench::run_walk_corpus},
      {"gnn_serve", csaw::perfbench::run_gnn_serve},
      {"paged_serve", csaw::perfbench::run_paged_serve},
      {"sharded_serve", csaw::perfbench::run_sharded_serve},
      {"gnn_saturation", csaw::perfbench::run_gnn_saturation},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end() || out_path.empty() || args.seconds <= 0.0) {
    return usage();
  }

  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  report.set("peak_rss_mb", csaw::perfbench::peak_rss_mb(), "MiB");
  report.set("failed_frac",
             static_cast<double>(report.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)),
             "ratio");

  std::cout << args.workload << " (seed " << args.seed << ", trace "
            << (args.trace ? 1 : 0) << "):\n"
            << report.table();
  std::ofstream out(out_path);
  out << report.json();
  if (!out) {
    std::cerr << "perfbench: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
