// Table II: the evaluated graphs. Prints the published sizes next to the
// scaled synthetic stand-ins this reproduction generates (see
// docs/BENCHMARKS.md "Synthetic stand-ins for the Table II graphs" for
// the substitution rationale).
#include <iostream>

#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "util/table.hpp"

int main() {
  using namespace csaw;
  bench::print_banner("Table II — evaluated graphs",
                      "Table II (dataset statistics)");

  TablePrinter table({"dataset", "abbr", "paper |V|", "paper |E|",
                      "paper deg", "standin |V|", "standin |E|",
                      "standin deg", "CSR MB", "OOM"});
  for (const DatasetSpec& spec : paper_datasets()) {
    const CsrGraph& g = bench::dataset(spec.abbr);
    table.row()
        .cell(spec.name)
        .cell(spec.abbr)
        .cell(static_cast<std::int64_t>(spec.paper_vertices))
        .cell(static_cast<std::int64_t>(spec.paper_edges))
        .cell(spec.paper_avg_degree, 2)
        .cell(static_cast<std::int64_t>(g.num_vertices()))
        .cell(static_cast<std::int64_t>(g.num_edges()))
        .cell(g.average_degree(), 2)
        .cell(static_cast<double>(g.bytes()) / (1024.0 * 1024.0), 2)
        .cell(spec.exceeds_device_memory ? "yes" : "no");
  }
  table.print(std::cout);
  return 0;
}
