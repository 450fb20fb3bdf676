#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace csaw {

/// One entry of the paper's Table II. `paper_vertices`/`paper_edges` are
/// the published sizes; `make()` generates the synthetic stand-in at the
/// configured scale (see docs/BENCHMARKS.md "Synthetic stand-ins for the
/// Table II graphs": R-MAT matched on average degree and skew preserves
/// the evaluation-relevant behaviour).
struct DatasetSpec {
  std::string name;          // e.g. "Amazon0601"
  std::string abbr;          // e.g. "AM"
  std::uint64_t paper_vertices;
  std::uint64_t paper_edges;  // directed edge count as published
  double paper_avg_degree;
  /// CSR size as published in Table II — the payload out-of-memory
  /// transfers move. Used to scale the simulated host link so the
  /// transfer:compute balance matches the paper's testbed at bench scale.
  std::uint64_t paper_csr_bytes;
  RmatParams rmat;           // skew profile for the stand-in
  bool weighted = false;
  /// Graphs the paper runs only in the out-of-memory setting because they
  /// exceed a 16 GB V100 (FR, TW).
  bool exceeds_device_memory = false;
};

/// Scaled generation parameters shared by benches. The default cap keeps
/// every stand-in under ~512k directed edges so the full bench suite runs
/// on one CPU core; CSAW_EDGE_CAP overrides.
struct DatasetScale {
  /// Upper bound on directed edges of a generated stand-in.
  EdgeIndex edge_cap = 512 * 1024;
  /// Minimum divisor applied to the paper sizes even when under the cap.
  double min_scale = 64.0;
  std::uint64_t seed = 0x5CA11AB1ull;

  /// Reads CSAW_EDGE_CAP / CSAW_SCALE / CSAW_SEED environment overrides.
  static DatasetScale from_env();
};

/// All ten Table II datasets in paper order (AM AS CP LJ OR RE WG YE FR TW).
const std::vector<DatasetSpec>& paper_datasets();

/// The eight datasets that fit in device memory (Figs. 10-12 exclude FR
/// and TW).
std::vector<DatasetSpec> in_memory_datasets();

/// Finds a dataset by abbreviation ("AM", "TW", ...). Throws if unknown.
const DatasetSpec& dataset_by_abbr(const std::string& abbr);

/// Generates the scaled synthetic stand-in for `spec`.
CsrGraph make_dataset(const DatasetSpec& spec,
                      const DatasetScale& scale = DatasetScale::from_env());

}  // namespace csaw
