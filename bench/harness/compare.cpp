// Trajectory comparator: diffs a fresh BENCH_throughput.json against the
// committed baseline and fails on simulated-SEPS regressions. SEPS is
// computed from the analytic device model, so it is deterministic across
// machines — the tolerance absorbs intentional small cost-model drift,
// not measurement noise. The paper's barriered path (every step-barrier
// workload, the Fig. 13 scheduler smoke and the paged barrier waves)
// gates exactly instead: any move either way fails. The sharded block's
// forwarding counts and the paged block's transfer and cache counts must
// match exactly. Wall-clock fields are never compared.
//
// Usage: bench_compare <baseline.json> <current.json> [--tolerance 0.15]
// Exit:  0 = no regression, 1 = regression, 2 = incomparable/parse error.
#include <cmath>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hpp"
#include "harness/throughput.hpp"
#include "util/table.hpp"

namespace {

using csaw::bench::Json;

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

/// One gated metric: a (label, seps) pair from a trajectory record.
struct Metric {
  std::string label;
  double seps = 0.0;
};

/// The sharded_service block's per-shard-count entries, if recorded.
const Json* shard_counts(const Json& record) {
  const Json* sharded = record.find("sharded_service");
  return sharded == nullptr ? nullptr : sharded->find("counts");
}

std::vector<Metric> collect_metrics(const Json& record) {
  std::vector<Metric> metrics;
  if (const Json* workloads = record.find("workloads")) {
    for (const Json& workload : workloads->items()) {
      const std::string name = workload.at("name").as_string();
      for (const Json& schedule : workload.at("schedules").items()) {
        metrics.push_back(Metric{
            name + "/" + schedule.at("schedule").as_string(),
            schedule.at("seps").as_double()});
      }
    }
  }
  if (const Json* smoke = record.find("figure_smoke")) {
    for (const Json& entry : smoke->items()) {
      metrics.push_back(Metric{"smoke/" + entry.at("name").as_string(),
                               entry.at("seps").as_double()});
    }
  }
  // Paged-service SEPS are simulated (analytic device model), so they
  // gate like the workload and smoke metrics. The barrier waves are the
  // cached path's byte reference, so their SEPS gate too; the block's
  // transfer and cache counters gate exactly (witness_errors).
  if (const Json* paged = record.find("paged_service")) {
    if (const Json* single = paged->find("single_graph")) {
      metrics.push_back(Metric{"paged/single_graph/barrier",
                               single->at("barrier_seps").as_double()});
      metrics.push_back(Metric{"paged/single_graph/cached",
                               single->at("cached_seps").as_double()});
    }
    if (const Json* contention = paged->find("contention")) {
      metrics.push_back(
          Metric{"paged/contention", contention->at("seps").as_double()});
    }
  }
  // Sharded-service SEPS are simulated too (compute + envelope transfer
  // on the analytic wire model), so each shard count gates; the
  // forwarding counters gate separately (witness_errors).
  if (const Json* counts = shard_counts(record)) {
    for (const Json& entry : counts->items()) {
      metrics.push_back(
          Metric{"shard/" + std::to_string(entry.at("shards").as_int()),
                 entry.at("seps").as_double()});
    }
  }
  return metrics;
}

/// The barriered schedule reproduces the paper's Figs. 13-15 and is the
/// byte reference of every pipelined path, so no change to the pipelined
/// schedule may move it: these metrics gate at ratio 1 +- kExactTolerance
/// whatever --tolerance says.
constexpr double kExactTolerance = 1e-9;

bool gated_exactly(const std::string& label) {
  return label.ends_with("/step_barrier") ||
         label == "smoke/fig13_oom_scheduler" ||
         label == "paged/single_graph/barrier";
}

/// Renders a scalar field for the incomparability report.
std::string value_string(const Json* value) {
  if (value == nullptr) return "<absent>";
  if (value->is_string()) return "\"" + value->as_string() + "\"";
  std::ostringstream os;
  const double v = value->as_double();
  if (v == static_cast<double>(value->as_int())) {
    os << value->as_int();
  } else {
    os << v;
  }
  return os.str();
}

/// Integer counters fixed by the samples and the transport and cache
/// knobs alone: a change to the simulated charge leaves them exact, so
/// any difference means the walkers, or the partitions they paged in,
/// moved differently. Forwarding counts of each sharded_service shard
/// count, and transfer and cache counts of each paged_service block.
constexpr const char* kShardWitnesses[] = {"forwarded_walkers", "envelopes",
                                           "bytes_forwarded", "rounds"};
constexpr const char* kPagedSingleWitnesses[] = {
    "barrier_transfers", "cached_transfers", "cache_hits",
    "prefetch_transfers", "cache_evictions", "sampled_edges"};
constexpr const char* kPagedContentionWitnesses[] = {
    "cache_hits", "cache_evictions", "prefetch_transfers", "paged_batches",
    "sampled_edges"};

/// Appends "<label> <key>: baseline .., current .." for every key whose
/// integer value differs between the two entries (or is absent in one).
void compare_witnesses(const std::string& label, const Json& base,
                       const Json& now, std::span<const char* const> keys,
                       std::vector<std::string>& errors) {
  for (const char* key : keys) {
    const Json* want = base.find(key);
    const Json* got = now.find(key);
    if (want == nullptr || got == nullptr ||
        want->as_int() != got->as_int()) {
      errors.push_back(label + " " + key + ": baseline " +
                       value_string(want) + ", current " + value_string(got));
    }
  }
}

std::vector<std::string> witness_errors(const Json& baseline,
                                        const Json& current) {
  std::vector<std::string> errors;
  const Json* base_counts = shard_counts(baseline);
  const Json* current_counts = shard_counts(current);
  if (base_counts != nullptr && current_counts != nullptr) {
    for (const Json& base : base_counts->items()) {
      const std::int64_t shards = base.at("shards").as_int();
      const Json* now = nullptr;
      for (const Json& entry : current_counts->items()) {
        if (entry.at("shards").as_int() == shards) now = &entry;
      }
      if (now == nullptr) continue;  // reported MISSING by the SEPS gate
      compare_witnesses("shard/" + std::to_string(shards), base, *now,
                        kShardWitnesses, errors);
    }
  }
  const Json* base_paged = baseline.find("paged_service");
  const Json* current_paged = current.find("paged_service");
  if (base_paged != nullptr && current_paged != nullptr) {
    const auto compare_block = [&](const char* name,
                                   std::span<const char* const> keys) {
      const Json* base = base_paged->find(name);
      const Json* now = current_paged->find(name);
      if (base == nullptr || now == nullptr) return;  // MISSING via SEPS gate
      compare_witnesses(std::string("paged/") + name, *base, *now, keys,
                        errors);
    };
    compare_block("single_graph", kPagedSingleWitnesses);
    compare_block("contention", kPagedContentionWitnesses);
  }
  return errors;
}

/// Baselines are comparable only when they measured the same workload:
/// same schema, graph and scaling knobs. A mismatch is a setup error
/// (exit 2), not a perf regression — and the report names the diverging
/// knob with both values, so the operator sees which CSAW_* variable (or
/// harness version) to fix without diffing the JSON by hand.
std::string comparability_error(const Json& baseline, const Json& current) {
  const auto diff = [&](const std::string& label, const Json* a,
                        const Json* b) {
    return label + " differs: baseline " + value_string(a) + ", current " +
           value_string(b);
  };
  const auto field_error = [&](const char* key) -> std::string {
    const Json* a = baseline.find(key);
    const Json* b = current.find(key);
    const bool differs = (a == nullptr || b == nullptr)
                             ? a != b
                             : (a->is_string()
                                    ? a->as_string() != b->as_string()
                                    : a->as_double() != b->as_double());
    return differs ? diff(key, a, b) : std::string{};
  };
  if (auto error = field_error("schema_version"); !error.empty()) {
    return error;
  }
  if (auto error = field_error("graph"); !error.empty()) return error;
  const Json* env_a = baseline.find("env");
  const Json* env_b = current.find("env");
  if ((env_a == nullptr) != (env_b == nullptr)) {
    return std::string("env block present only in ") +
           (env_a != nullptr ? "baseline" : "current");
  }
  if (env_a != nullptr) {
    // Both directions: a knob present in only one record (a harness that
    // gained or lost an env field) makes the pair incomparable too.
    for (const auto& [key, value] : env_a->members()) {
      const Json* other = env_b->find(key);
      if (other == nullptr || other->as_double() != value.as_double()) {
        return diff("env." + key, &value, other);
      }
    }
    for (const auto& [key, value] : env_b->members()) {
      if (env_a->find(key) == nullptr) {
        return diff("env." + key, nullptr, &value);
      }
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double tolerance = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::stod(argv[++i]);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::cerr << "usage: bench_compare <baseline.json> <current.json> "
                   "[--tolerance 0.15]\n";
      return 2;
    }
  }
  if (current_path.empty()) {
    std::cerr << "usage: bench_compare <baseline.json> <current.json> "
                 "[--tolerance 0.15]\n";
    return 2;
  }

  Json baseline;
  Json current;
  try {
    baseline = load(baseline_path);
    current = load(current_path);
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }

  const std::string incomparable = comparability_error(baseline, current);
  if (!incomparable.empty()) {
    std::cerr << "bench_compare: baselines are incomparable: " << incomparable
              << " — regenerate the committed BENCH_throughput.json with the "
                 "pinned CI environment (see docs/BENCHMARKS.md)\n";
    return 2;
  }

  const auto base_metrics = collect_metrics(baseline);
  const auto current_metrics = collect_metrics(current);
  const auto find_current = [&](const std::string& label) -> const Metric* {
    for (const Metric& m : current_metrics) {
      if (m.label == label) return &m;
    }
    return nullptr;
  };

  // The gate must cover every metric the current harness produces: a
  // current-only metric means the committed baseline predates it (new
  // smoke case, trimmed record) and would otherwise be silently ungated.
  for (const Metric& now : current_metrics) {
    bool in_baseline = false;
    for (const Metric& base : base_metrics) {
      in_baseline = in_baseline || base.label == now.label;
    }
    if (!in_baseline) {
      std::cerr << "bench_compare: metric '" << now.label
                << "' is missing from " << baseline_path
                << " — regenerate the committed baseline with bench_harness "
                   "so the new metric is gated too\n";
      return 2;
    }
  }

  csaw::TablePrinter table({"metric", "baseline SEPS", "current SEPS",
                            "ratio", "status"});
  int regressions = 0;
  for (const Metric& base : base_metrics) {
    const Metric* now = find_current(base.label);
    auto row = table.row();
    row.cell(base.label);
    row.cell(base.seps, 0);
    if (now == nullptr) {
      row.cell("-");
      row.cell("-");
      row.cell("MISSING");
      ++regressions;
      continue;
    }
    const double ratio = base.seps > 0.0 ? now->seps / base.seps : 1.0;
    row.cell(now->seps, 0);
    row.cell(ratio, 3);
    if (gated_exactly(base.label)) {
      const bool exact = std::abs(ratio - 1.0) <= kExactTolerance;
      row.cell(exact ? "exact" : "CHANGED");
      if (!exact) ++regressions;
    } else if (ratio < 1.0 - tolerance) {
      row.cell("REGRESSED");
      ++regressions;
    } else {
      row.cell(ratio > 1.0 + tolerance ? "improved" : "ok");
    }
  }
  table.print(std::cout);

  const std::vector<std::string> witnesses = witness_errors(baseline, current);
  for (const std::string& error : witnesses) {
    std::cerr << "bench_compare: witness count changed: " << error << "\n";
  }
  regressions += static_cast<int>(witnesses.size());

  if (regressions > 0) {
    std::cerr << regressions
              << " metric(s) regressed more than " << tolerance * 100.0
              << "%, moved an exactly gated barrier metric, or changed a "
                 "witness count vs "
              << baseline_path
              << ". If intentional (cost-model change), regenerate the "
                 "committed baseline with bench_harness and commit it with "
                 "the change.\n";
    return 1;
  }
  std::cout << "No SEPS regressions vs " << baseline_path << " (tolerance "
            << tolerance * 100.0 << "%).\n";
  return 0;
}
