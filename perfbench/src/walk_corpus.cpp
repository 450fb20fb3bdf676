// walk_corpus: an offline DeepWalk/node2vec-style corpus job. Long biased
// random walks from many seeds on the LJ stand-in, through one in-memory
// Sampler, in chunks, as one closed-loop job. The engine step loop, ITS
// SELECT and gpusim bookkeeping do almost all the work; the service, the
// out-of-memory backend and the shard router are bypassed, and sampling
// with replacement never reaches the collision path.

#include <memory>
#include <numeric>

#include "algorithms/random_walks.hpp"
#include "common.hpp"
#include "graph/datasets.hpp"

namespace csaw::perfbench {
namespace {

constexpr std::uint32_t kPoolWidth = 2;
constexpr std::uint32_t kWalks = 2000;  ///< walks per pass over the corpus
constexpr std::uint32_t kWalkLength = 80;
constexpr std::uint32_t kChunk = 100;  ///< walks per run_tagged call
constexpr std::uint32_t kChunks = kWalks / kChunk;
constexpr std::uint32_t kCheckChunks = 3;  ///< solo reruns per run
constexpr std::uint32_t kProbeWalks = 200;
constexpr int kSetupReps = 5;
/// Latency limit of one chunk for goodput (several times its median).
constexpr double kChunkLimitMs = 250.0;

std::vector<std::uint32_t> chunk_tags(std::uint32_t c) {
  std::vector<std::uint32_t> tags(kChunk);
  std::iota(tags.begin(), tags.end(), c * kChunk);
  return tags;
}

std::vector<std::vector<VertexId>> chunk_seeds(
    const std::vector<VertexId>& seeds, std::uint32_t c) {
  return expand_single_seeds(
      std::span<const VertexId>(seeds).subspan(c * kChunk, kChunk));
}

}  // namespace

void run_walk_corpus(const RunArgs& args, Report& report) {
  declare_layer_metrics(report);
  record_env(report, args, kPoolWidth);
  SamplerOptions options;
  options.num_threads = kPoolWidth;
  const AlgorithmSetup setup = biased_random_walk(kWalkLength);

  // --- Set-up, repeated: generate the stand-in, build the Sampler, warm
  // it up with one chunk. The graph is fixed (DatasetScale's own seed);
  // the run seed draws the walk seeds, as a graph per seed would add
  // graph-to-graph variation to every metric.
  const DatasetScale scale;
  CsrGraph graph;
  std::unique_ptr<Sampler> sampler;
  std::vector<VertexId> seeds;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sampler.reset();
    const auto t0 = Clock::now();
    graph = make_dataset(dataset_by_abbr("LJ"), scale);
    generate_s.push_back(seconds_since(t0));
    sampler = std::make_unique<Sampler>(graph, setup, options);
    seeds = random_vertices(graph, kWalks, derive_seed(args.seed, 2));
    sampler->run_tagged(chunk_seeds(seeds, 0), chunk_tags(0));
    setup_s.push_back(seconds_since(t0));
  }
  record_graph(report, "lj", graph);
  report.env("job", "walks=" + std::to_string(kWalks) + " length=" +
                        std::to_string(kWalkLength) + " chunk=" +
                        std::to_string(kChunk));

  // --- Timed phase: passes over the corpus until the run length is used
  // up, always finishing the first pass. Later passes repeat the first
  // one's inputs and must repeat its bytes.
  std::vector<RunResult> first(kChunks);
  std::vector<bool> chunk_ok;  ///< per timed chunk; chunk c of pass 0 is c
  std::vector<double> latency_ms;
  std::vector<double> chunk_seps;
  const auto t_start = Clock::now();
  for (std::uint32_t pass = 0;; ++pass) {
    bool done = false;
    for (std::uint32_t c = 0; c < kChunks && !done; ++c) {
      const auto lists = chunk_seeds(seeds, c);
      const auto tags = chunk_tags(c);
      const auto t0 = Clock::now();
      RunResult result = sampler->run_tagged(lists, tags);
      const double dt = seconds_since(t0);
      latency_ms.push_back(dt * 1e3);
      chunk_seps.push_back(static_cast<double>(result.sampled_edges()) / dt);
      bool ok = true;
      if (pass == 0) {
        first[c] = std::move(result);
      } else {
        ok = same_samples(result.samples, first[c].samples);
        report.check(ok, "pass " + std::to_string(pass) + " chunk " +
                             std::to_string(c) + " repeated different bytes");
      }
      chunk_ok.push_back(ok);
      done = pass > 0 && seconds_since(t_start) >= args.seconds;
    }
    if (done || seconds_since(t_start) >= args.seconds) break;
  }

  // --- Output checks. Every walk has full length (the stand-in has no
  // isolated vertices); seeded chunks rerun solo through a fresh Sampler
  // give the same bytes (a chunk that does not counts as failed); the
  // chunked job equals run_batches_single_seed.
  std::uint64_t edges = 0;
  double sim_seconds = 0.0;
  sim::KernelStats stats;
  for (const RunResult& r : first) {
    edges += r.sampled_edges();
    sim_seconds += r.sim_seconds;
    stats.merge(r.stats);
  }
  report.check(edges == std::uint64_t{kWalks} * kWalkLength,
               "corpus sampled " + std::to_string(edges) + " edges, expected " +
                   std::to_string(std::uint64_t{kWalks} * kWalkLength));
  Sampler solo(graph, setup, options);
  for (std::uint32_t k = 0; k < kCheckChunks; ++k) {
    const auto c = static_cast<std::uint32_t>(
        derive_seed(args.seed, 10 + k) % kChunks);
    const RunResult r = solo.run_tagged(chunk_seeds(seeds, c), chunk_tags(c));
    if (!same_samples(r.samples, first[c].samples)) {
      chunk_ok[c] = false;
      report.check(false, "solo rerun of chunk " + std::to_string(c) +
                              " differs");
    }
  }
  {
    const std::span<const VertexId> head(seeds.data(), 2 * kChunk);
    const RunResult batched = solo.run_batches_single_seed(head, kChunk);
    bool ok = batched.samples.num_instances() == 2 * kChunk;
    for (std::uint32_t i = 0; ok && i < 2 * kChunk; ++i) {
      ok = batched.samples.edges(i) == first[i / kChunk].samples.edges(i % kChunk);
    }
    report.check(ok, "run_batches_single_seed differs from chunked run_tagged");
  }

  // Each chunk counted once; a chunk that is not ok misses the limit.
  for (std::size_t k = 0; k < chunk_ok.size(); ++k) {
    report.attempt(chunk_ok[k]);
    if (!chunk_ok[k]) latency_ms[k] = kMissedMs;
  }
  report.set("host_seps", windowed_quantile(chunk_seps, 0.5, kSlowRate),
             "edges/s");
  report.set("sim_seps", sampled_edges_per_second(edges, sim_seconds),
             "edges/s");
  record_latency(report, latency_ms, kSlowTime);
  report.set("goodput_rps", closed_loop_goodput(latency_ms, kChunkLimitMs),
             "req/s");
  record_kernel_stats(report, stats, edges);
  report.set("graph.generate_s", median(generate_s), "s");

  if (args.trace) {
    probe_core(report, graph, setup, options,
               std::span<const VertexId>(seeds.data(), kProbeWalks));
    probe_select(report, graph, setup, first[0].samples);
    probe_graph_builds(report, graph, SamplerOptions{}.num_partitions, 4);

    // Traced pass: the same chunks with a recorder on RunControl. Each
    // chunk is wrapped in a bench-side "batch" span so chain spans nest
    // as they do under the service.
    telemetry::TraceRecorder trace;
    std::vector<double> traced_seps;
    for (std::uint32_t c = 0; c < kChunks; ++c) {
      RunControl control;
      control.trace = &trace;
      control.trace_batch = c + 1;
      const auto lists = chunk_seeds(seeds, c);
      const auto tags = chunk_tags(c);
      const std::uint64_t span = trace.begin_span(
          "batch", {{"batch", std::to_string(c + 1)}, {"source", "bench"}});
      const auto t0 = Clock::now();
      const RunResult r = sampler->run_tagged(lists, tags, control);
      const double dt = seconds_since(t0);
      trace.end_span(span, "batch");
      traced_seps.push_back(static_cast<double>(r.sampled_edges()) / dt);
      const bool ok = same_samples(r.samples, first[c].samples);
      report.check(ok, "traced chunk " + std::to_string(c) + " differs");
      report.attempt(ok);
    }
    report.set("telemetry.trace_overhead_frac",
               median(chunk_seps) / median(traced_seps) - 1.0, "ratio");
    export_trace(report, args, trace);
  }

  report.set("setup_s", median(setup_s), "s");
}

}  // namespace csaw::perfbench
