// Telemetry demo: run a mixed buffered + streaming workload against a
// paged graph with scripted transfer faults, then export everything the
// unified telemetry layer captured (docs/OBSERVABILITY.md):
//
//   trace.json   — Chrome trace-event JSON with one async span per
//                  request, batch, engine chain and partition transfer,
//                  plus fault/retry/stream-chunk instants. Load it at
//                  https://ui.perfetto.dev (legacy JSON importer) or
//                  chrome://tracing; validate with tools/trace_check.py.
//   stdout       — the Prometheus-style Service::metrics_text() dump:
//                  request/batch/cache counters, health rates, and the
//                  queue-wait / batch-formation / in-flight histograms.
//
// Tracing costs one pointer check per hot-path site when off; this demo
// turns it on by attaching a TraceRecorder to ServiceConfig::trace.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "telemetry/trace.hpp"
#include "util/fault_injector.hpp"

int main() {
  using namespace csaw;

  constexpr std::uint32_t kClients = 3;
  constexpr std::uint32_t kRequestsPerClient = 8;

  // Force the out-of-memory path so the trace shows partition transfers,
  // and script partition 0 to fail twice so retry instants appear nested
  // inside its transfer span.
  ServiceConfig config;
  config.max_queue_depth = kClients * kRequestsPerClient;
  config.max_concurrent_batches = 2;
  config.batching_deadline = std::chrono::microseconds(300);
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  config.options.transfer_retry.attempts = 3;
  auto injector = std::make_shared<FaultInjector>();
  injector->fail_next(0, 2);
  config.options.transfer_faults = injector;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  const auto graph =
      std::make_shared<const CsrGraph>(generate_rmat(4096, 65536, 0xBEEF));
  service.add_graph("demo", graph);
  for (const GraphResidency& g : service.graphs()) {
    std::cout << "graph '" << g.name << "': " << g.bytes << " bytes, "
              << (g.paged ? "paged" : "resident") << "\n";
  }

  // Mixed traffic: every third request streams its chunks as they land,
  // the rest wait on the buffered future. Both paths are traced.
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint32_t r = 0; r < kRequestsPerClient; ++r) {
        const bool walk = (c + r) % 2 == 0;
        std::vector<VertexId> seed_list(6);
        for (std::uint32_t i = 0; i < seed_list.size(); ++i) {
          seed_list[i] = static_cast<VertexId>((c * 977 + r * 131 + i * 17) %
                                               graph->num_vertices());
        }
        SampleRequest request = SampleRequest::single_seeds(
            "demo",
            walk ? AlgorithmId::kBiasedRandomWalk
                 : AlgorithmId::kBiasedNeighborSampling,
            walk ? 12 : 2, seed_list);
        request.tenant = "client-" + std::to_string(c);

        if (r % 3 == 0) {
          StreamSubmission submission =
              service.submit_streaming(std::move(request));
          if (!submission.accepted()) continue;
          std::uint64_t chunks = 0;
          while (submission.stream->next().has_value()) ++chunks;
          if (r == 0) {
            std::cout << "client " << c << " streamed " << chunks
                      << " chunks\n";
          }
        } else {
          Submission submission = service.submit(std::move(request));
          if (!submission.accepted()) continue;
          const RunResult result = submission.result.get();
          if (r == 1) {
            std::cout << "client " << c << " buffered "
                      << result.sampled_edges() << " edges via "
                      << to_string(result.mode) << "\n";
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.drain();  // batch spans close when their batch retires
  service.shutdown();

  const std::string trace_path = "trace.json";
  std::ofstream trace_file(trace_path);
  trace_file << config.trace->json();
  trace_file.close();
  std::cout << "\nwrote " << trace_path << " ("
            << config.trace->event_count()
            << " events) — load at ui.perfetto.dev, or validate with\n"
            << "  python3 tools/trace_check.py " << trace_path << "\n";

  std::cout << "\n--- metrics_text() ---\n" << service.metrics_text();
  return 0;
}
