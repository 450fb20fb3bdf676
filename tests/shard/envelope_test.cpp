// Envelope batching: wire-size accounting, and the router-level
// guarantee that envelope/queue sizing (and the backpressure a tight
// ingress queue adds) perturbs only the simulated timeline — never the
// sampled bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/envelope.hpp"
#include "shard/router.hpp"

namespace csaw {
namespace {

TEST(WalkerEnvelope, WireBytesCountHeaderAndWalkers) {
  WalkerEnvelope env;
  EXPECT_EQ(env.bytes(), WalkerEnvelope::kHeaderBytes);
  env.walkers.resize(5);
  EXPECT_EQ(env.bytes(),
            WalkerEnvelope::kHeaderBytes + 5 * WalkerEnvelope::kWalkerBytes);
}

TEST(EnvelopeSizing, CapacityChangesEnvelopesNotBytesOfSamples) {
  // Tiny envelopes split the same walker traffic into more deliveries
  // (more wire headers, more simulated transfer time) while a tiny
  // ingress queue adds backpressure rounds — but the samples must stay
  // byte-identical to the roomy configuration.
  const CsrGraph graph = generate_rmat(200, 900, 7, {}, /*weighted=*/true);
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kDeepwalk, /*length=*/24);
  std::vector<VertexId> seed_list;
  for (std::uint32_t i = 0; i < 16; ++i) {
    seed_list.push_back(static_cast<VertexId>((i * 37) %
                                              graph.num_vertices()));
  }
  const auto seeds = expand_single_seeds(seed_list);
  std::vector<std::uint32_t> tags(seed_list.size());
  for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = i;

  SamplerOptions options;
  options.num_threads = 1;
  ShardOptions roomy;
  roomy.shards = 3;
  ShardRouter baseline(graph, setup, options, roomy);
  const RunResult want = baseline.run_tagged(seeds, tags);
  ASSERT_GT(want.shard->forwarded_walkers, 0u);

  ShardOptions tight = roomy;
  tight.envelope_capacity = 1;
  tight.queue_capacity = 1;
  ShardRouter router(graph, setup, options, tight);
  const RunResult got = router.run_tagged(seeds, tags);

  ASSERT_EQ(got.samples.num_instances(), want.samples.num_instances());
  for (std::uint32_t i = 0; i < got.samples.num_instances(); ++i) {
    EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
        << "instance " << i;
  }
  // One walker per envelope: envelope count equals forwarded hops.
  EXPECT_EQ(got.shard->forwarded_walkers, want.shard->forwarded_walkers);
  EXPECT_EQ(got.shard->envelopes, got.shard->forwarded_walkers);
  EXPECT_GE(got.shard->envelopes, want.shard->envelopes);
  // Splitting pays one extra header per extra envelope, nothing else.
  EXPECT_EQ(got.shard->bytes_forwarded - want.shard->bytes_forwarded,
            (got.shard->envelopes - want.shard->envelopes) *
                WalkerEnvelope::kHeaderBytes);
  // Backpressure can only stretch the schedule.
  EXPECT_GE(got.shard->rounds, want.shard->rounds);
}

}  // namespace
}  // namespace csaw
