// Envelope batching and ordering: wire-size accounting, bounded-queue
// backpressure, (from, seq) order restoration, and the router-level
// guarantee that envelope/queue sizing perturbs only the simulated
// timeline — never the sampled bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/envelope.hpp"
#include "shard/router.hpp"

namespace csaw {
namespace {

WalkerEnvelope make_envelope(std::uint32_t from, std::uint32_t to,
                             std::uint64_t seq, std::size_t walkers) {
  WalkerEnvelope env;
  env.from = from;
  env.to = to;
  env.seq = seq;
  env.walkers.resize(walkers);
  return env;
}

TEST(WalkerEnvelope, WireBytesCountHeaderAndWalkers) {
  EXPECT_EQ(make_envelope(0, 1, 0, 0).bytes(), WalkerEnvelope::kHeaderBytes);
  EXPECT_EQ(make_envelope(0, 1, 0, 5).bytes(),
            WalkerEnvelope::kHeaderBytes + 5 * WalkerEnvelope::kWalkerBytes);
}

TEST(EnvelopeQueue, BoundedPushAndDrain) {
  EnvelopeQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_envelope(0, 1, 0, 1)));
  EXPECT_TRUE(queue.try_push(make_envelope(2, 1, 0, 1)));
  EXPECT_TRUE(queue.full());
  // At capacity: the push is rejected, the sender keeps the envelope.
  EXPECT_FALSE(queue.try_push(make_envelope(3, 1, 0, 1)));
  EXPECT_EQ(queue.size(), 2u);

  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.full());
  EXPECT_TRUE(queue.try_push(make_envelope(3, 1, 1, 1)));
}

TEST(EnvelopeQueue, ReceiverRestoresFromSeqOrder) {
  // Producers push in an adversarial interleaving; the receiver's
  // stable sort by (from, seq) — the router's ingress step — must
  // restore the per-source sequence order.
  EnvelopeQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_envelope(2, 0, 1, 1)));
  ASSERT_TRUE(queue.try_push(make_envelope(1, 0, 0, 1)));
  ASSERT_TRUE(queue.try_push(make_envelope(2, 0, 0, 1)));
  ASSERT_TRUE(queue.try_push(make_envelope(1, 0, 1, 1)));

  auto arrived = queue.drain();
  std::stable_sort(arrived.begin(), arrived.end(),
                   [](const WalkerEnvelope& a, const WalkerEnvelope& b) {
                     return a.from != b.from ? a.from < b.from
                                             : a.seq < b.seq;
                   });
  ASSERT_EQ(arrived.size(), 4u);
  EXPECT_EQ(arrived[0].from, 1u);
  EXPECT_EQ(arrived[0].seq, 0u);
  EXPECT_EQ(arrived[1].from, 1u);
  EXPECT_EQ(arrived[1].seq, 1u);
  EXPECT_EQ(arrived[2].from, 2u);
  EXPECT_EQ(arrived[2].seq, 0u);
  EXPECT_EQ(arrived[3].from, 2u);
  EXPECT_EQ(arrived[3].seq, 1u);
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
