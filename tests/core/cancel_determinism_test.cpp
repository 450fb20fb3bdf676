// The byte-determinism contract of cooperative cancellation: cancelling
// one instance of a run — via RunControl::instance_cancel — stops that
// instance at a step boundary and leaves every OTHER instance's samples
// byte-identical to a run without the cancellation, on every execution
// path (tests/paths.hpp) and at any host thread count. Merely carrying
// live (unfired) tokens must not change bytes either: the poll is
// observation, never participation. Run-level cancel (RunControl::
// cancel) is the cheaper whole-run-discard form and only promises "less
// work", not per-instance bytes. The service maps each token onto a
// request of its own; a cancelled request fails typed and delivers no
// rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::engine_suite_paths;
using testing::expect_cancel_contract;
using testing::gapped_tags;
using testing::spread_seeds;

constexpr std::uint32_t kInstances = 12;

const CsrGraph& test_graph() {
  static const CsrGraph g = generate_rmat(1024, 8192, 71);
  return g;
}

TEST(CancelDeterminism, CancelledInstancesNeverPerturbTheirBatch) {
  // On every path of the matrix, the sharded router and the service (at
  // one host thread) included. Instances in both halves of the batch, so the multi-device
  // split has a cancelled instance in each device group; gapped tags, the
  // service-tier shape.
  expect_cancel_contract(engine_suite_paths(), test_graph(),
                         {AlgorithmId::kBiasedRandomWalk, 10},
                         spread_seeds(test_graph(), kInstances),
                         gapped_tags(kInstances), {1, 7});
}

TEST(CancelDeterminism, MismatchedTokenVectorIsChecked) {
  const auto setup = biased_random_walk(4);
  const auto seeds =
      expand_single_seeds(spread_seeds(test_graph(), kInstances));
  const auto tags = gapped_tags(kInstances);

  CancelSource source;
  RunControl control;
  control.instance_cancel.assign(kInstances - 1, source.token());
  Sampler sampler(test_graph(), setup);
  EXPECT_THROW(sampler.run_tagged(seeds, tags, control), CheckError);
}

TEST(CancelDeterminism, LinkedSourcesChainAndOwnReasonWins) {
  // The service links a deadline source onto the client's token: firing
  // either side cancels the request.
  CancelSource client;
  CancelSource deadline = CancelSource::linked(client.token());
  const CancelToken token = deadline.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());

  client.cancel(CancelReason::kRequested);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kRequested);

  // Per source, the first reason sticks; across a chain a token reports
  // its own source's reason before the parent's.
  deadline.cancel(CancelReason::kDeadline);
  deadline.cancel(CancelReason::kRequested);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(client.reason(), CancelReason::kRequested);

  // A default token is inert — the "no cancellation" fast path.
  const CancelToken inert;
  EXPECT_FALSE(inert.valid());
  EXPECT_FALSE(inert.cancelled());
}

}  // namespace
}  // namespace csaw
