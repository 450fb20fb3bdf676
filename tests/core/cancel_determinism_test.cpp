// The byte-determinism contract of cooperative cancellation (PR 7):
// cancelling one instance of a run — via RunControl::instance_cancel —
// stops that instance at a step boundary and leaves every OTHER
// instance's samples byte-identical to a run without the cancellation,
// in every execution mode and at any host thread count. Merely carrying
// live (unfired) tokens must not change bytes either: the poll is
// observation, never participation. Run-level cancel (RunControl::
// cancel) is the cheaper whole-run-discard form and only promises "less
// work", not per-instance bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kInstances = 12;
constexpr std::uint32_t kWalkLength = 10;

const CsrGraph& test_graph() {
  static const CsrGraph g = generate_rmat(1024, 8192, 71);
  return g;
}

std::vector<std::vector<VertexId>> spread_seeds() {
  std::vector<std::vector<VertexId>> seeds(kInstances);
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    seeds[i] = {static_cast<VertexId>((i * 131) % test_graph().num_vertices())};
  }
  return seeds;
}

// Non-contiguous, strictly increasing global RNG ids — the service-tier
// shape, so the test covers the tagged path all modes share.
std::vector<std::uint32_t> spread_tags() {
  std::vector<std::uint32_t> tags(kInstances);
  for (std::uint32_t i = 0; i < kInstances; ++i) tags[i] = 64 + 3 * i;
  return tags;
}

struct ModeCase {
  std::string name;
  SamplerOptions options;
};

std::vector<ModeCase> mode_cases(std::uint32_t threads) {
  std::vector<ModeCase> cases;
  {
    SamplerOptions options;
    options.mode = ExecutionMode::kInMemory;
    options.num_threads = threads;
    cases.push_back({"in-memory", options});
  }
  {
    SamplerOptions options;
    options.mode = ExecutionMode::kOutOfMemory;
    options.num_threads = threads;
    cases.push_back({"out-of-memory", options});
  }
  {
    SamplerOptions options;
    options.mode = ExecutionMode::kOutOfMemory;
    options.schedule = Schedule::kStepBarrier;
    options.num_threads = threads;
    cases.push_back({"oom-barrier", options});
  }
  {
    SamplerOptions options;
    options.mode = ExecutionMode::kMultiDevice;
    options.num_devices = 2;
    options.num_threads = threads;
    cases.push_back({"multi-device", options});
  }
  return cases;
}

TEST(CancelDeterminism, CancelledInstancesNeverPerturbTheirBatch) {
  const auto setup = biased_random_walk(kWalkLength);
  const auto seeds = spread_seeds();
  const auto tags = spread_tags();
  // Instances in both halves of the batch, so the multi-device split has
  // a cancelled instance in each device group.
  const std::vector<std::uint32_t> cancelled = {1, 7};

  for (const std::uint32_t threads : {1u, 2u, 7u}) {
    for (const ModeCase& mode : mode_cases(threads)) {
      const std::string label =
          mode.name + ", threads=" + std::to_string(threads);

      Sampler baseline(test_graph(), setup, mode.options);
      const RunResult ref = baseline.run_tagged(seeds, tags);
      ASSERT_GT(ref.sampled_edges(), 0u) << label;

      // Live (unfired) tokens: polling is on, bytes must not move.
      {
        std::vector<CancelSource> sources(kInstances);
        RunControl control;
        for (auto& s : sources) control.instance_cancel.push_back(s.token());
        Sampler sampler(test_graph(), setup, mode.options);
        const RunResult live = sampler.run_tagged(seeds, tags, control);
        for (std::uint32_t i = 0; i < kInstances; ++i) {
          EXPECT_EQ(live.samples.edges(i), ref.samples.edges(i))
              << label << ", live tokens, instance " << i;
        }
      }

      // Pre-fired tokens for two instances: they stop at their first step
      // boundary; everyone else's bytes are untouched.
      {
        std::vector<CancelSource> sources(kInstances);
        RunControl control;
        for (auto& s : sources) control.instance_cancel.push_back(s.token());
        for (const std::uint32_t i : cancelled) {
          sources[i].cancel(CancelReason::kRequested);
        }
        Sampler sampler(test_graph(), setup, mode.options);
        const RunResult run = sampler.run_tagged(seeds, tags, control);
        for (std::uint32_t i = 0; i < kInstances; ++i) {
          const bool was_cancelled =
              i == cancelled[0] || i == cancelled[1];
          if (was_cancelled) {
            EXPECT_LT(run.samples.edges(i).size(),
                      ref.samples.edges(i).size())
                << label << ", cancelled instance " << i
                << " should have stopped early";
          } else {
            EXPECT_EQ(run.samples.edges(i), ref.samples.edges(i))
                << label << ", surviving instance " << i;
          }
        }
      }
    }
  }
}

TEST(CancelDeterminism, RunLevelCancelSkipsWork) {
  // The whole-run-discard form: a pre-fired run token makes the run do
  // strictly less work. No per-instance byte promise — callers only use
  // it when the entire output is thrown away.
  const auto setup = biased_random_walk(kWalkLength);
  const auto seeds = spread_seeds();
  const auto tags = spread_tags();

  for (const ModeCase& mode : mode_cases(1)) {
    Sampler baseline(test_graph(), setup, mode.options);
    const RunResult ref = baseline.run_tagged(seeds, tags);

    CancelSource source;
    source.cancel(CancelReason::kRequested);
    RunControl control;
    control.cancel = source.token();
    Sampler sampler(test_graph(), setup, mode.options);
    const RunResult run = sampler.run_tagged(seeds, tags, control);
    EXPECT_LT(run.sampled_edges(), ref.sampled_edges()) << mode.name;
  }
}

TEST(CancelDeterminism, MismatchedTokenVectorIsChecked) {
  const auto setup = biased_random_walk(4);
  const auto seeds = spread_seeds();
  const auto tags = spread_tags();

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
