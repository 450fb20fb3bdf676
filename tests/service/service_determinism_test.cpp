// The service's headline guarantee: a request's samples are byte-identical
// whether it ran alone or coalesced into any batch, on every engine
// backend and at any host thread count. Each instance draws from the
// Philox stream addressed by its request's rng_base — carried through
// the engines as an explicit per-instance tag — so neither batch
// composition, a concurrent batch on the shared pool, nor the executing
// schedule can reach the bytes. The buffered service paths of the matrix
// (tests/paths.hpp) are held to the in-memory oracle, which also proves
// the service adds nothing to the facade's own contract: solo, each run
// of adjacent tags is one request served alone; coalesced, the runs are
// cut into requests of 1, 2 and 3 instances, queued out of order into one
// batch beside a busy batch on another graph.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_matrix;
using testing::Front;
using testing::gapped_tags;
using testing::Path;
using testing::paths_where;
using testing::spread_seeds;

constexpr std::uint32_t kInstances = 10;

const CsrGraph& test_graph() {
  static const CsrGraph g = generate_rmat(1024, 8192, 93);
  return g;
}

std::vector<Path> buffered_service_paths() {
  return paths_where([](const Path& path) {
    return path.front == Front::kService && !path.streamed;
  });
}

TEST(ServiceDeterminism, OneRequestMatchesTheOracleSoloOrCoalesced) {
  // Adjacent tags from 64: solo, the whole run is one request.
  expect_matrix(buffered_service_paths(), test_graph(),
                {AlgorithmId::kBiasedRandomWalk, 8},
                spread_seeds(test_graph(), kInstances),
                gapped_tags(kInstances, 64, /*cycle=*/1));
}

TEST(ServiceDeterminism, GappedRequestsMatchTheOracle) {
  expect_matrix(buffered_service_paths(), test_graph(),
                {AlgorithmId::kBiasedRandomWalk, 8},
                spread_seeds(test_graph(), kInstances, 37),
                gapped_tags(kInstances));
}

TEST(ServiceDeterminism, NeighborSamplingMatchesTheOracle) {
  // Off the paged backends, branching requests keep the contract too.
  expect_matrix(buffered_service_paths(), test_graph(),
                {AlgorithmId::kBiasedNeighborSampling, 2, 3},
                spread_seeds(test_graph(), kInstances),
                gapped_tags(kInstances));
}

}  // namespace
}  // namespace csaw
