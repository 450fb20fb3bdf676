#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "csaw_io_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / name).string();
    cleanup_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::filesystem::remove(p);
  }
  std::vector<std::string> cleanup_;
};

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/nope.txt"), CheckError);
}

TEST_F(IoTest, EdgeListRoundTrip) {
  const CsrGraph g = build_csr({{0, 1}, {1, 2}, {2, 3}});
  const auto path = temp_path("edges.txt");
  {
    // Every directed CSR edge on its own line, both directions included.
    std::ofstream os(path);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId u : g.neighbors(v)) os << v << ' ' << u << '\n';
    }
  }
  const CsrGraph back = load_edge_list(path, false, /*symmetrize=*/false);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(back.neighbors(v), g.neighbors(v)));
  }
}

TEST_F(IoTest, EdgeListSkipsCommentsAndParsesWeights) {
  const auto path = temp_path("snap.txt");
  std::ofstream(path) << "# SNAP-style comment\n"
                      << "% KONECT-style comment\n"
                      << "0 1 2.5\n"
                      << "1 2\n";
  const CsrGraph g = load_edge_list(path, /*weighted=*/true,
                                    /*symmetrize=*/false);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FLOAT_EQ(g.edge_weight(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(g.edge_weight(1, 0), 1.0f);  // missing weight defaults
}

}  // namespace
}  // namespace csaw
