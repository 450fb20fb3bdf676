#include "graph/io.hpp"

#include <fstream>
#include <sstream>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace csaw {

CsrGraph load_edge_list(const std::string& path, bool weighted,
                        bool symmetrize) {
  std::ifstream is(path);
  CSAW_CHECK_MSG(is.is_open(), "cannot open " << path);

  std::vector<Edge> edges;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    Edge e;
    if (!(ls >> e.src >> e.dst)) continue;
    if (weighted) {
      if (!(ls >> e.weight)) e.weight = 1.0f;
    }
    edges.push_back(e);
  }
  BuildOptions options;
  options.keep_weights = weighted;
  options.symmetrize = symmetrize;
  return build_csr(std::move(edges), 0, options);
}

}  // namespace csaw
