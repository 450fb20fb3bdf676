#pragma once

#include <string>

#include "graph/csr.hpp"

namespace csaw {

/// Loads a whitespace-separated edge list ("u v" or "u v weight" per line;
/// '#' and '%' start comment lines — the SNAP and KONECT conventions).
CsrGraph load_edge_list(const std::string& path, bool weighted = false,
                        bool symmetrize = true);

}  // namespace csaw
