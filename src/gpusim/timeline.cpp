#include "gpusim/timeline.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace csaw::sim {
namespace {

/// Slack for sums and differences of simulated seconds and SM shares.
constexpr double kEps = 1e-9;

/// Checks that the [start, end) intervals never overlap.
void check_disjoint(std::vector<std::pair<double, double>> spans,
                    const char* what) {
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    CSAW_CHECK_MSG(spans[i].first >= spans[i - 1].second - kEps,
                   what << ": [" << spans[i].first << ", " << spans[i].second
                        << ") overlaps [" << spans[i - 1].first << ", "
                        << spans[i - 1].second << ")");
  }
}

}  // namespace

double check_timeline(const Device& device) {
  const auto& kernels = device.kernel_log();

  for (const KernelRecord& k : kernels) {
    CSAW_CHECK_MSG(!k.on_ledger || k.start >= k.ready - kEps,
                   k.name << " opens at " << k.start
                          << " before its bytes land at " << k.ready);
  }

  // SM use: +grant at each start, -grant at each end; ends first at a tie.
  std::vector<std::pair<double, double>> steps;
  for (const SmSegment& seg : device.sm_ledger()) {
    steps.emplace_back(seg.start, seg.grant);
    steps.emplace_back(seg.end, -seg.grant);
  }
  std::sort(steps.begin(), steps.end());
  double use = 0.0;
  double peak = 0.0;
  for (const auto& [t, delta] : steps) {
    use += delta;
    peak = std::max(peak, use);
    CSAW_CHECK_MSG(use <= 1.0 + kEps,
                   "ledger windows hold " << use << " of the SMs at t=" << t);
  }

  std::map<int, std::vector<std::pair<double, double>>> per_stream;
  for (const KernelRecord& k : kernels) {
    if (k.end > k.start) per_stream[k.stream_id].emplace_back(k.start, k.end);
  }
  std::vector<std::pair<double, double>> link;
  for (const TransferRecord& t : device.transfer().log()) {
    per_stream[t.stream_id].emplace_back(t.start, t.end);
    link.emplace_back(t.start, t.end);
  }
  for (auto& [stream, spans] : per_stream) {
    check_disjoint(std::move(spans),
                   ("stream " + std::to_string(stream)).c_str());
  }
  check_disjoint(std::move(link), "host link");
  return peak;
}

}  // namespace csaw::sim
