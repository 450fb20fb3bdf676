#pragma once

#include "gpusim/device.hpp"

namespace csaw::sim {

/// Checks that `device`'s simulated schedule could run on the hardware:
///   - at every instant the windows placed on the SM ledger
///     (Device::record_round) hold at most all SMs, at their piecewise
///     grants (Device::sm_ledger());
///   - each stream runs one operation (kernel or copy) at a time;
///   - the host link carries one copy at a time;
///   - no ledger window opens before its bytes land.
/// Launches off the ledger hold the share they are given, which the SM
/// check does not cover: the barrier waves charge each round's
/// block-balancing shares, and a round can start on a free stream while
/// the last one still runs.
/// Throws CheckError naming the first violation. Returns the most SMs the
/// ledger's windows held at one instant, as a fraction of the device.
double check_timeline(const Device& device);

}  // namespace csaw::sim
