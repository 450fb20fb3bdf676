#pragma once

// Including this header makes sim::check_timeline the device audit of the
// test binary: every simulated device a test builds, directly or inside a
// Sampler or a Service, has its timeline checked as it is dropped, and an
// infeasible one fails the running test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>

#include "gpusim/timeline.hpp"

namespace csaw::testing {

/// Devices audited so far in this binary.
inline std::atomic<std::uint64_t> audited_devices{0};

inline void audit_timeline(const sim::Device& device) {
  try {
    sim::check_timeline(device);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "infeasible simulated timeline: " << e.what();
  }
  ++audited_devices;
}

class TimelineAudit : public ::testing::Environment {
 public:
  void SetUp() override { sim::set_device_audit(&audit_timeline); }
  void TearDown() override { sim::set_device_audit(nullptr); }
};

inline ::testing::Environment* const timeline_audit =
    ::testing::AddGlobalTestEnvironment(new TimelineAudit);

}  // namespace csaw::testing
