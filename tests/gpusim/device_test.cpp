#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include "gpusim/timeline.hpp"
#include "util/check.hpp"

namespace csaw::sim {
namespace {

TEST(Device, RunKernelExecutesEveryTask) {
  Device device;
  std::vector<std::uint64_t> runs(5, 0);  // one slot per task
  device.run_kernel("touch", 5,
                    [&](std::uint64_t t, WarpContext& warp, std::uint32_t) {
                      warp.charge_rounds(1);
                      ++runs[t];
                    });
  EXPECT_EQ(runs, (std::vector<std::uint64_t>{1, 1, 1, 1, 1}));
  ASSERT_EQ(device.kernel_log().size(), 1u);
  EXPECT_EQ(device.kernel_log()[0].stats.warps, 5u);
  EXPECT_GT(device.synchronize(), 0.0);
}

TEST(Device, KernelsOnOneStreamSerialize) {
  Device device;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(1000);
  };
  const auto& first = device.run_kernel("a", 10, body);
  const double first_end = first.end;
  const auto& second = device.run_kernel("b", 10, body);
  EXPECT_GE(second.start, first_end);
}

TEST(Device, KernelsOnDifferentStreamsOverlap) {
  Device device;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(1000);
  };
  device.launch("a", device.stream(0), 0.5, 10, body);
  const auto& b = device.launch("b", device.stream(1), 0.5, 10, body);
  EXPECT_EQ(b.start, 0.0);  // stream 1 was idle
}

TEST(Device, TransfersShareTheLink) {
  Device device;
  auto& t = device.transfer();
  const double end0 = t.host_to_device(device.stream(0), 1 << 20, "p0");
  const double end1 = t.host_to_device(device.stream(1), 1 << 20, "p1");
  // Different streams, same link: the second copy starts after the first.
  EXPECT_GT(end1, end0);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_bytes(), 2u << 20);
}

TEST(Device, TransferThenKernelOrdersOnStream) {
  Device device;
  auto& s = device.stream(1);
  const double copy_end = device.transfer().host_to_device(s, 1 << 20, "p");
  const auto& k =
      device.launch("k", s, 1.0, 1,
                    [](std::uint64_t, WarpContext& w, std::uint32_t) {
                      w.charge_rounds(10);
                    });
  EXPECT_GE(k.start, copy_end);
}

TEST(Device, FractionSlowsKernel) {
  Device a, b;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(100000);
  };
  const auto& full = a.launch("k", a.stream(0), 1.0, 1000, body);
  const auto& quarter = b.launch("k", b.stream(0), 0.25, 1000, body);
  EXPECT_GT(quarter.duration(), full.duration() * 2.0);
}

TEST(Device, KernelDurationsFilterByPrefix) {
  Device device;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(1);
  };
  device.run_kernel("sample_p0", 1, body);
  device.run_kernel("sample_p1", 1, body);
  device.run_kernel("other", 1, body);
  EXPECT_EQ(device.kernel_durations("sample_").size(), 2u);
  EXPECT_EQ(device.kernel_durations("other").size(), 1u);
  EXPECT_EQ(device.kernel_durations("zzz").size(), 0u);
}

TEST(Device, TotalStatsAggregates) {
  Device device;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(7);
  };
  device.run_kernel("a", 2, body);
  device.run_kernel("b", 3, body);
  const KernelStats total = device.total_stats();
  EXPECT_EQ(total.warps, 5u);
  EXPECT_EQ(total.lockstep_rounds, 5u * 7u);
}

TEST(Device, ResetRewindsClocksAndLogs) {
  Device device;
  device.run_kernel("a", 4,
                    [](std::uint64_t, WarpContext& w, std::uint32_t) {
                      w.charge_rounds(100);
                    });
  device.transfer().host_to_device(device.stream(0), 1024, "x");
  EXPECT_GT(device.synchronize(), 0.0);
  device.reset();
  EXPECT_EQ(device.synchronize(), 0.0);
  EXPECT_TRUE(device.kernel_log().empty());
  EXPECT_EQ(device.transfer().count(), 0u);
}

TEST(Device, EmptyKernelTakesNoTime) {
  Device device;
  device.run_kernel("empty", 0,
                    [](std::uint64_t, WarpContext&, std::uint32_t) {});
  EXPECT_EQ(device.synchronize(), 0.0);
}

TEST(Device, ParallelLaunchMatchesSerialRecord) {
  // The same kernel on a serial and a 7-thread device: identical stats,
  // identical simulated duration — the executor is invisible in the log.
  auto body = [](std::uint64_t t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(1 + t % 13);
    w.charge_global(64 * (t % 5));
  };
  Device serial;
  serial.set_num_threads(1);
  const KernelRecord a = serial.run_kernel("k", 500, body);

  Device parallel;
  parallel.set_num_threads(7);
  EXPECT_EQ(parallel.max_workers(), 7u);
  const KernelRecord b = parallel.run_kernel("k", 500, body);

  EXPECT_EQ(a.stats.warps, b.stats.warps);
  EXPECT_EQ(a.stats.lockstep_rounds, b.stats.lockstep_rounds);
  EXPECT_EQ(a.stats.global_bytes, b.stats.global_bytes);
  EXPECT_EQ(a.stats.max_warp_rounds, b.stats.max_warp_rounds);
  EXPECT_EQ(a.stats.occupied_slot_rounds, b.stats.occupied_slot_rounds);
  EXPECT_EQ(a.duration(), b.duration());
}

TEST(Device, WavesRecordWhatLaunchRecordsOverTheSameTasks) {
  // execute_waves shapes each (kernel slot, group) as the step-barrier
  // kernel launch() records over the same tasks in chain order: five
  // chains of uneven tasks over two slots and three groups, the odd
  // chains visiting a group's slots in reverse, at 1 and 4 threads.
  const auto tasks_of = [](std::uint64_t c, std::uint32_t k,
                           std::uint64_t g) { return (c + g + k) % 3; };
  const auto rounds_of = [](std::uint64_t c, std::uint32_t k,
                            std::uint64_t g, std::uint64_t t) {
    return 1 + (c * 7 + k * 3 + g * 5 + t) % 11;
  };
  const auto stats_of = [](const KernelStats& stats) {
    std::vector<std::uint64_t> fields;
    visit_kernel_stats(stats, [&](const char*, std::uint64_t value) {
      fields.push_back(value);
    });
    return fields;
  };
  for (const std::uint32_t threads : {1u, 4u}) {
    Device device;
    device.set_num_threads(threads);
    const auto waves = device.execute_waves(
        2, 5,
        [&](std::uint64_t c, ChainContext& ctx, std::uint32_t) {
          for (std::uint64_t g = 0; g < 3; ++g) {
            for (std::uint32_t i = 0; i < 2; ++i) {
              const std::uint32_t k = c % 2 == 0 ? i : 1 - i;
              for (std::uint64_t t = 0; t < tasks_of(c, k, g); ++t) {
                ctx.run_task(k, g, [&](WarpContext& warp) {
                  warp.charge_rounds(rounds_of(c, k, g, t));
                  warp.charge_global(8);
                });
              }
            }
          }
        },
        CancelToken{});
    std::size_t w = 0;
    for (std::uint64_t g = 0; g < 3; ++g) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        std::vector<std::uint64_t> rounds;
        for (std::uint64_t c = 0; c < 5; ++c) {
          for (std::uint64_t t = 0; t < tasks_of(c, k, g); ++t) {
            rounds.push_back(rounds_of(c, k, g, t));
          }
        }
        Device reference;
        const KernelRecord want = reference.run_kernel(
            "k", rounds.size(),
            [&](std::uint64_t t, WarpContext& warp, std::uint32_t) {
              warp.charge_rounds(rounds[t]);
              warp.charge_global(8);
            });
        ASSERT_LT(w, waves.size());
        EXPECT_EQ(waves[w].group, g);
        EXPECT_EQ(waves[w].kernel, k);
        EXPECT_EQ(waves[w].tasks.num_tasks, rounds.size());
        Device idle;
        const KernelRecord& got =
            idle.record_pipelined("k", idle.stream(0), 1.0, waves[w].tasks);
        EXPECT_EQ(stats_of(got.stats), stats_of(want.stats))
            << "group " << g << ", slot " << k << ", threads " << threads;
        EXPECT_EQ(got.duration(), want.duration());
        ++w;
      }
    }
    EXPECT_EQ(w, waves.size());
  }
}

TEST(Device, ParallelWorkerIdsIndexDisjointScratch) {
  // Regression for the shared-scratch aliasing hazard: each task stamps
  // its worker's scratch slot, recomputes, and verifies no other task
  // observed or clobbered it mid-flight. With the old single shared
  // scratch member this interleaving corrupts the staged values.
  Device device;
  device.set_num_threads(7);
  std::vector<std::vector<std::uint64_t>> scratch(device.max_workers());

  constexpr std::uint64_t kTasks = 2000;
  std::vector<std::uint64_t> sums(kTasks, 0);
  device.run_kernel(
      "scratch_isolation", kTasks,
      [&](std::uint64_t t, WarpContext& warp, std::uint32_t worker) {
        auto& mine = scratch[worker];
        mine.assign(16 + t % 7, t + 1);  // stamp with a task-unique value
        warp.charge_rounds(1);
        std::uint64_t sum = 0;
        for (const std::uint64_t v : mine) {
          ASSERT_EQ(v, t + 1) << "task " << t << " observed foreign scratch";
          sum += v;
        }
        sums[t] = sum;
      });
  for (std::uint64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(sums[t], (16 + t % 7) * (t + 1));
  }
}

TEST(Device, AffinityGroupsRunInTaskOrder) {
  // Tasks in a contiguous run of equal affinity keys share mutable state;
  // the executor must serialize them in task index order.
  Device device;
  device.set_num_threads(7);
  constexpr std::uint64_t kGroups = 64;
  constexpr std::uint64_t kPerGroup = 10;
  std::vector<std::vector<std::uint64_t>> per_group(kGroups);
  device.run_kernel(
      "affinity", kGroups * kPerGroup,
      [&](std::uint64_t t, WarpContext& warp, std::uint32_t) {
        warp.charge_rounds(1 + t % 3);
        per_group[t / kPerGroup].push_back(t);
      },
      [](std::uint64_t t) { return t / kPerGroup; });
  for (std::uint64_t g = 0; g < kGroups; ++g) {
    ASSERT_EQ(per_group[g].size(), kPerGroup);
    for (std::uint64_t i = 0; i < kPerGroup; ++i) {
      EXPECT_EQ(per_group[g][i], g * kPerGroup + i) << "group " << g;
    }
  }
}

TEST(Device, SetNumThreadsZeroResolvesAuto) {
  Device device;
  device.set_num_threads(0);
  EXPECT_GE(device.max_workers(), 1u);
}

// --- The SM ledger (Device::record_round) and its checker.

/// A pipelined kernel of `warps` warps and `rounds` lock-step rounds.
Device::PipelinedKernel window_kernel(std::uint64_t warps,
                                      std::uint64_t rounds) {
  Device::PipelinedKernel k;
  k.stats.warps = warps;
  k.stats.lockstep_rounds = rounds;
  k.stats.occupied_slot_rounds = rounds;
  k.stats.max_warp_rounds = 1;
  k.num_tasks = warps;
  return k;
}

Device::RoundWindow window(std::size_t stream, double weight,
                           Device::PipelinedKernel kernel,
                           double ready = 0.0) {
  return Device::RoundWindow{"w" + std::to_string(stream), stream, ready,
                             weight, kernel};
}

TEST(Ledger, WindowAloneLastsKernelSecondsAtItsCap) {
  Device device;
  const auto kernel = window_kernel(16, 200000);  // 2 blocks
  const double cap = 2.0 / device.cost_model().params().sm_count;
  const auto records = device.record_round(
      std::vector<Device::RoundWindow>{window(0, 16, kernel, 1e-4)});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start, 1e-4);
  EXPECT_EQ(records[0].end,
            1e-4 + device.cost_model().kernel_seconds(kernel.stats, cap));
  EXPECT_DOUBLE_EQ(records[0].resource_fraction, cap);
  ASSERT_EQ(device.sm_ledger().size(), 1u);
  EXPECT_EQ(device.sm_ledger()[0].grant, cap);
  EXPECT_EQ(device.stream(0).ready_time(), records[0].end);
  EXPECT_EQ(check_timeline(device), cap);
}

TEST(Ledger, FreeSmsFollowTheWorkAndPassToTheWindowsStillRunning) {
  Device device;
  // Both could fill the device; the first processed three times the
  // entries, the second has more rounds per entry and outlasts it.
  const auto big = window_kernel(8000, 3000000);
  const auto small = window_kernel(8000, 2000000);
  const auto records = device.record_round(std::vector<Device::RoundWindow>{
      window(0, 3, big), window(1, 1, small)});
  ASSERT_EQ(records.size(), 2u);
  const auto& ledger = device.sm_ledger();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_DOUBLE_EQ(ledger[0].grant, 0.75);
  EXPECT_DOUBLE_EQ(ledger[1].grant, 0.25);
  // The survivor takes the SMs the first hands back.
  EXPECT_EQ(ledger[2].kernel, ledger[1].kernel);
  EXPECT_EQ(ledger[2].grant, 1.0);
  EXPECT_EQ(ledger[2].start, records[0].end);
  EXPECT_EQ(records[1].end, ledger[2].end);
  EXPECT_DOUBLE_EQ(records[0].resource_fraction, 0.75);
  EXPECT_GT(records[1].resource_fraction, 0.25);
  EXPECT_LT(records[1].resource_fraction, 1.0);
  EXPECT_DOUBLE_EQ(check_timeline(device), 1.0);
}

TEST(Ledger, LaterRoundsGetOnlyTheSmsEarlierRoundsLeave) {
  Device device;
  // Round 1 holds half the device (40 blocks) for a while.
  const auto first = device.record_round(std::vector<Device::RoundWindow>{
      window(0, 1, window_kernel(320, 4000000))});
  const double first_end = first[0].end;
  EXPECT_EQ(first[0].resource_fraction, 0.5);
  // Round 2 opens at once on another stream: half until round 1 ends,
  // then the whole device.
  const auto second = device.record_round(std::vector<Device::RoundWindow>{
      window(1, 1, window_kernel(8000, 40000000))});
  EXPECT_EQ(second[0].start, 0.0);
  const auto& ledger = device.sm_ledger();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger[1].grant, 0.5);
  EXPECT_EQ(ledger[1].end, first_end);
  EXPECT_EQ(ledger[2].grant, 1.0);
  EXPECT_DOUBLE_EQ(check_timeline(device), 1.0);
}

TEST(Ledger, ZeroWeightWindowTakesNoTimeAndNoSms) {
  Device device;
  device.transfer().host_to_device(device.stream(2), 1 << 20, "p");
  const double landed = device.stream(2).ready_time();
  const auto records = device.record_round(std::vector<Device::RoundWindow>{
      window(2, 0, Device::PipelinedKernel{})});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start, landed);
  EXPECT_EQ(records[0].end, landed);
  EXPECT_TRUE(device.sm_ledger().empty());
}

TEST(Ledger, RejectsSharedStreamsAndWindowsBeforeThePrunedHorizon) {
  Device device;
  const auto kernel = window_kernel(8, 1000);
  EXPECT_THROW(device.record_round(std::vector<Device::RoundWindow>{
                   window(0, 1, kernel), window(0, 1, kernel)}),
               CheckError);
  device.prune_ledger(1.0);
  EXPECT_THROW(device.record_round(
                   std::vector<Device::RoundWindow>{window(1, 1, kernel)}),
               CheckError);
}

TEST(Timeline, RejectsTwoOperationsOnOneStreamAtOnce) {
  Device device;
  auto body = [](std::uint64_t, WarpContext& w, std::uint32_t) {
    w.charge_rounds(1000);
  };
  device.launch("a", device.stream(0), 1.0, 10, body);
  EXPECT_NO_THROW(check_timeline(device));
  device.stream(0).reset();  // forget that stream 0 is busy
  device.launch("b", device.stream(0), 1.0, 10, body);
  EXPECT_THROW(check_timeline(device), CheckError);
}

std::size_t audits = 0;

TEST(Timeline, DeviceAuditSeesResetAndDroppedDevices) {
  set_device_audit([](const Device&) { ++audits; });
  {
    Device device;
    device.reset();
    EXPECT_EQ(audits, 1u);
  }
  EXPECT_EQ(audits, 2u);
  set_device_audit(nullptr);
  { Device device; }
  EXPECT_EQ(audits, 2u);
}

}  // namespace
}  // namespace csaw::sim
