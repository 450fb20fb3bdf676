#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gpusim/timeline.hpp"
#include "util/check.hpp"

namespace csaw::sim {
namespace {

/// Runs `chains` chains of one task each, charging `rounds` lock-step
/// rounds, and returns the one-slot pipelined kernel.
Device::PipelinedKernel uniform_kernel(Device& device, std::uint64_t chains,
                                       std::uint64_t rounds) {
  return device.execute_pipelined(
      1, chains,
      [rounds](std::uint64_t, ChainContext& ctx, std::uint32_t) {
        ctx.run_task(0, 0, [&](WarpContext& w) { w.charge_rounds(rounds); });
      },
      CancelToken{}, ChainWidth::kOneWarp)[0];
}

/// Every KernelStats field, in visit order.
std::vector<std::uint64_t> stats_fields(const KernelStats& stats) {
  std::vector<std::uint64_t> fields;
  visit_kernel_stats(stats, [&](const char*, std::uint64_t value) {
    fields.push_back(value);
  });
  return fields;
}

TEST(Device, RunPipelineExecutesEveryChain) {
  Device device;
  std::vector<std::uint64_t> runs(5, 0);  // one slot per chain
  device.run_pipeline(
      "touch", 5,
      [&](std::uint64_t c, ChainContext& ctx, std::uint32_t) {
        ctx.run_task(0, 0, [&](WarpContext& warp) {
          warp.charge_rounds(1);
          ++runs[c];
        });
      },
      CancelToken{}, ChainWidth::kOneWarp);
  EXPECT_EQ(runs, (std::vector<std::uint64_t>{1, 1, 1, 1, 1}));
  ASSERT_EQ(device.kernel_log().size(), 1u);
  EXPECT_EQ(device.kernel_log()[0].stats.warps, 5u);
  EXPECT_GT(device.synchronize(), 0.0);
}

TEST(Device, KernelsOnOneStreamSerialize) {
  Device device;
  const auto kernel = uniform_kernel(device, 10, 1000);
  const auto& first = device.record_pipelined("a", device.stream(0), 1.0,
                                               kernel);
  const double first_end = first.end;
  const auto& second = device.record_pipelined("b", device.stream(0), 1.0,
                                                kernel);
  EXPECT_GE(second.start, first_end);
}

TEST(Device, KernelsOnDifferentStreamsOverlap) {
  Device device;
  const auto kernel = uniform_kernel(device, 10, 1000);
  device.record_pipelined("a", device.stream(0), 0.5, kernel);
  const auto& b = device.record_pipelined("b", device.stream(1), 0.5, kernel);
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
      device.record_pipelined("k", s, 1.0, uniform_kernel(device, 1, 10));
  EXPECT_GE(k.start, copy_end);
}

TEST(Device, FractionSlowsKernel) {
  Device a, b;
  const auto& full = a.record_pipelined("k", a.stream(0), 1.0,
                                        uniform_kernel(a, 1000, 100000));
  const auto& quarter = b.record_pipelined("k", b.stream(0), 0.25,
                                           uniform_kernel(b, 1000, 100000));
  EXPECT_GT(quarter.duration(), full.duration() * 2.0);
}

TEST(Device, KernelDurationsFilterByPrefix) {
  Device device;
  const auto kernel = uniform_kernel(device, 1, 1);
  device.record_pipelined("sample_p0", device.stream(0), 1.0, kernel);
  device.record_pipelined("sample_p1", device.stream(0), 1.0, kernel);
  device.record_pipelined("other", device.stream(0), 1.0, kernel);
  EXPECT_EQ(device.kernel_durations("sample_").size(), 2u);
  EXPECT_EQ(device.kernel_durations("other").size(), 1u);
  EXPECT_EQ(device.kernel_durations("zzz").size(), 0u);
}

TEST(Device, TotalStatsAggregates) {
  Device device;
  device.record_pipelined("a", device.stream(0), 1.0,
                          uniform_kernel(device, 2, 7));
  device.record_pipelined("b", device.stream(0), 1.0,
                          uniform_kernel(device, 3, 7));
  const KernelStats total = device.total_stats();
  EXPECT_EQ(total.warps, 5u);
  EXPECT_EQ(total.lockstep_rounds, 5u * 7u);
}

TEST(Device, ResetRewindsClocksAndLogs) {
  Device device;
  device.record_pipelined("a", device.stream(0), 1.0,
                          uniform_kernel(device, 4, 100));
  device.transfer().host_to_device(device.stream(0), 1024, "x");
  EXPECT_GT(device.synchronize(), 0.0);
  device.reset();
  EXPECT_EQ(device.synchronize(), 0.0);
  EXPECT_TRUE(device.kernel_log().empty());
  EXPECT_EQ(device.transfer().count(), 0u);
}

TEST(Device, KernelWithNoTaskTakesNoTime) {
  // No chain, or chains that run no task: the record is kept, and lasts
  // zero seconds. A wave execution returns no wave for a group no chain
  // charged.
  Device device;
  device.run_pipeline("no_chain", 0,
                      [](std::uint64_t, ChainContext&, std::uint32_t) {},
                      CancelToken{}, ChainWidth::kOneWarp);
  device.run_pipeline("no_task", 4,
                      [](std::uint64_t, ChainContext&, std::uint32_t) {},
                      CancelToken{}, ChainWidth::kOneWarp);
  ASSERT_EQ(device.kernel_log().size(), 2u);
  for (const KernelRecord& record : device.kernel_log()) {
    EXPECT_EQ(record.stats.warps, 0u) << record.name;
    EXPECT_EQ(record.duration(), 0.0) << record.name;
  }
  EXPECT_EQ(device.synchronize(), 0.0);
  EXPECT_TRUE(device
                  .execute_waves(1, 4,
                                 [](std::uint64_t, ChainContext&,
                                    std::uint32_t) {},
                                 CancelToken{})
                  .empty());
}

TEST(Device, ChainExceptionsPropagate) {
  // A throwing chain body fails the whole execution, serially and on the
  // pool, and the device stays usable.
  for (const std::uint32_t threads : {1u, 4u}) {
    Device device;
    device.set_num_threads(threads);
    const Device::ChainBody body = [](std::uint64_t c, ChainContext& ctx,
                                      std::uint32_t) {
      ctx.run_task(0, 0, [&](WarpContext& w) {
        w.charge_rounds(1);
        if (c == 5) throw std::runtime_error("chain 5");
      });
    };
    EXPECT_THROW(device.run_pipeline("k", 16, body, CancelToken{},
                                     ChainWidth::kOneWarp),
                 std::runtime_error)
        << "threads " << threads;
    EXPECT_THROW(device.execute_waves(1, 16, body, CancelToken{}),
                 std::runtime_error)
        << "threads " << threads;
    EXPECT_TRUE(device.kernel_log().empty());
    device.record_pipelined("after", device.stream(0), 1.0,
                            uniform_kernel(device, 16, 1));
    EXPECT_EQ(device.kernel_log().size(), 1u);
  }
}

TEST(Device, ParallelChainsMatchSerialRecords) {
  // The same chains on a serial and a 7-thread device: identical stats
  // and simulated durations, pipelined and as waves — the executor is
  // invisible in the log.
  const Device::ChainBody body = [](std::uint64_t c, ChainContext& ctx,
                                    std::uint32_t) {
    for (std::uint64_t g = 0; g < 3; ++g) {
      for (std::uint64_t t = 0; t < 1 + (c + g) % 4; ++t) {
        ctx.run_task(0, g, [&](WarpContext& w) {
          w.charge_rounds(1 + (c * 3 + t) % 13);
          w.charge_global(64 * ((c + t) % 5));
        });
      }
    }
  };
  const auto records = [&](std::uint32_t threads) {
    Device device;
    device.set_num_threads(threads);
    EXPECT_EQ(device.max_workers(), threads);
    device.run_pipeline("k", 500, body, CancelToken{}, ChainWidth::kOneWarp);
    for (const Device::Wave& wave :
         device.execute_waves(1, 500, body, CancelToken{})) {
      device.record_pipelined("w", device.stream(0), 1.0, wave.tasks);
    }
    return device.kernel_log();
  };
  const std::vector<KernelRecord> serial = records(1);
  const std::vector<KernelRecord> parallel = records(7);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(stats_fields(parallel[k].stats), stats_fields(serial[k].stats))
        << "kernel " << k;
    EXPECT_EQ(parallel[k].start, serial[k].start) << "kernel " << k;
    EXPECT_EQ(parallel[k].end, serial[k].end) << "kernel " << k;
  }
}

TEST(Device, WavesRecordStepBarrierKernels) {
  // execute_waves shapes each (kernel slot, group) as one step-barrier
  // kernel over its tasks in chain order: five chains of uneven tasks
  // over two slots and three groups, the odd chains visiting a group's
  // slots in reverse, at 1 and 4 threads. Every stats field and the
  // duration equal the record of a per-task launch of the same tasks,
  // captured when the device still had one.
  struct Want {
    std::vector<std::uint64_t> stats;
    double duration;
  };
  // clang-format off
  const Want want[3][2] = {
      {{{28, 32, 0, 0, 4, 9, 36, 0, 0, 0, 0}, 0x1.caa355904bf7p-14},
       {{46, 48, 0, 0, 6, 12, 72, 0, 0, 0, 0}, 0x1.9a02275695ae6p-14}},
      {{{25, 48, 0, 0, 6, 7, 42, 0, 0, 0, 0}, 0x1.efd1c52c6c22dp-15},
       {{42, 40, 0, 0, 5, 11, 55, 0, 0, 0, 0}, 0x1.c0e97f84c11bap-14}},
      {{{41, 40, 0, 0, 5, 12, 60, 0, 0, 0, 0}, 0x1.e7d0d7b2ec89p-14},
       {{36, 32, 0, 0, 4, 11, 44, 0, 0, 0, 0}, 0x1.15f2d901dc442p-13}},
  };
  // clang-format on
  const auto tasks_of = [](std::uint64_t c, std::uint32_t k,
                           std::uint64_t g) { return (c + g + k) % 3; };
  const auto rounds_of = [](std::uint64_t c, std::uint32_t k,
                            std::uint64_t g, std::uint64_t t) {
    return 1 + (c * 7 + k * 3 + g * 5 + t) % 11;
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
    ASSERT_EQ(waves.size(), 6u);
    std::size_t w = 0;
    for (std::uint64_t g = 0; g < 3; ++g) {
      for (std::uint32_t k = 0; k < 2; ++k, ++w) {
        std::uint64_t tasks = 0;
        for (std::uint64_t c = 0; c < 5; ++c) tasks += tasks_of(c, k, g);
        EXPECT_EQ(waves[w].group, g);
        EXPECT_EQ(waves[w].kernel, k);
        EXPECT_EQ(waves[w].tasks.num_tasks, tasks);
        Device idle;
        const KernelRecord& got =
            idle.record_pipelined("k", idle.stream(0), 1.0, waves[w].tasks);
        EXPECT_EQ(stats_fields(got.stats), want[g][k].stats)
            << "group " << g << ", slot " << k << ", threads " << threads;
        EXPECT_EQ(got.duration(), want[g][k].duration)
            << "group " << g << ", slot " << k << ", threads " << threads;
      }
    }
  }
}

TEST(Device, ParallelWorkerIdsIndexDisjointScratch) {
  // Regression for the shared-scratch aliasing hazard: each chain's tasks
  // stamp their worker's scratch slot, recompute, and verify no other
  // chain observed or clobbered it mid-flight. With one shared scratch
  // this interleaving corrupts the staged values.
  Device device;
  device.set_num_threads(7);
  std::vector<std::vector<std::uint64_t>> scratch(device.max_workers());

  constexpr std::uint64_t kChains = 500;
  constexpr std::uint64_t kTasksPerChain = 4;
  std::vector<std::uint64_t> sums(kChains, 0);
  device.run_pipeline(
      "scratch_isolation", kChains,
      [&](std::uint64_t c, ChainContext& ctx, std::uint32_t worker) {
        for (std::uint64_t t = 0; t < kTasksPerChain; ++t) {
          ctx.run_task(0, t, [&](WarpContext& warp) {
            auto& mine = scratch[worker];
            mine.assign(16 + c % 7, c + 1);  // a chain-unique stamp
            warp.charge_rounds(1);
            for (const std::uint64_t v : mine) {
              ASSERT_EQ(v, c + 1)
                  << "chain " << c << " observed foreign scratch";
              sums[c] += v;
            }
          });
        }
      },
      CancelToken{}, ChainWidth::kOneWarp);
  for (std::uint64_t c = 0; c < kChains; ++c) {
    EXPECT_EQ(sums[c], kTasksPerChain * (16 + c % 7) * (c + 1));
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
  const auto kernel = uniform_kernel(device, 10, 1000);
  device.record_pipelined("a", device.stream(0), 1.0, kernel);
  EXPECT_NO_THROW(check_timeline(device));
  device.stream(0).reset();  // forget that stream 0 is busy
  device.record_pipelined("b", device.stream(0), 1.0, kernel);
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
