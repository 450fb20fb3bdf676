#include "gpusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <utility>

#include "util/check.hpp"

namespace csaw::sim {

Device::Device(std::uint32_t id, DeviceParams params)
    : id_(id), cost_(params), transfer_(cost_) {
  streams_.emplace_back(0);
}

Stream& Device::stream(std::size_t i) {
  while (streams_.size() <= i) {
    streams_.emplace_back(static_cast<int>(streams_.size()));
  }
  return streams_[i];
}

void Device::set_num_threads(std::uint32_t num_threads) {
  if (shared_pool_ != nullptr) return;  // the attached executor wins
  const std::uint32_t width = resolve_num_threads(num_threads);
  if (width <= 1) {
    owned_pool_.reset();
    return;
  }
  if (owned_pool_ != nullptr && owned_pool_->num_threads() == width) return;
  owned_pool_ = std::make_unique<ThreadPool>(width);
}

void Device::set_executor(std::shared_ptr<ThreadPool> pool) {
  shared_pool_ = std::move(pool);
}

std::uint32_t Device::max_workers() const noexcept {
  // The pool's identity bound, not its thread count: concurrent external
  // drivers (the service tier's batch runners) hold identities past the
  // spawned workers', and per-worker scratch must cover them.
  const ThreadPool* pool = executor();
  return pool == nullptr ? 1u : pool->max_workers();
}

namespace {

/// Intra-block imbalance of a step-barrier wave: its tasks pack in
/// order into blocks of kWarpsPerBlock warp slots, and a block's slots
/// are occupied until its longest warp retires.
std::uint64_t block_occupancy(std::span<const std::uint64_t> rounds) {
  std::uint64_t occupied = 0;
  for (std::size_t base = 0; base < rounds.size(); base += kWarpsPerBlock) {
    const std::uint64_t width =
        std::min<std::uint64_t>(kWarpsPerBlock, rounds.size() - base);
    std::uint64_t longest = 0;
    for (std::uint64_t w = 0; w < width; ++w) {
      longest = std::max(longest, rounds[base + w]);
    }
    occupied += width * longest;
  }
  return occupied;
}

}  // namespace

void ChainContext::Slot::close_group() noexcept {
  span_rounds += open_longest;
  width = std::max(width, open_count);
  open_longest = 0;
  open_count = 0;
}

ChainContext::Slot& ChainContext::begin_task(std::uint32_t kernel,
                                             std::uint64_t group) {
  CSAW_CHECK_MSG(kernel < slots_.size(),
                 "chain task charged to kernel slot " << kernel << " of "
                                                      << slots_.size());
  Slot& slot = slots_[kernel];
  if (slot.open_count > 0 && group != slot.open_group) slot.close_group();
  slot.open_group = group;
  return slot;
}

ChainContext::WaveTasks& ChainContext::begin_wave(std::uint32_t kernel,
                                                  std::uint64_t group) {
  CSAW_CHECK_MSG(kernel < slots_.size(),
                 "chain task charged to kernel slot " << kernel << " of "
                                                      << slots_.size());
  if (waves_.empty() || waves_.back().kernel != kernel ||
      waves_.back().group != group) {
    WaveTasks& wave = waves_.emplace_back();
    wave.kernel = kernel;
    wave.group = group;
  }
  return waves_.back();
}

void Device::run_chains(std::vector<ChainContext>& chains,
                        const ChainBody& body, const CancelToken& cancel) {
  ThreadPool* pool = executor();
  // Run-level cancellation: skip chains that have not started yet. An
  // unarmed token short-circuits on a null pointer check, so the common
  // path pays nothing.
  const auto run_chain = [&](std::uint64_t c, std::uint32_t worker) {
    if (cancel.valid() && cancel.cancelled()) return;
    body(c, chains[c], worker);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chains.size() <= 1) {
    const std::uint32_t worker = pool == nullptr ? 0 : pool->current_worker();
    for (std::uint64_t c = 0; c < chains.size(); ++c) run_chain(c, worker);
  } else {
    pool->parallel_chains(
        chains.size(), [&](std::size_t c, std::uint32_t worker) {
          run_chain(c, worker);
        });
  }
}

std::vector<Device::PipelinedKernel> Device::execute_pipelined(
    std::uint32_t num_kernels, std::uint64_t num_chains,
    const ChainBody& body, CancelToken cancel, ChainWidth widths) {
  std::vector<ChainContext> chains;
  chains.reserve(num_chains);
  if (widths == ChainWidth::kCooperative) {
    for (const std::uint32_t width : cost_.cooperative_widths(num_chains)) {
      chains.emplace_back(num_kernels, width);
    }
  } else {
    chains.resize(num_chains, ChainContext(num_kernels));
  }
  run_chains(chains, body, cancel);

  // Deterministic aggregation in chain order — the host schedule is
  // invisible.
  std::vector<PipelinedKernel> kernels(num_kernels);
  for (std::uint32_t k = 0; k < num_kernels; ++k) {
    PipelinedKernel& out = kernels[k];
    PersistentKernelShape shape;
    for (std::uint64_t c = 0; c < num_chains; ++c) {
      ChainContext::Slot& slot = chains[c].slots_[k];
      if (slot.tasks == 0) continue;
      slot.close_group();
      out.stats.merge(slot.stats);
      out.num_tasks += slot.tasks;
      const std::uint32_t width = chains[c].width_;
      shape.add_chain(slot.span_rounds, slot.width * width, width);
    }
    shape.apply(out.stats);
  }
  return kernels;
}

std::vector<Device::Wave> Device::execute_waves(std::uint32_t num_kernels,
                                                std::uint64_t num_chains,
                                                const ChainBody& body,
                                                CancelToken cancel) {
  std::vector<ChainContext> chains(
      num_chains, ChainContext(num_kernels, /*width=*/1, /*waves=*/true));
  run_chains(chains, body, cancel);

  // A wave's tasks in chain order, then in each chain's task order; the
  // host schedule stays invisible.
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::pair<KernelStats, std::vector<std::uint64_t>>>
      merged;
  for (const ChainContext& chain : chains) {
    for (const ChainContext::WaveTasks& share : chain.waves_) {
      auto& [stats, rounds] = merged[{share.group, share.kernel}];
      stats.merge(share.stats);
      rounds.insert(rounds.end(), share.rounds.begin(), share.rounds.end());
    }
  }
  std::vector<Wave> waves;
  waves.reserve(merged.size());
  for (auto& [key, wave] : merged) {
    auto& [stats, rounds] = wave;
    stats.occupied_slot_rounds = block_occupancy(rounds);
    waves.push_back(Wave{key.second, key.first, {stats, rounds.size()}});
  }
  return waves;
}

void PersistentKernelShape::add_chain(std::uint64_t span_rounds,
                                      std::uint64_t warps,
                                      std::uint64_t slots) noexcept {
  peak_warps_ += warps;
  longest_ = std::max(longest_, span_rounds);
  if (block_slots_ + slots > kWarpsPerBlock) {
    occupied_ += block_slots_ * block_longest_;
    block_slots_ = 0;
    block_longest_ = 0;
  }
  block_slots_ += slots;
  block_longest_ = std::max(block_longest_, span_rounds);
}

void PersistentKernelShape::apply(KernelStats& stats) const noexcept {
  stats.warps = peak_warps_;
  stats.max_warp_rounds = longest_;
  stats.occupied_slot_rounds = occupied_ + block_slots_ * block_longest_;
}

const KernelRecord& Device::record_pipelined(std::string name, Stream& stream,
                                             double resource_fraction,
                                             const PipelinedKernel& kernel) {
  const double duration =
      kernel.num_tasks == 0
          ? 0.0
          : cost_.kernel_seconds(kernel.stats, resource_fraction);
  const double start = stream.ready_time();
  stream.push(start, duration);
  kernel_log_.push_back(KernelRecord{std::move(name), stream.id(), start,
                                     start + duration, resource_fraction,
                                     kernel.stats});
  return kernel_log_.back();
}

void Device::prune_ledger(double horizon) {
  ledger_horizon_ = std::max(ledger_horizon_, horizon);
  std::erase_if(sm_live_, [this](const SmSegment& seg) {
    return seg.end <= ledger_horizon_;
  });
}

namespace {

/// Water-fills `free` SMs over the windows `active`: grant[i] =
/// min(cap[i], lambda * weight[i]), summing to min(free, the caps' sum).
void water_fill(std::vector<std::size_t> active, double free,
                std::span<const double> cap, std::span<const double> weight,
                std::vector<double>& grant) {
  // The windows a proportional share would over-serve come first; once one
  // takes its share uncapped, every later one does too.
  std::sort(active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
    return cap[a] * weight[b] < cap[b] * weight[a];
  });
  double total_weight = 0.0;
  for (const std::size_t i : active) total_weight += weight[i];
  for (const std::size_t i : active) {
    const double share =
        total_weight > 0.0 ? free * weight[i] / total_weight : 0.0;
    grant[i] = std::min(cap[i], share);
    free = std::max(0.0, free - grant[i]);
    total_weight -= weight[i];
  }
}

}  // namespace

std::span<const KernelRecord> Device::record_round(
    std::span<const RoundWindow> windows) {
  const std::size_t n = windows.size();
  std::vector<double> open(n), cap(n), weight(n), end(n), progress(n, 0.0),
      held(n, 0.0), grant(n, 0.0);
  std::vector<std::size_t> streams;
  std::size_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RoundWindow& w = windows[i];
    CSAW_CHECK_MSG(std::find(streams.begin(), streams.end(), w.stream) ==
                       streams.end(),
                   "two windows of one round on stream " << w.stream);
    streams.push_back(w.stream);
    open[i] = std::max(w.ready, stream(w.stream).ready_time());
    CSAW_CHECK_MSG(open[i] >= ledger_horizon_,
                   w.name << " opens at " << open[i]
                          << ", before the pruned ledger horizon "
                          << ledger_horizon_);
    cap[i] = cost_.occupiable_fraction(w.kernel.stats.warps);
    const bool runs = w.weight > 0.0 && w.kernel.stats.warps > 0;
    weight[i] = runs ? w.weight : 0.0;
    end[i] = runs ? -1.0 : open[i];
    if (runs) ++running;
  }

  const std::size_t first_kernel = kernel_log_.size();
  std::vector<SmSegment> placed;
  std::vector<std::size_t> last_segment(n, ~std::size_t{0});
  double t = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (end[i] < 0.0) t = std::min(t, open[i]);
  }
  while (running > 0) {
    // SMs earlier rounds hold over [t, next_change).
    double held_by_earlier = 0.0;
    double next = std::numeric_limits<double>::infinity();
    for (const SmSegment& seg : sm_live_) {
      if (seg.start <= t && t < seg.end) {
        held_by_earlier += seg.grant;
        next = std::min(next, seg.end);
      } else if (seg.start > t) {
        next = std::min(next, seg.start);
      }
    }
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < n; ++i) {
      if (end[i] >= 0.0) continue;
      if (open[i] <= t) {
        active.push_back(i);
      } else {
        next = std::min(next, open[i]);
      }
    }
    std::fill(grant.begin(), grant.end(), 0.0);
    water_fill(active, std::max(0.0, 1.0 - held_by_earlier), cap, weight,
               grant);
    std::vector<double> seconds(n, 0.0);
    for (const std::size_t i : active) {
      if (grant[i] <= 0.0) continue;
      seconds[i] = cost_.kernel_seconds(windows[i].kernel.stats, grant[i]);
      next = std::min(next, t + (1.0 - progress[i]) * seconds[i]);
    }
    CSAW_CHECK_MSG(next > t && next < std::numeric_limits<double>::infinity(),
                   "SM ledger made no progress at t=" << t);
    for (const std::size_t i : active) {
      if (grant[i] <= 0.0) continue;
      const double finish = t + (1.0 - progress[i]) * seconds[i];
      if (finish <= next) {
        end[i] = finish;
        --running;
      } else {
        progress[i] += (next - t) / seconds[i];
        // What is left is below the clock's resolution at `next`.
        if (next + (1.0 - progress[i]) * seconds[i] <= next) {
          end[i] = next;
          --running;
        }
      }
      held[i] += grant[i] * (next - t);
      if (last_segment[i] != ~std::size_t{0} &&
          placed[last_segment[i]].grant == grant[i] &&
          placed[last_segment[i]].end == t) {
        placed[last_segment[i]].end = next;
      } else {
        last_segment[i] = placed.size();
        placed.push_back(SmSegment{first_kernel + i, t, next, grant[i]});
      }
    }
    t = next;
  }

  for (std::size_t i = 0; i < n; ++i) {
    const RoundWindow& w = windows[i];
    const double span = end[i] - open[i];
    stream(w.stream).push(open[i], span);
    KernelRecord record{w.name, static_cast<int>(w.stream), open[i], end[i],
                        span > 0.0 ? held[i] / span : cap[i],
                        w.kernel.stats};
    record.ready = w.ready;
    record.on_ledger = true;
    kernel_log_.push_back(std::move(record));
  }
  sm_log_.insert(sm_log_.end(), placed.begin(), placed.end());
  sm_live_.insert(sm_live_.end(), placed.begin(), placed.end());
  return std::span<const KernelRecord>(kernel_log_).subspan(first_kernel);
}

double Device::transfer_kernel_overlap(std::size_t transfer_log_begin,
                                       std::size_t kernel_log_begin) const {
  // Union of kernel windows, merged over the run's log suffix.
  std::vector<std::pair<double, double>> busy;
  for (std::size_t k = kernel_log_begin; k < kernel_log_.size(); ++k) {
    if (kernel_log_[k].end > kernel_log_[k].start) {
      busy.emplace_back(kernel_log_[k].start, kernel_log_[k].end);
    }
  }
  std::sort(busy.begin(), busy.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& [s, e] : busy) {
    if (!merged.empty() && s <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e);
    } else {
      merged.emplace_back(s, e);
    }
  }

  const auto& transfers = transfer_.log();
  double overlap = 0.0;
  for (std::size_t t = transfer_log_begin; t < transfers.size(); ++t) {
    for (const auto& [s, e] : merged) {
      const double lo = std::max(transfers[t].start, s);
      const double hi = std::min(transfers[t].end, e);
      if (hi > lo) overlap += hi - lo;
    }
  }
  return overlap;
}

const KernelRecord& Device::run_pipeline(std::string name,
                                         std::uint64_t num_chains,
                                         const ChainBody& body,
                                         CancelToken cancel,
                                         ChainWidth widths) {
  const auto kernels =
      execute_pipelined(1, num_chains, body, std::move(cancel), widths);
  return record_pipelined(std::move(name), stream(0), 1.0, kernels[0]);
}

double Device::synchronize() const noexcept {
  double t = 0.0;
  for (const auto& s : streams_) t = std::max(t, s.ready_time());
  return t;
}

std::vector<double> Device::kernel_durations(std::string_view prefix) const {
  std::vector<double> result;
  for (const auto& record : kernel_log_) {
    if (record.name.starts_with(prefix)) result.push_back(record.duration());
  }
  return result;
}

KernelStats Device::total_stats() const {
  KernelStats total;
  for (const auto& record : kernel_log_) total.merge(record.stats);
  return total;
}

namespace {
std::atomic<DeviceAudit> device_audit{nullptr};
}  // namespace

void set_device_audit(DeviceAudit audit) noexcept { device_audit = audit; }

Device::~Device() {
  if (const DeviceAudit audit = device_audit.load()) audit(*this);
}

void Device::reset() {
  if (const DeviceAudit audit = device_audit.load()) audit(*this);
  kernel_log_.clear();
  sm_log_.clear();
  sm_live_.clear();
  ledger_horizon_ = 0.0;
  transfer_.reset();
  for (auto& s : streams_) s.reset();
}

}  // namespace csaw::sim
