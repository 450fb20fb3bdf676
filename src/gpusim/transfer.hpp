#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/stream.hpp"

namespace csaw::sim {

/// Record of one host-to-device copy (the paper's cudaMemcpyAsync of a
/// graph partition).
struct TransferRecord {
  std::string label;
  std::uint64_t bytes = 0;
  int stream_id = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Models the host link shared by all streams of one device: copies on
/// different streams are asynchronous with respect to kernels but
/// serialize with each other on the link.
class TransferEngine {
 public:
  explicit TransferEngine(const CostModel& cost) : cost_(&cost) {}

  /// Enqueues a host-to-device copy on `stream`; returns completion time.
  ///
  /// `not_before` delays the copy's earliest start (simulated seconds) —
  /// the retry/backoff path places a re-issued partition copy after its
  /// backoff delay without holding the link in the meantime.
  /// `duration_scale` stretches the modeled copy time (>= 1; an injected
  /// slow-transfer fault). Defaults model the plain fault-free copy.
  double host_to_device(Stream& stream, std::uint64_t bytes,
                        std::string label = {}, double not_before = 0.0,
                        double duration_scale = 1.0);

  const std::vector<TransferRecord>& log() const noexcept { return log_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::size_t count() const noexcept { return log_.size(); }
  /// When the link finishes the copies issued so far; a later copy
  /// starts no earlier.
  double link_free() const noexcept { return link_free_; }

  void reset() noexcept {
    log_.clear();
    total_bytes_ = 0;
    link_free_ = 0.0;
  }

 private:
  const CostModel* cost_;
  std::vector<TransferRecord> log_;
  std::uint64_t total_bytes_ = 0;
  double link_free_ = 0.0;
};

}  // namespace csaw::sim
