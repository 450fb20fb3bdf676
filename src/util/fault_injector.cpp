#include "util/fault_injector.hpp"

#include "util/philox.hpp"

namespace csaw {

FaultInjector::FaultInjector() : config_(Config{}) {}

FaultInjector::FaultInjector(Config config) : config_(config) {}

void FaultInjector::fail_next(std::uint32_t key, std::uint32_t times) {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_[key].push_back(times);
}

void FaultInjector::fail_forever(std::uint32_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_.insert(key);
}

bool FaultInjector::failed_forever(std::uint32_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_.count(key) > 0;
}

FaultInjector::Outcome FaultInjector::next_attempt(std::uint32_t key,
                                                   std::uint32_t attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempts_;

  if (dead_.count(key) > 0) return Outcome::kFail;

  if (attempt == 0) {
    // New site: the previous site's leftovers (a terminal failure the
    // caller gave up on) are discarded.
    site_remaining_.erase(key);

    if (auto it = scripted_.find(key); it != scripted_.end()) {
      const std::uint32_t times = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) scripted_.erase(it);
      if (times > 0) site_remaining_[key] = times;
    } else if (config_.fail_rate > 0.0 || config_.slow_rate > 0.0) {
      const double r = Philox4x32::uniform(
          config_.seed, key, static_cast<std::uint32_t>(site_seq_),
          static_cast<std::uint32_t>(site_seq_ >> 32), 0xFA017u);
      ++site_seq_;
      if (r < config_.fail_rate) {
        site_remaining_[key] = config_.fail_times;
      } else if (r < config_.fail_rate + config_.slow_rate) {
        return Outcome::kSlow;
      }
    }
  }

  if (auto it = site_remaining_.find(key); it != site_remaining_.end()) {
    if (it->second > 0) {
      --it->second;
      return Outcome::kFail;
    }
    site_remaining_.erase(it);
  }
  return Outcome::kOk;
}

std::uint64_t FaultInjector::attempts_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

}  // namespace csaw
