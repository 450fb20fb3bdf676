#pragma once

// Lock-cheap metrics registry: named counters, gauges and fixed-bucket
// histograms with a deterministic merge and exposition order.
//
// Design constraints (see docs/OBSERVABILITY.md):
//  - Observation paths are wait-free after registration: counters and
//    histogram buckets are relaxed atomics, so engine chains and service
//    runner threads can observe without contending on the registry lock.
//  - Registration (name + label lookup) takes a mutex, but callers are
//    expected to resolve instruments once and keep the reference; a
//    `std::map` keyed by (name, labels) keeps references stable forever.
//  - Exposition (`render()`) and `merge()` iterate the map in key order,
//    so output ordering is deterministic regardless of registration or
//    observation interleaving.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace csaw::telemetry {

// A monotonically increasing counter. Relaxed increments: exposition is a
// snapshot, not a linearization point.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// A settable gauge (last-write-wins double).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Plain-data snapshot of a histogram, used for merging across registries
// and for structured export (perfbench, tests).
struct HistogramSnapshot {
  std::vector<double> bounds;             // strictly increasing upper bounds
  std::vector<std::uint64_t> buckets;     // bounds.size() + 1 (last = +Inf)
  std::uint64_t count = 0;
  double sum = 0.0;
};

// Fixed-bucket histogram. Bounds are strictly increasing upper bounds; an
// implicit +Inf bucket catches the tail. An observation lands in the first
// bucket whose upper bound is >= the value (Prometheus `le` semantics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept;

  // Fold a snapshot into this histogram (bounds must match exactly).
  // Returns false (and folds nothing) on a bounds mismatch.
  bool merge(const HistogramSnapshot& other) noexcept;

  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const noexcept { return bounds_; }

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 buckets; the last one is +Inf.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Bucket presets used across the service (seconds-denominated latencies
// and small integer counts). Centralized so exposition, bench export and
// golden tests agree on boundaries.
std::vector<double> latency_seconds_bounds();
std::vector<double> small_count_bounds();

// Registry of named instruments. Keys are (metric name, label string);
// the label string is pre-formatted Prometheus label-body text such as
// `tenant="light"` (empty for unlabelled instruments). Instrument
// references remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds,
                       const std::string& labels = "");

  // Fold every instrument of `other` into this registry, creating missing
  // instruments as needed. Deterministic: iterates `other` in key order.
  void merge(const MetricsRegistry& other);

  // Prometheus text exposition. Families sorted by metric name; samples
  // within a family sorted by label string. Includes # HELP / # TYPE.
  std::string render() const;

  // Snapshot of one histogram by (name, labels); a default-constructed
  // (empty-bounds, zero-count) snapshot when it does not exist.
  HistogramSnapshot histogram_snapshot(const std::string& name,
                                       const std::string& labels = "") const;

 private:
  struct CounterEntry {
    std::string help;
    Counter value;
  };
  struct GaugeEntry {
    std::string help;
    Gauge value;
  };
  struct HistogramEntry {
    std::string help;
    Histogram value;
    HistogramEntry(std::string h, std::vector<double> bounds)
        : help(std::move(h)), value(std::move(bounds)) {}
  };

  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mu_;
  std::map<Key, CounterEntry> counters_;
  std::map<Key, GaugeEntry> gauges_;
  std::map<Key, HistogramEntry> histograms_;
};

}  // namespace csaw::telemetry
