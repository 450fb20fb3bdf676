#pragma once

// Result record of one benchmark run: named metrics with units, the
// recorded environment, and the attempted/failed/correct verdict. Written
// as one JSON object that perfbench/run.py turns into the final result
// line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csaw::perfbench {

class Report {
 public:
  /// Sets (or overwrites) one metric. A value that is not finite (a
  /// latency quantile that lands on failed requests) fails the run.
  void set(const std::string& name, double value, const std::string& unit);
  /// Records one environment field (compared by `report.py compare`).
  void env(const std::string& key, const std::string& value);
  void env(const std::string& key, std::uint64_t value) {
    env(key, std::to_string(value));
  }

  /// Counts one attempted request or chunk, once, after every check on
  /// it: `ok` false (refused, failed or wrong output) counts it failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records an output check; a false check fails the run. It counts no
  /// request: the caller passes the outcome of a checked request to
  /// attempt().
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  /// Refused, failed and wrong-output requests.
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return correct_; }

  /// Human-readable table of every metric, one per line.
  std::string table() const;
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace csaw::perfbench
