#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace csaw::perfbench {
namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";  // set() failed the run
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::env(const std::string& key, const std::string& value) {
  for (auto& [k, v] : env_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  env_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  check_failures_.push_back(what);
}

std::string Report::table() const {
  std::ostringstream os;
  for (const auto& [k, v] : env_) os << "  env " << k << " = " << v << "\n";
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    os << "  " << m.name << " = " << buf << " " << m.unit << "\n";
  }
  os << "  attempted = " << attempted_ << ", failed = " << failed()
     << ", correct = " << (correct_ ? "true" : "false") << "\n";
  for (const std::string& f : check_failures_) os << "  CHECK FAILED: " << f << "\n";
  return os.str();
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed()
     << ", \"env\": {";
  for (std::size_t i = 0; i < env_.size(); ++i) {
    os << (i ? ", " : "") << quoted(env_[i].first) << ": "
       << quoted(env_[i].second);
  }
  os << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < check_failures_.size(); ++i) {
    os << (i ? ", " : "") << quoted(check_failures_[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics_[i].name) << ": {\"value\": "
       << number(metrics_[i].value)
       << ", \"unit\": " << quoted(metrics_[i].unit) << "}";
  }
  os << "}}\n";
  return os.str();
}

}  // namespace csaw::perfbench
