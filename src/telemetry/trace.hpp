#pragma once

// Per-request trace recorder: collects span begin/end and instant events
// from the service, engines and the partition cache, and exports them as
// Chrome trace-event JSON (the legacy format Perfetto's UI imports).
//
// Threading model: events are appended under one mutex from every thread
// (client threads at admission, dispatcher, batch runners, engine pool
// workers). Each event also carries an atomic global sequence number taken
// inside the same critical section, so tests can assert nesting by
// sequence containment — host-clock timestamps on a 1-core box frequently
// tie at microsecond resolution.
//
// Gating contract: every instrumented hot-path site holds a
// `TraceRecorder*` that is null by default and performs exactly one branch
// when tracing is off (the `RunControl::may_cancel()` idiom, whose
// `should_trace()` tests this pointer). The recorder is only reached when
// a user attached one via `ServiceConfig::trace` (or directly on
// `RunControl::trace`).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace csaw::telemetry {

enum class TracePhase : char {
  kBegin = 'b',    // async span begin
  kEnd = 'e',      // async span end
  kInstant = 'i',  // point event
};

struct TraceEvent {
  std::string name;
  TracePhase phase = TracePhase::kInstant;
  std::uint64_t id = 0;      // span id; 0 for instants
  std::int64_t ts_us = 0;    // host time since recorder epoch, microseconds
  std::uint64_t seq = 0;     // global order; nesting is asserted on this
  std::uint64_t tid = 0;     // recording thread (stable small index)
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Starts an async span and returns its id (ids are process-unique per
  // recorder and never 0).
  std::uint64_t begin_span(const std::string& name, Args args = {});
  void end_span(std::uint64_t id, const std::string& name, Args args = {});
  void instant(const std::string& name, Args args = {});

  // Structured view for tests and tools; events in append (seq) order.
  std::vector<TraceEvent> snapshot() const;

  std::size_t event_count() const;

  // Chrome trace-event JSON: an object with a "traceEvents" array of
  // async b/e pairs and instants, plus process/thread metadata. Loadable
  // at https://ui.perfetto.dev via the legacy JSON importer.
  std::string json() const;

 private:
  void append(TraceEvent event);
  std::uint64_t thread_index();

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_seq_{0};
  std::int64_t epoch_us_ = 0;  // steady_clock at construction
};

}  // namespace csaw::telemetry
