#include "service/service.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "algorithms/registry.hpp"
#include "oom/cache/partition_cache.hpp"
#include "shard/router.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

/// Host-clock interval in seconds, for the latency histograms.
double elapsed_seconds(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Two requests may share one engine run when they provably run the same
/// kernels: same graph and same registry coordinates. (Execution options
/// are service-wide, so they never differ within one service. Tenancy is
/// deliberately absent: it decides when a batch launches, not what may
/// ride in it.)
bool compatible(const SampleRequest& a, const SampleRequest& b) {
  return a.graph == b.graph && a.algorithm == b.algorithm &&
         a.depth_or_length == b.depth_or_length &&
         a.neighbor_size == b.neighbor_size;
}

/// Whether [base, base+count) intersects any already-batched stream
/// range. Overlapping ranges would collide on Philox streams, so the
/// scheduler leaves the later request for a later batch.
bool overlaps(const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                  ranges,
              std::uint32_t base, std::uint32_t count) {
  for (const auto& [b, c] : ranges) {
    if (base < b + c && b < base + count) return true;
  }
  return false;
}

/// The outcome of a request whose token fired for `reason`; `otherwise`
/// when it never fired.
RequestOutcome cancel_outcome(CancelReason reason, RequestOutcome otherwise) {
  switch (reason) {
    case CancelReason::kNone:
      break;
    case CancelReason::kRequested:
      return RequestOutcome::kCancelled;
    case CancelReason::kDeadline:
      return RequestOutcome::kDeadlineExceeded;
  }
  return otherwise;
}

/// Books one retired request into `counters`, a ServiceStats or a
/// TenantStats: `completed` for kOk, else `failed` plus the outcome's
/// breakdown column.
template <typename Counters>
void count_outcome(Counters& counters, RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      ++counters.completed;
      return;
    case RequestOutcome::kCancelled:
      ++counters.cancelled;
      break;
    case RequestOutcome::kDeadlineExceeded:
      ++counters.deadline_exceeded;
      break;
    case RequestOutcome::kTransferFailed:
      ++counters.transfer_failed;
      break;
    case RequestOutcome::kShardFailed:
      ++counters.shard_failed;
      break;
    case RequestOutcome::kInternal:
      ++counters.internal_errors;
      break;
  }
  ++counters.failed;
}

}  // namespace

Service::Service(ServiceConfig config) : config_(std::move(config)) {
  CSAW_CHECK(config_.max_queue_depth >= 1);
  CSAW_CHECK(config_.max_request_instances >= 1);
  CSAW_CHECK(config_.max_batch_instances >= config_.max_request_instances);
  CSAW_CHECK(config_.max_concurrent_batches >= 1);
  CSAW_CHECK(config_.stream_chunk_budget >= 1);
  CSAW_CHECK(config_.shards >= 1);
  // Edge-denominated DRR credit: the auto value scales the old instance
  // quantum by a nominal 32 edges per instance (see ServiceConfig).
  quantum_ =
      config_.fairness_quantum > 0
          ? config_.fairness_quantum
          : std::uint64_t{std::max(1u, config_.max_request_instances / 4)} *
                32;
  // Always-on latency/occupancy distributions (docs/OBSERVABILITY.md).
  // Registered once here so the hot paths only touch pre-resolved
  // atomics, never the registry mutex.
  const auto latency = telemetry::latency_seconds_bounds();
  const auto counts = telemetry::small_count_bounds();
  h_queue_wait_ = &metrics_.histogram(
      "csaw_request_queue_wait_seconds",
      "Host seconds a request spent queued before batch formation",
      latency);
  h_batch_formation_ = &metrics_.histogram(
      "csaw_batch_formation_seconds",
      "Host seconds from a batch head's admission to its batch forming",
      latency);
  h_inflight_ = &metrics_.histogram(
      "csaw_request_inflight_seconds",
      "Host seconds from batch formation to the request's outcome",
      latency);
  h_inflight_sim_ = &metrics_.histogram(
      "csaw_request_inflight_sim_seconds",
      "Simulated makespan of the batch each request rode on", latency);
  h_batch_sim_ = &metrics_.histogram(
      "csaw_batch_sim_seconds", "Simulated makespan per executed batch",
      latency);
  h_transfer_retries_ = &metrics_.histogram(
      "csaw_batch_transfer_retries",
      "Partition-copy retries absorbed per completed paged batch", counts);
  h_stream_occupancy_ = &metrics_.histogram(
      "csaw_stream_chunk_occupancy",
      "Queued chunks right after each streamed-instance push", counts);
  const std::uint32_t width =
      sim::resolve_num_threads(config_.options.num_threads);
  if (width > 1) {
    // One external slot per batch runner: concurrent engine runs then
    // hold distinct worker identities and their per-batch scratch rows
    // never alias (ThreadPool's admission contract).
    pool_ = std::make_shared<sim::ThreadPool>(
        width, config_.max_concurrent_batches);
  }
  paused_ = config_.start_paused;
  runners_.reserve(config_.max_concurrent_batches);
  for (std::uint32_t r = 0; r < config_.max_concurrent_batches; ++r) {
    runners_.emplace_back([this] { runner_main(); });
  }
  dispatcher_ = std::thread([this] {
    dispatcher_main();
    {
      std::lock_guard<std::mutex> lock(mu_);
      dispatcher_done_ = true;
    }
    batch_cv_.notify_all();  // runners may now exit once ready_ drains
  });
}

Service::~Service() { shutdown(); }

void Service::add_graph(std::string name,
                        std::shared_ptr<const CsrGraph> graph) {
  CSAW_CHECK(graph != nullptr);
  GraphEntry entry;
  entry.graph = std::move(graph);
  // The footprint-vs-budget measure kAuto applies per batch, computed
  // once at registration so graphs() can report the residency plan before
  // any request runs.
  entry.paged = graph_exceeds_budget(*entry.graph, config_.options);
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted = graphs_.emplace(std::move(name), std::move(entry))
                            .second;
  CSAW_CHECK_MSG(inserted, "graph already registered under that name");
}

void Service::add_graph(std::string name, CsrGraph graph) {
  add_graph(std::move(name),
            std::make_shared<const CsrGraph>(std::move(graph)));
}

std::vector<GraphResidency> Service::graphs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GraphResidency> result;
  result.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) {
    result.push_back(GraphResidency{name, entry.graph->bytes(), entry.paged,
                                    entry.parts != nullptr,
                                    entry.cache_budget_bytes,
                                    entry.cache_resident_bytes});
  }
  return result;
}

void Service::count_rejection_locked(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      break;
    case RejectReason::kUnknownGraph:
      ++stats_.rejected_unknown_graph;
      break;
    case RejectReason::kEmptyRequest:
      ++stats_.rejected_empty;
      break;
    case RejectReason::kInvalidSeed:
      ++stats_.rejected_invalid_seed;
      break;
    case RejectReason::kOversizedRequest:
      ++stats_.rejected_oversized;
      break;
    case RejectReason::kQueueFull:
      ++stats_.rejected_queue_full;
      break;
    case RejectReason::kShutdown:
      ++stats_.rejected_shutdown;
      break;
    case RejectReason::kDeadlineExpired:
      ++stats_.rejected_deadline_expired;
      break;
  }
  if (config_.trace != nullptr && reason != RejectReason::kNone) {
    config_.trace->instant("reject", {{"reason", to_string(reason)}});
  }
}

void Service::expire_deadlines_locked(
    std::chrono::steady_clock::time_point now) {
  while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
    timed_.at(deadlines_.begin()->second).cancel(CancelReason::kDeadline);
    deadlines_.erase(deadlines_.begin());
  }
}

void Service::sweep_queue_locked() {
  // Condemned while queued: fail fast, never dispatch. The token's
  // first-fired reason distinguishes a client cancel from an expired
  // deadline.
  std::vector<Pending> condemned;
  std::vector<Retirement> fates;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (!it->run_token.cancelled()) {
      ++it;
      continue;
    }
    const RequestOutcome outcome =
        cancel_outcome(it->run_token.reason(), RequestOutcome::kCancelled);
    Retirement& fate = fates.emplace_back();
    fate.outcome = outcome;
    fate.error = "request " + to_string(outcome) + " while queued";
    condemned.push_back(std::move(*it));
    it = queue_.erase(it);
  }
  if (condemned.empty()) return;
  retire_locked(condemned, fates, 0, nullptr);
  if (queue_.empty() && batches_in_flight_ == 0) idle_cv_.notify_all();
}

Submission Service::submit(SampleRequest request) {
  return submit_impl(std::move(request), nullptr);
}

StreamSubmission Service::submit_streaming(SampleRequest request) {
  auto state = std::make_shared<detail::StreamState>();
  state->budget = config_.stream_chunk_budget;
  // The abandon source chains the client's token: either firing cancels
  // the request's remaining instances, and the run-token reason walk
  // reports whichever fired first.
  state->abort = CancelSource::linked(request.cancel);
  Submission base = submit_impl(std::move(request), state);

  StreamSubmission submission;
  submission.rejected = base.rejected;
  submission.ticket = base.ticket;
  submission.rng_base = base.rng_base;
  if (base.accepted()) {
    // Not make_shared: the constructor is private to keep streams
    // service-made only (Service is a friend).
    submission.stream.reset(new SampleStream(std::move(state)));
  }
  return submission;
}

Submission Service::submit_impl(SampleRequest request,
                                std::shared_ptr<detail::StreamState> stream) {
  Submission submission;

  // Phase 1 (locked, O(1)): liveness and graph lookup.
  std::shared_ptr<const CsrGraph> graph;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      submission.rejected = RejectReason::kShutdown;
    } else if (const auto it = graphs_.find(request.graph);
               it == graphs_.end()) {
      submission.rejected = RejectReason::kUnknownGraph;
    } else {
      graph = it->second.graph;
    }
    if (submission.rejected != RejectReason::kNone) {
      count_rejection_locked(submission.rejected);
      return submission;
    }
  }

  // Phase 2 (unlocked): shape validation — per-seed bounds checking is
  // O(total seeds) and must not serialize other clients or stall the
  // dispatcher behind the service mutex. Graphs are never unregistered,
  // so the snapshot stays valid.
  const auto count = static_cast<std::uint32_t>(request.seeds.size());
  RejectReason verdict = RejectReason::kNone;
  if (request.deadline.has_value() &&
      *request.deadline <= std::chrono::steady_clock::now()) {
    // A dead-on-arrival deadline is an admission fact, not a dispatch
    // failure: reject typed instead of queueing doomed work.
    verdict = RejectReason::kDeadlineExpired;
  } else if (request.seeds.empty()) {
    verdict = RejectReason::kEmptyRequest;
  } else if (count > config_.max_request_instances) {
    verdict = RejectReason::kOversizedRequest;
  } else if (config_.tenant_quota > 0 && count > config_.tenant_quota) {
    // A request wider than its tenant's whole quota could never launch —
    // the scheduler would defer it forever. Die at admission instead of
    // starving silently in the queue.
    verdict = RejectReason::kOversizedRequest;
  } else if (request.rng_base != kAutoRngBase &&
             count > kAutoRngBase - request.rng_base) {
    // A pinned range must fit below the sentinel without wrapping —
    // wrapped tags would abort the coalesced batch they ride in, failing
    // innocent neighbors; admission is where bad requests must die.
    verdict = RejectReason::kOversizedRequest;
  } else {
    const VertexId num_vertices = graph->num_vertices();
    for (const auto& instance_seeds : request.seeds) {
      for (const VertexId v : instance_seeds) {
        if (v >= num_vertices) {
          verdict = RejectReason::kInvalidSeed;
          break;
        }
      }
      if (verdict != RejectReason::kNone) break;
    }
  }
  if (verdict != RejectReason::kNone) {
    std::lock_guard<std::mutex> lock(mu_);
    count_rejection_locked(verdict);
    submission.rejected = verdict;
    return submission;
  }

  // Phase 3 (locked): capacity, stream-range assignment, enqueue.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {  // shutdown may have begun during phase 2
      submission.rejected = RejectReason::kShutdown;
    } else if (queue_.size() >= config_.max_queue_depth) {
      submission.rejected = RejectReason::kQueueFull;
    } else if (request.rng_base == kAutoRngBase &&
               count > kAutoRngBase - next_rng_base_) {
      // Auto assignment ran out of the 32-bit id space (≈4 billion
      // instances served) — the sentinel itself is reserved.
      submission.rejected = RejectReason::kOversizedRequest;
    }
    if (submission.rejected != RejectReason::kNone) {
      count_rejection_locked(submission.rejected);
      return submission;
    }

    std::uint32_t rng_base = request.rng_base;
    if (rng_base == kAutoRngBase) {
      rng_base = next_rng_base_;
      next_rng_base_ += count;
    } else {
      // Keep the auto cursor ahead of every admitted range, pinned ones
      // included: later auto requests can then never collide with any
      // stream range this service has handed out. (A pin *below* the
      // cursor remains the client's responsibility — see request.hpp.)
      if (rng_base + count > next_rng_base_) {
        next_rng_base_ = rng_base + count;
      }
    }

    // First accepted request of a tenant adds it to the fairness ring;
    // it stays for the service's lifetime (tenant counts are small).
    TenantState& tenant = tenants_[request.tenant];
    if (tenant.stats.accepted == 0) {
      tenant.stats.tenant = request.tenant;
      tenant_ring_.push_back(request.tenant);
    }
    ++tenant.stats.accepted;

    Pending pending;
    pending.request = std::move(request);
    pending.ticket = next_ticket_++;
    pending.rng_base = rng_base;
    pending.enqueued = std::chrono::steady_clock::now();
    pending.stream = std::move(stream);
    // Base of the run-token chain: the stream's abandon source (itself
    // linked to the client token) for streaming requests, the client
    // token alone otherwise (possibly invalid — then wholly inert).
    const CancelToken base_token = pending.stream != nullptr
                                       ? pending.stream->abort.token()
                                       : pending.request.cancel;
    if (pending.request.deadline.has_value()) {
      // Deadline-armed: the engines poll a service-owned source the
      // dispatcher can fire at expiry; a client cancel (or stream
      // abandon) chains through its parent link. Armed until it fires
      // or the request retires.
      CancelSource source = CancelSource::linked(base_token);
      pending.run_token = source.token();
      deadlines_.emplace(*pending.request.deadline, pending.ticket);
      timed_.emplace(pending.ticket, std::move(source));
    } else {
      pending.run_token = base_token;
    }
    if (config_.trace != nullptr) {
      // Admission instant plus the two long-lived spans every request
      // carries: "request" (admission → outcome) and "queue" (admission
      // → batch formation or queue death). The recorder's mutex is a
      // leaf under mu_, same rule as StreamState::mu.
      telemetry::TraceRecorder& trace = *config_.trace;
      const std::string ticket = std::to_string(pending.ticket);
      const telemetry::TraceRecorder::Args args = {
          {"ticket", ticket},
          {"tenant", pending.request.tenant},
          {"graph", pending.request.graph},
          {"instances", std::to_string(count)}};
      trace.instant("admit", args);
      pending.request_span = trace.begin_span("request", args);
      pending.queue_span = trace.begin_span("queue", {{"ticket", ticket}});
    }
    submission.ticket = pending.ticket;
    submission.rng_base = rng_base;
    submission.result = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    ++stats_.accepted;
    stats_.peak_queue_depth =
        std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.size());
  }
  work_cv_.notify_all();
  return submission;
}

RunResult Service::sample(SampleRequest request) {
  Submission submission = submit(std::move(request));
  if (!submission.accepted()) {
    throw ServiceError(
        "Service::sample rejected: " + to_string(submission.rejected),
        submission.rejected);
  }
  return submission.result.get();
}

void Service::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    return queue_.empty() && batches_in_flight_ == 0;
  });
}

void Service::shutdown() {
  std::thread dispatcher_to_join;
  std::vector<std::thread> runners_to_join;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused queue must still drain before the join
    if (dispatcher_.joinable()) {
      // Exactly one caller claims the join by moving the threads out
      // under the lock; concurrent shutdown()/destructor calls wait for
      // that caller instead of double-joining (UB).
      dispatcher_to_join = std::move(dispatcher_);
      runners_to_join = std::move(runners_);
    } else {
      work_cv_.notify_all();
      batch_cv_.notify_all();
      idle_cv_.wait(lock, [&] { return shutdown_complete_; });
      return;
    }
  }
  work_cv_.notify_all();
  batch_cv_.notify_all();
  dispatcher_to_join.join();
  batch_cv_.notify_all();  // dispatcher_done_ is set; wake idle runners
  for (std::thread& runner : runners_to_join) runner.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_complete_ = true;
    // Notify while holding mu_: a predicate waiter may wake and destroy
    // the service the moment the flag is visible, so an after-unlock
    // notify could touch a destroyed condition variable.
    idle_cv_.notify_all();
  }
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = stats_;
  snapshot.tenants.reserve(tenants_.size());
  for (const auto& entry : tenants_) {
    snapshot.tenants.push_back(entry.second.stats);
  }
  return snapshot;
}

ServiceHealth Service::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceHealth health;
  health.accepting = !stopping_;
  health.paused = paused_;
  health.queue_depth = queue_.size();
  health.inflight_batches = batches_in_flight_;
  health.executing_batches = executing_batches_;
  health.timed_requests = deadlines_.size();
  health.window = recent_.size();
  for (const RequestOutcome outcome : recent_) {
    switch (outcome) {
      case RequestOutcome::kOk:
        ++health.recent_ok;
        break;
      case RequestOutcome::kCancelled:
        ++health.recent_cancelled;
        break;
      case RequestOutcome::kDeadlineExceeded:
        ++health.recent_deadline_exceeded;
        break;
      case RequestOutcome::kTransferFailed:
        ++health.recent_transfer_failed;
        break;
      case RequestOutcome::kShardFailed:
        ++health.recent_shard_failed;
        break;
      case RequestOutcome::kInternal:
        ++health.recent_internal;
        break;
    }
  }
  health.recent_failures = health.window - health.recent_ok;
  if (health.window > 0) {
    const double window = static_cast<double>(health.window);
    health.ok_rate = static_cast<double>(health.recent_ok) / window;
    health.cancelled_rate =
        static_cast<double>(health.recent_cancelled) / window;
    health.deadline_rate =
        static_cast<double>(health.recent_deadline_exceeded) / window;
    health.transfer_failed_rate =
        static_cast<double>(health.recent_transfer_failed) / window;
    health.shard_failed_rate =
        static_cast<double>(health.recent_shard_failed) / window;
    health.internal_rate =
        static_cast<double>(health.recent_internal) / window;
  }
  return health;
}

std::uint64_t Service::estimated_edge_cost(const SampleRequest& request) {
  // Scheduling weight, not a prediction: only the ratios between
  // requests matter, so the per-instance estimate is capped — beyond a
  // million edges per instance every request is "maximally expensive"
  // and the saturated products can never overflow the deficit math.
  constexpr std::uint64_t kPerInstanceCap = std::uint64_t{1} << 20;
  const std::uint64_t instances = request.num_instances();
  const std::uint64_t depth = std::max<std::uint32_t>(
      request.depth_or_length, 1);
  std::uint64_t per_instance = 0;
  if (algorithm_info(request.algorithm).neighbors_per_step == "1") {
    // A walk samples exactly one edge per step.
    per_instance = depth;
  } else {
    // A sampling tree touches ~neighbor_size^d edges at depth d.
    const std::uint64_t fanout = std::max<std::uint32_t>(
        request.neighbor_size, 1);
    std::uint64_t level = 1;
    for (std::uint64_t d = 0; d < depth; ++d) {
      if (level > kPerInstanceCap / fanout) {
        per_instance = kPerInstanceCap;
        break;
      }
      level *= fanout;
      per_instance += level;
    }
  }
  per_instance = std::clamp<std::uint64_t>(per_instance, 1, kPerInstanceCap);
  return std::max<std::uint64_t>(instances, 1) * per_instance;
}

telemetry::HistogramSnapshot Service::histogram(
    const std::string& name) const {
  return metrics_.histogram_snapshot(name);
}

std::string Service::metrics_text() const {
  // Exposition builds a throwaway registry: counters and gauges are
  // *views* of the existing stats/health state (no second write path to
  // drift from them), and the always-on histogram registry is folded in
  // with the deterministic merge. Output order is therefore a pure
  // function of the counter state — what the golden test pins.
  const ServiceStats stats = this->stats();
  const ServiceHealth health = this->health();

  telemetry::MetricsRegistry out;
  const auto counter = [&out](const std::string& name,
                              const std::string& help, std::uint64_t value,
                              const std::string& labels = std::string()) {
    out.counter(name, help, labels).add(value);
  };
  const auto gauge = [&out](const std::string& name, const std::string& help,
                            double value,
                            const std::string& labels = std::string()) {
    out.gauge(name, help, labels).set(value);
  };

  counter("csaw_requests_submitted_total", "All submit() calls",
          stats.submitted);
  counter("csaw_requests_accepted_total", "Requests admitted to the queue",
          stats.accepted);
  const std::string outcome_help = "Retired requests by typed outcome";
  counter("csaw_request_outcomes_total", outcome_help, stats.completed,
          "outcome=\"ok\"");
  counter("csaw_request_outcomes_total", outcome_help, stats.cancelled,
          "outcome=\"cancelled\"");
  counter("csaw_request_outcomes_total", outcome_help,
          stats.deadline_exceeded, "outcome=\"deadline_exceeded\"");
  counter("csaw_request_outcomes_total", outcome_help, stats.transfer_failed,
          "outcome=\"transfer_failed\"");
  counter("csaw_request_outcomes_total", outcome_help, stats.shard_failed,
          "outcome=\"shard_failed\"");
  counter("csaw_request_outcomes_total", outcome_help, stats.internal_errors,
          "outcome=\"internal\"");
  const std::string reject_help = "Rejected submissions by typed reason";
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_unknown_graph, "reason=\"unknown_graph\"");
  counter("csaw_requests_rejected_total", reject_help, stats.rejected_empty,
          "reason=\"empty_request\"");
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_invalid_seed, "reason=\"invalid_seed\"");
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_oversized, "reason=\"oversized_request\"");
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_queue_full, "reason=\"queue_full\"");
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_shutdown, "reason=\"shutdown\"");
  counter("csaw_requests_rejected_total", reject_help,
          stats.rejected_deadline_expired, "reason=\"deadline_expired\"");

  counter("csaw_batches_total", "Engine runs executed", stats.batches);
  counter("csaw_batches_paged_total", "Batches served by the OOM backend",
          stats.paged_batches);
  counter("csaw_coalesced_requests_total",
          "Requests that shared a batch with at least one other",
          stats.coalesced_requests);
  counter("csaw_deadline_launches_total",
          "Batches launched partial by the batching deadline",
          stats.deadline_launches);
  counter("csaw_quota_deferrals_total",
          "Scheduling passes that skipped a request over tenant quota",
          stats.quota_deferrals);
  counter("csaw_cache_hits_total", "Partition-cache hits",
          stats.oom.cache_hits);
  counter("csaw_cache_evictions_total", "Partition-cache evictions",
          stats.oom.cache_evictions);
  counter("csaw_cache_prefetch_transfers_total",
          "Partition transfers issued by the prefetcher",
          stats.oom.prefetch_transfers);
  counter("csaw_transfer_faults_total", "Injected partition-copy faults",
          stats.oom.transfer_faults);
  counter("csaw_transfer_retries_total", "Partition-copy retries",
          stats.oom.transfer_retries);
  counter("csaw_batches_sharded_total",
          "Batches routed across walk shards", stats.sharded_batches);
  counter("csaw_shard_forwarded_walkers_total",
          "Walkers forwarded across a shard boundary",
          stats.shard.forwarded_walkers);
  counter("csaw_shard_envelopes_total",
          "Walker envelopes delivered over the simulated transport",
          stats.shard.envelopes);
  counter("csaw_shard_bytes_forwarded_total",
          "Wire bytes of delivered walker envelopes",
          stats.shard.bytes_forwarded);
  counter("csaw_shard_envelope_faults_total",
          "Injected envelope-delivery faults", stats.shard.envelope_faults);
  counter("csaw_shard_envelope_retries_total", "Envelope redeliveries",
          stats.shard.envelope_retries);
  // Per-shard attribution: present only once a sharded batch completed
  // (the vectors are sized by the widest shard count seen).
  for (std::size_t s = 0; s < stats.shard.steps_per_shard.size(); ++s) {
    const std::string labels = "shard=\"" + std::to_string(s) + "\"";
    counter("csaw_shard_steps_total", "Walker steps computed per shard",
            stats.shard.steps_per_shard[s], labels);
  }
  for (std::size_t s = 0; s < stats.shard.forwarded_per_shard.size(); ++s) {
    const std::string labels = "shard=\"" + std::to_string(s) + "\"";
    counter("csaw_shard_forwarded_total",
            "Walkers each shard forwarded away",
            stats.shard.forwarded_per_shard[s], labels);
  }
  counter("csaw_sampled_edges_total",
          "Edges delivered to completed requests", stats.sampled_edges);
  gauge("csaw_sim_seconds_total",
        "Simulated seconds accumulated over executed batches",
        stats.sim_seconds);

  gauge("csaw_accepting", "1 while admission is open", health.accepting);
  gauge("csaw_paused", "1 while the dispatcher is paused", health.paused);
  gauge("csaw_queue_depth", "Admitted requests not yet in a batch",
        static_cast<double>(health.queue_depth));
  gauge("csaw_inflight_batches", "Formed batches (ready or executing)",
        health.inflight_batches);
  gauge("csaw_executing_batches", "Batches inside an engine run",
        health.executing_batches);
  gauge("csaw_timed_requests", "Request deadlines armed and not yet fired",
        static_cast<double>(health.timed_requests));
  gauge("csaw_health_window", "Retired requests the outcome window covers",
        static_cast<double>(health.window));
  const std::string rate_help =
      "Outcome fraction over the recent-outcome window";
  gauge("csaw_recent_outcome_rate", rate_help, health.ok_rate,
        "outcome=\"ok\"");
  gauge("csaw_recent_outcome_rate", rate_help, health.cancelled_rate,
        "outcome=\"cancelled\"");
  gauge("csaw_recent_outcome_rate", rate_help, health.deadline_rate,
        "outcome=\"deadline_exceeded\"");
  gauge("csaw_recent_outcome_rate", rate_help, health.transfer_failed_rate,
        "outcome=\"transfer_failed\"");
  gauge("csaw_recent_outcome_rate", rate_help, health.shard_failed_rate,
        "outcome=\"shard_failed\"");
  gauge("csaw_recent_outcome_rate", rate_help, health.internal_rate,
        "outcome=\"internal\"");

  gauge("csaw_peak_queue_depth", "High-water mark of the admission queue",
        static_cast<double>(stats.peak_queue_depth));
  gauge("csaw_peak_inflight_batches",
        "High-water mark of formed batches in flight",
        static_cast<double>(stats.peak_inflight_batches));
  gauge("csaw_peak_concurrent_batches",
        "High-water mark of simultaneously executing batches",
        static_cast<double>(stats.peak_concurrent_batches));
  gauge("csaw_max_batch_requests", "Widest executed batch, in requests",
        static_cast<double>(stats.max_batch_requests));

  for (const TenantStats& tenant : stats.tenants) {
    const std::string labels = "tenant=\"" + tenant.tenant + "\"";
    counter("csaw_tenant_accepted_total", "Requests admitted per tenant",
            tenant.accepted, labels);
    counter("csaw_tenant_completed_total", "Requests completed per tenant",
            tenant.completed, labels);
    counter("csaw_tenant_failed_total", "Requests failed per tenant",
            tenant.failed, labels);
    counter("csaw_tenant_sampled_edges_total",
            "Edges delivered per tenant", tenant.sampled_edges, labels);
    gauge("csaw_tenant_peak_inflight_instances",
          "High-water mark of a tenant's in-flight instances",
          static_cast<double>(tenant.peak_inflight_instances), labels);
  }

  sim::visit_kernel_stats(stats.kernels, [&](const char* field,
                                       std::uint64_t value) {
    counter(std::string("csaw_kernel_") + field + "_total",
            "Accumulated simulated-kernel event counter", value);
  });

  out.merge(metrics_);
  return out.render();
}

Service::BatchPlan Service::plan_batch_locked(std::size_t head_index) const {
  const Pending& head = queue_[head_index];
  BatchPlan plan;
  plan.members.push_back(head_index);
  std::uint32_t total = head.request.num_instances();
  std::map<std::string, std::uint32_t> taken = {{head.request.tenant, total}};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {head.rng_base, total}};
  // Coalesce every queued request that provably runs the same kernels,
  // fits the batch budget and its tenant's quota, and collides with no
  // already-chosen Philox range, until the batch is full. Skipped
  // requests keep their queue position for a later batch.
  for (std::size_t i = 0;
       i < queue_.size() && total < config_.max_batch_instances; ++i) {
    const Pending& pending = queue_[i];
    const std::uint32_t count = pending.request.num_instances();
    if (i == head_index || !compatible(head.request, pending.request) ||
        total + count > config_.max_batch_instances ||
        overlaps(ranges, pending.rng_base, count)) {
      continue;
    }
    std::uint32_t& tenant_taken = taken[pending.request.tenant];
    if (config_.tenant_quota > 0 &&
        tenants_.at(pending.request.tenant).inflight_instances +
                tenant_taken + count >
            config_.tenant_quota) {
      ++plan.quota_skips;
      continue;
    }
    ranges.emplace_back(pending.rng_base, count);
    tenant_taken += count;
    total += count;
    plan.members.push_back(i);
  }
  return plan;
}

Service::HeadChoice Service::select_head_locked(
    std::chrono::steady_clock::time_point now) {
  HeadChoice choice;
  // Pass 1 over the queue: per tenant, the earliest *launchable* head —
  // its graph idle, its tenant under quota, and its batch either not
  // deadline-gated, already full, or past the deadline. Heads still
  // inside their deadline window are recorded so the dispatcher knows
  // when to wake.
  struct Candidate {
    std::size_t index;
    std::uint64_t cost;  ///< estimated sampled edges, not instances
    bool by_deadline;
  };
  std::map<std::string, Candidate> candidates;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Pending& pending = queue_[i];
    const SampleRequest& request = pending.request;
    if (graphs_in_flight_.count(request.graph) != 0) continue;
    const std::uint64_t cost = estimated_edge_cost(request);
    const TenantState& tenant = tenants_.at(request.tenant);
    if (config_.tenant_quota > 0 &&
        tenant.inflight_instances + request.num_instances() >
            config_.tenant_quota) {
      ++stats_.quota_deferrals;
      continue;
    }
    if (candidates.count(request.tenant) != 0) continue;

    bool launchable = true;
    bool by_deadline = false;
    if (config_.batching_deadline.count() > 0 && !stopping_) {
      const auto deadline = pending.enqueued + config_.batching_deadline;
      // "Full" means formation would really produce a full batch: the
      // probe sums exactly the members formation would take.
      std::uint32_t planned = 0;
      for (const std::size_t m : plan_batch_locked(i).members) {
        planned += queue_[m].request.num_instances();
      }
      if (planned >= config_.max_batch_instances) {
        launchable = true;  // a full batch never waits out its deadline
      } else if (now >= deadline) {
        by_deadline = true;  // launches partial — counted for operators
      } else {
        launchable = false;
        if (!choice.has_waiting || deadline < choice.next_deadline) {
          choice.next_deadline = deadline;
        }
        choice.has_waiting = true;
      }
    }
    if (launchable) {
      candidates.emplace(request.tenant, Candidate{i, cost, by_deadline});
    }
  }
  if (candidates.empty()) return choice;

  // Pass 2: deficit round robin across the tenant ring. Each turn a
  // tenant with a candidate earns `quantum_` estimated edges of credit
  // and launches once the credit covers its head's cost — tenants
  // submitting expensive requests (many instances, long walks, wide
  // trees) therefore wait proportionally more turns. Tenants with no
  // candidate forfeit their credit (no hoarding while idle or blocked).
  //
  // Edge costs are large numbers, so instead of literally iterating
  // turns the pass computes each candidate's turns-to-launch in closed
  // form and takes the winner: fewest turns, ties broken by ring order
  // from the cursor — exactly the turn-by-turn result, in O(ring).
  std::size_t winner_step = 0;
  std::uint64_t winner_turns = 0;
  const Candidate* winner = nullptr;
  for (std::size_t step = 0; step < tenant_ring_.size(); ++step) {
    const std::size_t pos = (ring_cursor_ + step) % tenant_ring_.size();
    const auto it = candidates.find(tenant_ring_[pos]);
    if (it == candidates.end()) {
      tenants_.at(tenant_ring_[pos]).deficit = 0;  // forfeit while blocked
      continue;
    }
    const std::uint64_t deficit = tenants_.at(tenant_ring_[pos]).deficit;
    const std::uint64_t need =
        it->second.cost > deficit ? it->second.cost - deficit : 0;
    // A tenant earns its quantum before the launch check, so even a
    // fully-funded head takes one turn.
    const std::uint64_t turns =
        std::max<std::uint64_t>((need + quantum_ - 1) / quantum_, 1);
    if (winner == nullptr || turns < winner_turns) {
      winner_step = step;
      winner_turns = turns;
      winner = &it->second;
    }
  }
  CSAW_CHECK(winner != nullptr);  // candidates is nonempty

  // Settle every candidate's credit as the iterative loop would have:
  // candidates at or before the winner's ring position saw the final
  // (partial) round, later ones did not.
  for (std::size_t step = 0; step < tenant_ring_.size(); ++step) {
    const std::size_t pos = (ring_cursor_ + step) % tenant_ring_.size();
    const auto it = candidates.find(tenant_ring_[pos]);
    if (it == candidates.end()) continue;
    TenantState& tenant = tenants_.at(tenant_ring_[pos]);
    const std::uint64_t rounds =
        step <= winner_step ? winner_turns : winner_turns - 1;
    tenant.deficit += rounds * quantum_;
    if (step == winner_step) tenant.deficit -= it->second.cost;
  }
  ring_cursor_ =
      (ring_cursor_ + winner_step + 1) % tenant_ring_.size();
  choice.found = true;
  choice.queue_index = winner->index;
  choice.by_deadline = winner->by_deadline;
  return choice;
}

Service::FormedBatch Service::form_batch_locked(std::size_t head_index) {
  const BatchPlan plan = plan_batch_locked(head_index);
  stats_.quota_deferrals += plan.quota_skips;
  FormedBatch batch;
  batch.graph = queue_[head_index].request.graph;
  batch.items.reserve(plan.members.size());
  for (const std::size_t i : plan.members) {
    Pending& member = queue_[i];
    batch.tenant_instances[member.request.tenant] +=
        member.request.num_instances();
    batch.items.push_back(std::move(member));
  }
  // Erase back to front so the indices still to erase stay valid.
  std::vector<std::size_t> taken = plan.members;
  std::sort(taken.begin(), taken.end(), std::greater<>());
  for (const std::size_t i : taken) {
    queue_.erase(queue_.begin() +
                 static_cast<std::deque<Pending>::difference_type>(i));
  }

  // Formation is the queue-wait/in-flight boundary: stamp it, observe
  // every member's queue wait, and close the queue spans. The head's
  // wait (items.front() — not yet sorted) is also the batch-formation
  // latency: how long the batching window held it open.
  const auto formed = std::chrono::steady_clock::now();
  h_batch_formation_->observe(
      elapsed_seconds(batch.items.front().enqueued, formed));
  for (Pending& pending : batch.items) {
    pending.dispatched = formed;
    h_queue_wait_->observe(elapsed_seconds(pending.enqueued, formed));
    if (config_.trace != nullptr) {
      config_.trace->end_span(pending.queue_span, "queue",
                              {{"outcome", "dispatched"}});
    }
  }

  // The engines require strictly increasing tags; batch composition order
  // is irrelevant to the bytes (each instance's draws are addressed by
  // its own global id), so sort by stream base.
  std::sort(batch.items.begin(), batch.items.end(),
            [](const Pending& a, const Pending& b) {
              return a.rng_base < b.rng_base;
            });

  // Book the in-flight state the batch holds until a runner retires it:
  // its graph (same-graph batches never overlap) and its per-tenant
  // instance footprint (what tenant_quota bounds).
  graphs_in_flight_.insert(batch.graph);
  for (const auto& [tenant_name, instances] : batch.tenant_instances) {
    TenantState& tenant = tenants_.at(tenant_name);
    tenant.inflight_instances += instances;
    tenant.stats.peak_inflight_instances = std::max<std::uint64_t>(
        tenant.stats.peak_inflight_instances, tenant.inflight_instances);
  }
  ++batches_in_flight_;
  stats_.peak_inflight_batches = std::max<std::uint64_t>(
      stats_.peak_inflight_batches, batches_in_flight_);
  return batch;
}

void Service::run_batch(std::vector<Pending> batch) {
  const std::size_t num_requests = batch.size();
  // Batch layout: request r's instances occupy the flat index range
  // [first[r], first[r + 1]); first[num_requests] is the batch's size.
  std::vector<std::uint32_t> first(num_requests + 1, 0);
  bool cancellable = false;
  bool any_stream = false;
  for (std::size_t r = 0; r < num_requests; ++r) {
    first[r + 1] = first[r] + batch[r].request.num_instances();
    cancellable = cancellable || batch[r].run_token.valid();
    any_stream = any_stream || batch[r].stream != nullptr;
  }
  const std::uint32_t num_instances = first[num_requests];
  telemetry::TraceRecorder* const trace = config_.trace.get();
  const std::uint64_t batch_id =
      next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t batch_span = 0;
  if (trace != nullptr) {
    batch_span = trace->begin_span(
        "batch", {{"batch", std::to_string(batch_id)},
                  {"graph", batch.front().request.graph},
                  {"requests", std::to_string(num_requests)},
                  {"instances", std::to_string(num_instances)}});
  }
  std::vector<Retirement> fates(num_requests);
  RunResult whole;
  bool failed = false;
  std::string error;
  // What a failed paged batch's cache counted for it: no RunResult
  // reports those events.
  OomMetrics failed_paging;
  try {
    // Plan: one flat instance list, built in one pass. Request r's
    // instances carry the global ids [rng_base, rng_base + k) as engine
    // tags — the whole determinism story of the service is that these
    // ids, not batch positions, address the random draws.
    //
    // Per-instance cancellation: each request's token repeats across its
    // instances, so cancelling one request stops exactly its rows while
    // every neighbor's bytes stay identical to a run without it. A batch
    // of plain requests (no token, no deadline) passes no tokens at all
    // and the engines skip the polls entirely.
    //
    // Streaming bridge: each instance's route names its request's chunk
    // queue and request-local index. Buffered neighbors in a mixed batch
    // route nowhere and keep their rows for the split below.
    struct InstanceRoute {
      detail::StreamState* stream = nullptr;
      std::uint32_t local = 0;
    };
    std::vector<std::vector<VertexId>> seeds;
    std::vector<std::uint32_t> tags;
    std::vector<InstanceRoute> routes;
    RunControl control;
    control.trace = trace;
    control.trace_batch = batch_id;
    seeds.reserve(num_instances);
    tags.reserve(num_instances);
    if (cancellable) control.instance_cancel.reserve(num_instances);
    if (any_stream) routes.reserve(num_instances);
    for (Pending& pending : batch) {
      const std::uint32_t count = pending.request.num_instances();
      for (std::uint32_t i = 0; i < count; ++i) {
        // Seed lists are dead after the run (the split below reads only
        // `first`).
        seeds.push_back(std::move(pending.request.seeds[i]));
        tags.push_back(pending.rng_base + i);
        if (cancellable) control.instance_cancel.push_back(pending.run_token);
        if (any_stream) {
          routes.push_back(InstanceRoute{pending.stream.get(), i});
        }
      }
    }
    if (any_stream) {
      // Fired concurrently from engine workers; stream_push locks per
      // stream and parks at the chunk budget (backpressure — host time
      // only, so the batch's bytes and simulated timing are
      // consumer-independent).
      control.on_instance_complete = [this, &routes, trace, batch_id](
                                         std::uint32_t i,
                                         std::vector<Edge>& row) {
        const InstanceRoute& route = routes[i];
        if (route.stream == nullptr) return;
        const std::size_t queued =
            detail::stream_push(*route.stream, route.local, std::move(row));
        // queued == 0 means the stream was abandoned and the push
        // dropped — not an occupancy observation.
        if (queued > 0) {
          h_stream_occupancy_->observe(static_cast<double>(queued));
        }
        if (trace != nullptr) {
          trace->instant("stream_chunk",
                         {{"batch", std::to_string(batch_id)},
                          {"instance", std::to_string(route.local)},
                          {"queued", std::to_string(queued)}});
        }
      };
    }

    whole = execute_batch(batch.front().request, seeds, tags, control);

    // Classify every request: a token that fired (client cancel or
    // deadline) fails its request even though the batch completed —
    // partial rows of a cancelled request are discarded, not returned.
    for (std::size_t r = 0; r < num_requests; ++r) {
      fates[r].outcome =
          cancel_outcome(batch[r].run_token.reason(), RequestOutcome::kOk);
    }
    if (whole.shard.has_value()) {
      // A terminally failed shard fails exactly the requests whose
      // instances were resident on (or bound for) it — `failed` holds
      // batch-local instance indices. A token that already fired keeps
      // its truer cancellation outcome.
      for (const std::uint32_t f : whole.shard->failed) {
        const auto r = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), f) - first.begin() -
            1);
        if (fates[r].outcome == RequestOutcome::kOk) {
          fates[r].outcome = RequestOutcome::kShardFailed;
        }
      }
    }

    // Split the batch back into per-request results before anything is
    // booked or fulfilled: a throw here (allocation) takes the whole
    // batch down the failure path exactly once. Samples are the
    // request's own bytes; the schedule-shaped fields (sim_seconds,
    // device_seconds, stats, oom, shard) describe the batch the request
    // rode on.
    for (std::size_t r = 0; r < num_requests; ++r) {
      Retirement& fate = fates[r];
      if (fate.outcome != RequestOutcome::kOk) {
        fate.error = "request " + to_string(fate.outcome) + " mid-batch";
        continue;
      }
      const std::uint32_t count = first[r + 1] - first[r];
      RunResult& result = fate.result;
      result.samples.reset(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        // Row moves, not per-edge copies: the batch store is dead after
        // the split.
        result.samples.put(i, whole.samples.take(first[r] + i));
      }
      result.sim_seconds = whole.sim_seconds;
      result.device_seconds = whole.device_seconds;
      result.stats = whole.stats;
      result.mode = whole.mode;
      result.mode_reason = whole.mode_reason;
      result.oom = whole.oom;
      result.shard = whole.shard;
    }
  } catch (...) {
    // A failed batch fails every request in it; the service itself stays
    // up. The exception is classified into the outcome taxonomy: a
    // TransferError (paged I/O that exhausted its retry budget) is an
    // expected, isolated fault — the partition cache has already rolled
    // itself consistent, so the next batch on the same graph proceeds
    // normally. Requests whose own token fired before the batch died keep
    // their truer cancellation outcome; the rest carry the batch's.
    failed = true;
    RequestOutcome batch_outcome = RequestOutcome::kInternal;
    error = "batch failed";
    try {
      throw;
    } catch (const TransferError& e) {
      batch_outcome = RequestOutcome::kTransferFailed;
      error = e.what();
      failed_paging = e.paged();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
    }
    for (std::size_t r = 0; r < num_requests; ++r) {
      fates[r].outcome =
          cancel_outcome(batch[r].run_token.reason(), batch_outcome);
      fates[r].error = to_string(fates[r].outcome) + ": " + error;
    }
  }

  // Retire. Nothing above booked or delivered, so every request is
  // counted completed or failed exactly once.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.oom.accumulate(failed_paging);
    retire_locked(batch, fates, batch_id, failed ? nullptr : &whole);
  }
  if (trace != nullptr) {
    if (failed) {
      trace->end_span(batch_span, "batch",
                      {{"outcome", "failed"}, {"error", error}});
    } else {
      trace->end_span(
          batch_span, "batch",
          {{"outcome", "completed"},
           {"sim_seconds", std::to_string(whole.sim_seconds)}});
    }
  }
}

RunResult Service::execute_batch(const SampleRequest& head,
                                 std::span<const std::vector<VertexId>> seeds,
                                 std::span<const std::uint32_t> tags,
                                 const RunControl& control) {
  // A snapshot of the graph's entry: the lazily built members are
  // published back under mu_ below.
  GraphEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry = graphs_.at(head.graph);
  }
  const CsrGraph& graph = *entry.graph;
  const AlgorithmSetup setup = make_algorithm(
      head.algorithm, head.depth_or_length, head.neighbor_size);

  // Sharded routing (ServiceConfig::shards > 1): walk-shaped batches on
  // in-memory graphs with single-seed instances run through the
  // ShardRouter; anything else silently takes the ordinary path. Samples
  // are byte-identical either way — the router draws from the same
  // tag-addressed Philox streams.
  if (config_.shards > 1 && !entry.paged && single_seeded(seeds) &&
      setup.spec.walk_shaped()) {
    if (entry.shard_map == nullptr) {
      // First sharded batch on this graph: build the shared vertex
      // partitioning once, outside the lock, and publish it. Per-graph
      // batch serialization (graphs_in_flight_) guarantees no concurrent
      // batch builds the same graph's map twice.
      entry.shard_map =
          std::make_shared<const ShardPartitionMap>(graph, config_.shards);
      std::lock_guard<std::mutex> lock(mu_);
      graphs_.at(head.graph).shard_map = entry.shard_map;
    }
    ShardRouter router(graph, setup, config_.options,
                       ShardOptions{.shards = config_.shards,
                                    .faults = config_.shard_faults},
                       entry.shard_map);
    if (pool_ != nullptr) router.set_executor(pool_);
    return router.run_tagged(seeds, tags, control);
  }

  Sampler sampler(graph, setup, config_.options);
  if (pool_ != nullptr) sampler.set_executor(pool_);
  std::shared_ptr<PartitionCache> cache;
  if (sampler.decision().out_of_memory) {
    if (entry.parts == nullptr) {
      // First paged batch on this graph: build the shared partitioning
      // once, outside the lock, and publish it for every later batch.
      // Per-graph batch serialization (graphs_in_flight_) guarantees no
      // concurrent batch builds the same graph's partitioning twice.
      entry.parts = std::make_shared<const PartitionedGraph>(
          graph, config_.options.num_partitions);
      std::lock_guard<std::mutex> lock(mu_);
      graphs_.at(head.graph).parts = entry.parts;
    }
    sampler.set_partitions(entry.parts);
    // A shared per-graph cache needs the pipelined schedule (the barrier
    // waves never cache) and a single simulated device (multi-device
    // groups page through private per-device caches).
    if (config_.options.schedule == Schedule::kPipelined &&
        config_.options.num_devices == 1) {
      // Per-graph device-budget policy: every *registered* paged graph
      // gets an equal byte slice of the budget (memory_budget_fraction of
      // device memory), so concurrent paged traffic contends through
      // bounded caches instead of each batch assuming the whole device,
      // and partitions stay warm across the graph's batches. Registration
      // count (not live traffic) keeps the budget deterministic for a
      // fixed registry.
      std::lock_guard<std::mutex> lock(mu_);
      std::uint32_t paged_graphs = 0;
      for (const auto& [name, other] : graphs_) {
        if (other.paged) ++paged_graphs;
      }
      const auto budget = static_cast<std::uint64_t>(
          config_.options.memory_budget_fraction *
          static_cast<double>(config_.options.device_params.memory_bytes) /
          static_cast<double>(std::max(paged_graphs, 1u)));
      GraphEntry& shared = graphs_.at(head.graph);
      if (shared.cache == nullptr) {
        shared.cache = std::make_shared<PartitionCache>(
            entry.parts, CacheLimits{.bytes = budget});
      } else if (shared.cache->limits().bytes != budget) {
        shared.cache->set_budget_bytes(budget);  // a later registration shrank it
      }
      shared.cache_budget_bytes = budget;
      cache = shared.cache;
      sampler.set_partition_cache(cache);
    }
  }
  RunResult whole = sampler.run_tagged(seeds, tags, control);
  if (cache != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    graphs_.at(head.graph).cache_resident_bytes = cache->resident_bytes();
  }
  return whole;
}

void Service::retire_locked(std::vector<Pending>& riders,
                            std::vector<Retirement>& fates,
                            std::uint64_t batch_id, const RunResult* whole) {
  // Book everything before fulfilling anything: a client waking on its
  // future must already see its outcome, and its batch, in stats().
  if (batch_id != 0) ++stats_.batches;
  if (whole != nullptr) {
    const std::size_t num_requests = riders.size();
    if (num_requests > 1) stats_.coalesced_requests += num_requests;
    stats_.max_batch_requests =
        std::max<std::uint64_t>(stats_.max_batch_requests, num_requests);
    stats_.sim_seconds += whole->sim_seconds;
    stats_.kernels.merge(whole->stats);
    h_batch_sim_->observe(whole->sim_seconds);
    if (whole->oom.has_value()) {
      ++stats_.paged_batches;
      stats_.oom.accumulate(*whole->oom);
      h_transfer_retries_->observe(
          static_cast<double>(whole->oom->transfer_retries));
    }
    if (whole->shard.has_value()) {
      ++stats_.sharded_batches;
      stats_.shard.accumulate(*whole->shard);
    }
  }
  for (std::size_t r = 0; r < riders.size(); ++r) {
    const Pending& rider = riders[r];
    TenantStats& tenant = tenants_.at(rider.request.tenant).stats;
    count_outcome(stats_, fates[r].outcome);
    count_outcome(tenant, fates[r].outcome);
    recent_.push_back(fates[r].outcome);
    if (fates[r].outcome == RequestOutcome::kOk) {
      // sampled_edges sums the completed requests' own slices, so a
      // cancelled request's partial rows are charged to nobody. A
      // streamed request's rows moved into its chunk queue at completion
      // time: book from the stream's edge counter instead (its producer
      // side is done).
      const std::uint64_t edges = rider.stream != nullptr
                                      ? detail::stream_edges(*rider.stream)
                                      : fates[r].result.sampled_edges();
      stats_.sampled_edges += edges;
      tenant.sampled_edges += edges;
    }
    if (rider.request.deadline.has_value()) {
      deadlines_.erase({*rider.request.deadline, rider.ticket});
      timed_.erase(rider.ticket);
    }
  }
  while (recent_.size() > ServiceHealth::kWindowCapacity) recent_.pop_front();

  // Deliver, still under mu_: StreamState::mu and the trace recorder's
  // mutex are leaf locks under it, and fulfilling a promise never calls
  // back into the service. Request spans close here, before the batch
  // span (docs/OBSERVABILITY.md).
  telemetry::TraceRecorder* const trace = config_.trace.get();
  const auto retired = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < riders.size(); ++r) {
    Pending& rider = riders[r];
    Retirement& fate = fates[r];
    if (batch_id == 0) {
      // Died in the queue: both of its spans close here.
      if (trace != nullptr) {
        trace->end_span(rider.queue_span, "queue",
                        {{"outcome", to_string(fate.outcome)}});
        trace->end_span(rider.request_span, "request",
                        {{"outcome", to_string(fate.outcome)}});
      }
    } else {
      // Host in-flight latency for every rider, failed ones too; the
      // simulated one only for executed batches.
      h_inflight_->observe(elapsed_seconds(rider.dispatched, retired));
      if (whole != nullptr) h_inflight_sim_->observe(whole->sim_seconds);
      if (trace != nullptr) {
        trace->end_span(rider.request_span, "request",
                        {{"outcome", to_string(fate.outcome)},
                         {"batch", std::to_string(batch_id)}});
      }
    }
    if (rider.stream != nullptr) {
      // Terminal stream transition: chunks already queued drain first,
      // then the consumer sees nullopt (kOk) or the typed outcome. A
      // streaming request's promise is never fulfilled.
      detail::finish_stream(*rider.stream, fate.outcome,
                            std::move(fate.error));
    } else if (fate.outcome != RequestOutcome::kOk) {
      rider.promise.set_exception(
          std::make_exception_ptr(RequestError(fate.outcome, fate.error)));
    } else {
      try {
        rider.promise.set_value(std::move(fate.result));
      } catch (...) {
        // A set_value failure concerns this request alone: rebook it from
        // completed to failed and hand its client the error, so no
        // request lands in both columns.
        const auto rebook = [](auto& counters) {
          --counters.completed;
          count_outcome(counters, RequestOutcome::kInternal);
        };
        rebook(stats_);
        rebook(tenants_.at(rider.request.tenant).stats);
        try {
          rider.promise.set_exception(std::current_exception());
        } catch (const std::future_error&) {
        }
      }
    }
  }
}

void Service::dispatcher_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Deadlines come first on every pass: fire the cancel source of
    // every expired deadline (in-flight requests stop at their next
    // step boundary), then fail still-queued condemned requests —
    // expired or client-cancelled — without ever dispatching them.
    expire_deadlines_locked(std::chrono::steady_clock::now());
    sweep_queue_locked();

    // Exit only once nothing is queued AND nothing is in flight: the
    // dispatcher keeps firing in-flight deadlines through the final
    // drain, so a hung-looking batch still gets its cancellation.
    if (stopping_ && queue_.empty() && batches_in_flight_ == 0) return;

    HeadChoice choice;
    if (!paused_ && !queue_.empty() &&
        batches_in_flight_ < config_.max_concurrent_batches) {
      choice = select_head_locked(std::chrono::steady_clock::now());
      if (choice.found) {
        FormedBatch batch = form_batch_locked(choice.queue_index);
        if (choice.by_deadline) ++stats_.deadline_launches;
        ready_.push_back(std::move(batch));
        batch_cv_.notify_one();
        // Loop immediately: with capacity left and another independent-
        // graph head queued, the next batch forms before this finishes.
        continue;
      }
    }

    // Sleep until the next actionable instant, whichever comes first:
    // a new arrival / retiring batch / policy change (work_cv_), the
    // earliest batching window still being held open, or the earliest
    // armed request deadline. Every wait is bounded by the first armed
    // deadline — an in-flight deadline always fires without any timer
    // thread.
    std::optional<std::chrono::steady_clock::time_point> wake;
    if (!deadlines_.empty()) wake = deadlines_.begin()->first;
    if (choice.has_waiting &&
        (!wake.has_value() || choice.next_deadline < *wake)) {
      wake = choice.next_deadline;
    }
    if (wake.has_value()) {
      work_cv_.wait_until(lock, *wake);
    } else {
      work_cv_.wait(lock);
    }
  }
}

void Service::runner_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    batch_cv_.wait(lock, [&] {
      return !ready_.empty() || (stopping_ && dispatcher_done_);
    });
    if (ready_.empty()) {
      if (stopping_ && dispatcher_done_) return;  // no more batches form
      continue;
    }
    FormedBatch batch = std::move(ready_.front());
    ready_.pop_front();
    ++executing_batches_;
    stats_.peak_concurrent_batches = std::max<std::uint64_t>(
        stats_.peak_concurrent_batches, executing_batches_);

    lock.unlock();
    run_batch(std::move(batch.items));  // fulfills every promise; no-throw
    lock.lock();

    --executing_batches_;
    --batches_in_flight_;
    graphs_in_flight_.erase(batch.graph);
    for (const auto& [tenant_name, instances] : batch.tenant_instances) {
      tenants_.at(tenant_name).inflight_instances -= instances;
    }
    // Retiring a batch frees scheduler capacity, the graph, and tenant
    // quota — the dispatcher may have been waiting on any of them.
    work_cv_.notify_all();
    if (queue_.empty() && batches_in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace csaw
