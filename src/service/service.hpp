#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sampler.hpp"
#include "service/request.hpp"
#include "shard/partition_map.hpp"
#include "service/stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/fault_injector.hpp"

namespace csaw {

/// Thrown by the blocking Service::sample wrapper when admission refuses
/// the request (the async submit() reports the same condition as a typed
/// RejectReason instead).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string what, RejectReason reason)
      : std::runtime_error(std::move(what)), reason_(reason) {}
  RejectReason reason() const noexcept { return reason_; }

 private:
  RejectReason reason_;
};

/// Configuration of one csaw::Service. Every knob is documented with its
/// tuning guidance in docs/SERVING.md.
struct ServiceConfig {
  /// Execution options every batch runs with. `mode` is normally left on
  /// kAuto so each batch picks in-memory / out-of-memory / multi-device
  /// from its graph's footprint (the facade's existing selection logic).
  /// The service addresses Philox streams through per-request rng_base
  /// tags.
  SamplerOptions options;
  /// Admission bound: requests queued but not yet dispatched.
  std::uint32_t max_queue_depth = 256;
  /// Admission bound: instances (seed lists) one request may carry.
  std::uint32_t max_request_instances = 1024;
  /// Batching bound: instances one coalesced engine run may carry.
  std::uint32_t max_batch_instances = 4096;
  /// Scheduling bound: batches that may be in flight simultaneously. The
  /// scheduler never overlaps two batches of the *same* graph (paged
  /// graphs share residency state and same-graph batches coalesce
  /// anyway), so overlap happens across independent graphs — each batch
  /// runs on its own batch-runner thread, all sharing one host
  /// ThreadPool whose external-slot capacity is sized to this knob.
  /// 1 restores the serialized PR 4 dispatcher.
  std::uint32_t max_concurrent_batches = 2;
  /// Latency-aware batching: how long the scheduler may hold a batch
  /// head open to coalesce later arrivals before launching the batch
  /// partial. 0 (the default) launches immediately with whatever is
  /// queued; a batch that reaches max_batch_instances launches before
  /// its deadline either way. Deadline-expired launches are counted in
  /// ServiceStats::deadline_launches.
  std::chrono::microseconds batching_deadline{0};
  /// Fairness bound: in-flight instances one tenant (SampleRequest::
  /// tenant) may hold across all its batches; requests over the bound
  /// stay queued (never rejected) until the tenant's earlier batches
  /// retire. 0 = unbounded.
  std::uint32_t tenant_quota = 0;
  /// Deficit-round-robin credit (in *estimated sampled edges*, see
  /// Service::estimated_edge_cost) a tenant earns per scheduling turn:
  /// tenants submitting expensive requests — many instances, long walks,
  /// wide sampling trees — wait proportionally more turns than
  /// cheap-request tenants. Edge denomination closes the under-charging
  /// hole of the old instance-count quantum, where a tenant flooding
  /// 8×length-512 walks paid the same per request as one submitting
  /// 8×length-8 walks. 0 = auto (max(1, max_request_instances / 4) * 32
  /// edges — the old instance quantum at a nominal 32 edges/instance).
  std::uint64_t fairness_quantum = 0;
  /// Start with the dispatcher paused (tests and benches queue a known
  /// request mix first, then resume() to get deterministic batching).
  bool start_paused = false;
  /// Sharded serving (src/shard/): with shards > 1, walk-shaped
  /// in-memory batches route through a ShardRouter — the graph's
  /// vertices partitioned across this many shard workers, walkers
  /// forwarded over the simulated transport when a step crosses a
  /// shard boundary. Samples are byte-identical to the unsharded path
  /// at any shard count (tests/shard/service_shard_test.cpp); what
  /// changes is the simulated timeline and the failure domains
  /// (RequestOutcome::kShardFailed). Batches that don't qualify —
  /// paged graphs, non-walk specs, multi-seed instances — silently run
  /// the ordinary path. 1 (the default) is exactly today's path.
  std::uint32_t shards = 1;
  /// Optional deterministic envelope fault injector shared by every
  /// sharded batch, keyed by destination shard (tests script
  /// drops/delays/terminal shard death). Envelope deliveries retry under
  /// options.transfer_retry, the paged path's policy. With `shards`, this
  /// makes the router's ShardOptions (the envelope and queue bounds keep
  /// the router's defaults); its seed, SELECT, threads, retry policy and
  /// device come from `options`.
  std::shared_ptr<FaultInjector> shard_faults;
  /// Streaming delivery (Service::submit_streaming): in-flight chunks one
  /// stream may queue before its producer parks — the backpressure bound.
  /// A slow consumer therefore pins at most this many instances' edges
  /// (plus one in-flight row per engine worker), never the whole run.
  /// Parking costs host time only; samples and simulated timing are
  /// consumer-speed-independent. At least 1.
  std::uint32_t stream_chunk_budget = 8;
  /// Per-request tracing (docs/OBSERVABILITY.md): when set, the service
  /// emits admission/queue/batch spans and threads the recorder through
  /// the engines (chain spans) and the partition cache (transfer spans);
  /// export with TraceRecorder::json(). Null (the default) keeps every
  /// hot-path site at a single pointer test — samples, sim_seconds and
  /// the gated trajectory metrics are bit-identical either way.
  std::shared_ptr<telemetry::TraceRecorder> trace;
};

/// Point-in-time operational snapshot (Service::health()) — the liveness
/// view an operator or load balancer polls, as opposed to the lifetime
/// counters of Service::stats().
struct ServiceHealth {
  /// Most retired requests the recent-outcome window covers.
  static constexpr std::uint64_t kWindowCapacity = 256;

  bool accepting = true;  ///< false once shutdown began
  bool paused = false;
  std::uint64_t queue_depth = 0;        ///< admitted, not yet in a batch
  std::uint32_t inflight_batches = 0;   ///< formed (ready or executing)
  std::uint32_t executing_batches = 0;  ///< inside an engine run
  std::uint64_t timed_requests = 0;     ///< deadlines armed, not yet fired
  /// Recent-outcome window: of the last `window` retired requests (at
  /// most kWindowCapacity), how many failed. A rising ratio flags a
  /// fault burst long before lifetime counters move.
  std::uint64_t window = 0;
  std::uint64_t recent_failures = 0;
  // --- Outcome breakdown of the same window; counts sum to `window`.
  std::uint64_t recent_ok = 0;
  std::uint64_t recent_cancelled = 0;
  std::uint64_t recent_deadline_exceeded = 0;
  std::uint64_t recent_transfer_failed = 0;
  std::uint64_t recent_shard_failed = 0;
  std::uint64_t recent_internal = 0;
  /// Derived fractions over the window (all 0 while the window is
  /// empty). ok_rate + cancelled_rate + deadline_rate +
  /// transfer_failed_rate + shard_failed_rate + internal_rate == 1
  /// otherwise.
  double ok_rate = 0.0;
  double cancelled_rate = 0.0;
  double deadline_rate = 0.0;
  double transfer_failed_rate = 0.0;
  double shard_failed_rate = 0.0;
  double internal_rate = 0.0;
};

/// Result of Service::submit: a typed admission verdict plus, when
/// accepted, the future the dispatcher will fulfill.
struct Submission {
  /// kNone when the request was admitted.
  RejectReason rejected = RejectReason::kNone;
  /// Admission order (1-based); 0 when rejected.
  std::uint64_t ticket = 0;
  /// The assigned (or pinned) Philox stream base; Sampler::run_tagged
  /// with tags rng_base..rng_base+k-1 over the request's k seed lists
  /// reproduces the request's bytes.
  std::uint32_t rng_base = 0;
  /// Valid only when accepted. Holds the request's RunResult, or the
  /// exception its batch failed with.
  std::future<RunResult> result;

  bool accepted() const noexcept { return rejected == RejectReason::kNone; }
};

/// One registry entry's residency plan, as reported by Service::graphs().
struct GraphResidency {
  std::string name;
  std::uint64_t bytes = 0;
  /// Whether the graph's CSR footprint exceeds the configured device
  /// budget (same measure kAuto uses): paged graphs run the
  /// out-of-memory backend and share one PartitionedGraph across batches.
  bool paged = false;
  /// True once the shared partitioning has been built (lazily, on the
  /// first paged batch).
  bool partitions_built = false;
  /// Byte budget of the demand cache this graph's batches run with: its
  /// slice of the device budget, memory_budget_fraction × device memory ÷
  /// registered paged graphs. 0 until the first paged batch builds the
  /// cache, and always 0 under kStepBarrier or multi-device.
  std::uint64_t cache_budget_bytes = 0;
  /// Bytes of this graph's partitions the cache held when its last paged
  /// batch finished (at most cache_budget_bytes, unless one partition
  /// alone exceeds it).
  std::uint64_t cache_resident_bytes = 0;
};

/// The serving tier above csaw::Sampler: a long-lived, multi-tenant
/// sampling service. Clients register named graphs once, then submit
/// SampleRequests from any number of threads; a scheduler thread forms
/// batches of compatible queued requests (same graph, same registry
/// algorithm + parameters) and up to max_concurrent_batches batch-runner
/// threads execute independent-graph batches simultaneously on one
/// shared host pool. Batch formation is policy-driven: a deficit-round-
/// robin pass across tenants picks each batch's head (so no tenant can
/// monopolize dispatch), tenant_quota bounds any tenant's in-flight
/// instances, and batching_deadline trades a bounded wait for fuller
/// batches. The full operator guide is docs/SERVING.md.
///
/// Determinism contract (tests/service/): a request's samples are
/// byte-identical whether it ran alone, coalesced into any batch, or
/// concurrently with other batches, at any host thread count — every
/// instance draws from the Philox stream addressed by `rng_base + i`,
/// carried through the engines as a per-instance tag (the `tags` of
/// Sampler::run_tagged), so batch composition, scheduling
/// policy and execution order are invisible in the bytes. What batching
/// *does* change is the simulated schedule: a request's RunResult
/// reports the makespan and stats of the batch it rode on.
///
/// Shutdown is graceful: already-admitted requests are drained, new ones
/// are rejected with RejectReason::kShutdown. The destructor shuts down.
class Service {
 public:
  explicit Service(ServiceConfig config = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const ServiceConfig& config() const noexcept { return config_; }

  /// Registers `graph` under `name` (rejects duplicates with CheckError).
  /// Safe to call while the service is running; requests naming the graph
  /// admit from that point on. The registry computes the graph's
  /// residency plan once: footprint vs. the configured device budget
  /// decides whether batches on it will page, and paged graphs get one
  /// shared PartitionedGraph reused by every batch.
  void add_graph(std::string name, std::shared_ptr<const CsrGraph> graph);
  void add_graph(std::string name, CsrGraph graph);

  /// Residency plans of all registered graphs, in name order.
  std::vector<GraphResidency> graphs() const;

  /// Asynchronous entry point: validates the request (admission control)
  /// and either queues it, returning the future its batch will fulfill,
  /// or rejects it with a typed reason. Never blocks on sampling work.
  /// Thread-safe; any number of client threads may submit concurrently.
  Submission submit(SampleRequest request);

  /// Streaming entry point: same admission control, batching, fairness
  /// and fault taxonomy as submit(), but the result arrives as a
  /// SampleStream yielding each instance's complete sample the moment
  /// its pipelined chain finishes, instead of one buffered RunResult.
  /// The concatenation of a stream's chunks, ordered by their
  /// request-local instance index, is byte-identical to the RunResult
  /// submit() would have returned — at any thread count, execution mode
  /// and consumer speed (tests/service/service_stream_test.cpp). A slow
  /// consumer exerts backpressure bounded by
  /// ServiceConfig::stream_chunk_budget; cancellation and deadlines
  /// surface mid-stream as RequestError after the already-completed
  /// chunks drain. Dropping the stream cancels the request's remaining
  /// instances.
  StreamSubmission submit_streaming(SampleRequest request);

  /// Blocking convenience wrapper: submit + wait. Throws ServiceError on
  /// rejection and rethrows the batch's exception on failure.
  RunResult sample(SampleRequest request);

  /// Pauses the dispatcher: admitted requests queue up (admission bounds
  /// still apply) until resume(); batches already formed or in flight
  /// finish. Deterministic-batching hook for tests and benches.
  void pause();
  void resume();

  /// Blocks until the queue is empty and no batch is formed or in
  /// flight. Call resume() first if the service is paused — a paused
  /// nonempty queue never drains.
  void drain();

  /// Stops admission (kShutdown), drains already-admitted requests and
  /// joins the scheduler + batch-runner threads. Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Atomic snapshot of the lifetime counters (including the per-tenant
  /// slice).
  ServiceStats stats() const;

  /// Point-in-time operational snapshot: admission state, queue and
  /// batch depths, armed deadlines, and the recent-outcome failure
  /// window with derived rates (see ServiceHealth).
  ServiceHealth health() const;

  /// Prometheus-style text exposition of the whole service: lifetime
  /// counters (ServiceStats and the per-tenant slice), the health
  /// snapshot as gauges, accumulated kernel stats, and the always-on
  /// latency/occupancy histograms. Families sorted by name, samples by
  /// label — byte-stable for a fixed counter state (the golden test).
  /// Thread-safe; metric catalog in docs/OBSERVABILITY.md.
  std::string metrics_text() const;

  /// Snapshot of one always-on histogram by metric name (e.g.
  /// "csaw_request_queue_wait_seconds"); empty snapshot for unknown
  /// names. perfbench reads its serving workloads' latencies from these.
  telemetry::HistogramSnapshot histogram(const std::string& name) const;

  /// The deficit-round-robin cost of one request, in estimated sampled
  /// edges: instances × walk length for walk algorithms (one neighbor
  /// per step), instances × the geometric tree size
  /// sum_{d=1..depth}(neighbor_size^d), saturated, for sampling
  /// algorithms. An *estimate* — actual sampled edges depend on the
  /// graph — but a scheduling weight only needs the right ratios:
  /// short-walk tenants stop underpaying long-walk and wide-tree ones.
  static std::uint64_t estimated_edge_cost(const SampleRequest& request);

 private:
  struct GraphEntry {
    std::shared_ptr<const CsrGraph> graph;
    bool paged = false;
    /// Built by the first paged batch on this graph, under mu_.
    std::shared_ptr<const PartitionedGraph> parts;
    /// Demand-driven partition cache shared by this graph's paged
    /// single-device kPipelined batches. Published under mu_; *used* outside it by at
    /// most one batch at a time — the per-graph batch serialization
    /// (graphs_in_flight_) is what makes the unsynchronized cache sound.
    std::shared_ptr<PartitionCache> cache;
    /// Snapshots of the cache's byte budget and, after each paged batch,
    /// its resident bytes for graphs() (reading the cache itself from
    /// graphs() would race with an executing batch).
    std::uint64_t cache_budget_bytes = 0;
    std::uint64_t cache_resident_bytes = 0;
    /// Vertex partitioning shared by this graph's sharded batches
    /// (ServiceConfig::shards > 1). Built by the first routed batch,
    /// published under mu_; per-graph batch serialization makes the
    /// lazy build race-free.
    std::shared_ptr<const ShardPartitionMap> shard_map;
  };

  /// One admitted request waiting for (or riding in) a batch.
  struct Pending {
    SampleRequest request;
    std::uint64_t ticket = 0;
    std::uint32_t rng_base = 0;
    /// Admission time: anchors the batching_deadline of any batch this
    /// request heads.
    std::chrono::steady_clock::time_point enqueued;
    /// Batch-formation time (set in form_batch_locked) — the boundary
    /// between the queue-wait and in-flight latency histograms.
    std::chrono::steady_clock::time_point dispatched;
    /// Trace span ids while a recorder is attached (0 otherwise): the
    /// whole-lifetime request span (admission → outcome) and the queue
    /// span (admission → batch formation or queue failure).
    std::uint64_t request_span = 0;
    std::uint64_t queue_span = 0;
    /// The token the engines poll for this request's instances: the
    /// service-owned linked source's token when a deadline is armed
    /// (client cancel chains through), the client token alone otherwise,
    /// or invalid — inert, no polling — for a plain request.
    CancelToken run_token;
    std::promise<RunResult> promise;
    /// Non-null for streaming requests: the chunk queue run_batch's
    /// completion bridge feeds and the client's SampleStream drains. A
    /// streaming request's promise is never fulfilled — the stream's
    /// terminal outcome replaces it. The stream's abandon source is the
    /// base of run_token's chain.
    std::shared_ptr<detail::StreamState> stream;
  };

  /// Scheduler-side per-tenant state (under mu_): the deficit-round-
  /// robin credit, the in-flight instance count tenant_quota bounds, and
  /// the lifetime counters stats() reports.
  struct TenantState {
    std::uint64_t deficit = 0;
    std::uint32_t inflight_instances = 0;
    TenantStats stats;
  };

  /// A batch the dispatcher formed, queued for (or claimed by) a batch
  /// runner. Graph/tenant bookkeeping stays behind so the runner can
  /// release it after run_batch consumed the items.
  struct FormedBatch {
    std::vector<Pending> items;
    std::string graph;
    /// Instances per tenant, released from inflight_instances on retire.
    std::map<std::string, std::uint32_t> tenant_instances;
  };

  /// The queue members a batch headed by one request would take right
  /// now (plan_batch_locked).
  struct BatchPlan {
    /// Queue indices: the head first, then the rest in queue order.
    std::vector<std::size_t> members;
    /// Compatible requests passed over because their tenant's quota
    /// could not hold them.
    std::uint64_t quota_skips = 0;
  };

  /// How one request leaves the service: its typed outcome plus what its
  /// client receives — `result` for kOk, `error` otherwise.
  struct Retirement {
    RequestOutcome outcome = RequestOutcome::kOk;
    RunResult result;
    std::string error;
  };

  /// Outcome of one scheduling pass over the queue (under mu_).
  struct HeadChoice {
    bool found = false;              ///< a launchable head was selected
    std::size_t queue_index = 0;     ///< its position in queue_
    bool by_deadline = false;        ///< launches partial: deadline expired
    /// When !found but eligible heads are waiting out their deadline:
    /// the earliest launch time among them.
    bool has_waiting = false;
    std::chrono::steady_clock::time_point next_deadline{};
  };

  /// Shared admission path of submit() and submit_streaming(): validates,
  /// assigns the Philox range and enqueues. `stream` is null for buffered
  /// requests; when non-null it becomes the Pending's chunk queue and its
  /// abandon source replaces the client token at the base of the
  /// run-token chain.
  Submission submit_impl(SampleRequest request,
                         std::shared_ptr<detail::StreamState> stream);
  /// Bumps the per-reason rejection counter (under mu_).
  void count_rejection_locked(RejectReason reason);
  /// Fires the cancel source (reason kDeadline) of every armed deadline
  /// <= now and disarms it: queued requests are condemned for the next
  /// sweep, in-flight ones stop at their next step boundary (under mu_).
  void expire_deadlines_locked(std::chrono::steady_clock::time_point now);
  /// Fails every still-queued request whose token has fired (client
  /// cancel or expired deadline) without dispatching it (under mu_).
  void sweep_queue_locked();
  /// The one batch planner: which queued requests a batch headed by
  /// queue_[head_index] would take — compatible ones that fit
  /// max_batch_instances and their tenant's quota, with no Philox-range
  /// overlap. Head selection probes it ("is this head full?"); formation
  /// takes exactly its members (under mu_).
  BatchPlan plan_batch_locked(std::size_t head_index) const;
  /// One deficit-round-robin scheduling pass: picks the next launchable
  /// batch head among eligible queued requests (graph not in flight,
  /// tenant under quota), or reports the earliest pending deadline.
  HeadChoice select_head_locked(std::chrono::steady_clock::time_point now);
  /// Moves the planned members of the batch headed by queue_[head_index]
  /// out of the queue, in rng_base order, and books the graph/tenant
  /// in-flight state (under mu_).
  FormedBatch form_batch_locked(std::size_t head_index);
  /// Plan → execute → retire for one formed batch: flattens its
  /// instances, runs them through execute_batch and retires every rider
  /// (batch-runner thread, outside mu_). Never throws a batch failure.
  void run_batch(std::vector<Pending> batch);
  /// Runs one batch's flat instance list on its graph's backend — the
  /// ShardRouter for sharded walk batches, else a Sampler on the shared
  /// pool that pages through the graph's shared partitioning and cache —
  /// and returns the whole-batch result (outside mu_).
  RunResult execute_batch(const SampleRequest& head,
                          std::span<const std::vector<VertexId>> seeds,
                          std::span<const std::uint32_t> tags,
                          const RunControl& control);
  /// The one retire path (under mu_): books every rider's `fates` entry
  /// into the lifetime counters, its tenant's slice and the health
  /// window (and, for an executed batch, `whole`), disarms its deadline
  /// and drops its cancel source, then closes its spans and delivers
  /// through its stream or promise.
  /// `batch_id` 0 means the riders died in the queue; `whole` is null
  /// there and for a failed batch.
  void retire_locked(std::vector<Pending>& riders,
                     std::vector<Retirement>& fates, std::uint64_t batch_id,
                     const RunResult* whole);
  void dispatcher_main();
  void runner_main();

  ServiceConfig config_;
  std::uint64_t quantum_ = 1;  ///< resolved fairness_quantum (edges/turn)
  /// The host pool shared by every batch's engines; its external-slot
  /// capacity admits max_concurrent_batches runner threads. Null when
  /// the resolved width is 1 (runners then drive serial engines).
  std::shared_ptr<sim::ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< dispatcher: queue/capacity/policy
  std::condition_variable batch_cv_;  ///< runners: formed batch ready / stop
  std::condition_variable idle_cv_;   ///< drain()/shutdown() progress
  std::map<std::string, GraphEntry> graphs_;
  std::deque<Pending> queue_;
  std::deque<FormedBatch> ready_;  ///< formed, not yet claimed by a runner
  /// Graphs with a formed or executing batch — the scheduler never
  /// overlaps two batches of one graph.
  std::set<std::string> graphs_in_flight_;
  std::map<std::string, TenantState> tenants_;
  /// Deficit-round-robin rotation: tenants in first-seen order plus the
  /// cursor of the next turn.
  std::vector<std::string> tenant_ring_;
  std::size_t ring_cursor_ = 0;
  std::uint32_t batches_in_flight_ = 0;   ///< formed (ready or executing)
  std::uint32_t executing_batches_ = 0;   ///< inside run_batch
  bool paused_ = false;
  bool stopping_ = false;
  bool dispatcher_done_ = false;  ///< dispatcher exited; no more batches form
  /// Set (and idle_cv_ notified) once all threads have been joined;
  /// concurrent shutdown() callers wait on it instead of double-joining.
  bool shutdown_complete_ = false;
  std::uint64_t next_ticket_ = 1;
  std::uint32_t next_rng_base_ = 0;
  ServiceStats stats_;
  /// Always-on telemetry: the latency/occupancy histograms live here and
  /// record regardless of tracing (observation is a few relaxed atomic
  /// adds). metrics_text() merges a counter view of stats_ over it.
  telemetry::MetricsRegistry metrics_;
  /// Pre-resolved instruments (registration takes the registry mutex;
  /// the hot paths must not).
  telemetry::Histogram* h_queue_wait_ = nullptr;
  telemetry::Histogram* h_batch_formation_ = nullptr;
  telemetry::Histogram* h_inflight_ = nullptr;
  telemetry::Histogram* h_inflight_sim_ = nullptr;
  telemetry::Histogram* h_batch_sim_ = nullptr;
  telemetry::Histogram* h_transfer_retries_ = nullptr;
  telemetry::Histogram* h_stream_occupancy_ = nullptr;
  /// Batch ids for trace attribution (monotonic; a runner takes one per
  /// run_batch outside mu_).
  std::atomic<std::uint64_t> next_batch_id_{1};
  /// Armed request deadlines as (deadline, ticket), earliest first: one
  /// entry per admitted request with a deadline, from admission until it
  /// fires or the request retires. No timer threads — the dispatcher
  /// bounds its waits with the first entry.
  std::set<std::pair<std::chrono::steady_clock::time_point, std::uint64_t>>
      deadlines_;
  /// ticket -> the service-owned cancel source of each deadline-armed
  /// request (what expire_deadlines_locked fires). Erased at retirement.
  std::map<std::uint64_t, CancelSource> timed_;
  /// Outcomes of the last ServiceHealth::kWindowCapacity retired
  /// requests (the Service::health() failure window).
  std::deque<RequestOutcome> recent_;

  /// Started last: every other member is initialized before any thread
  /// can observe the service. Runners execute formed batches; the
  /// dispatcher owns all batching/fairness policy.
  std::vector<std::thread> runners_;
  std::thread dispatcher_;
};

}  // namespace csaw
