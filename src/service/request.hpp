#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/run_result.hpp"
#include "gpusim/cost_model.hpp"
#include "graph/csr.hpp"
#include "util/cancel.hpp"

namespace csaw {

/// Sentinel for SampleRequest::rng_base: the service assigns the next
/// free Philox stream range at admission.
inline constexpr std::uint32_t kAutoRngBase = 0xFFFFFFFFu;

/// One client request to the sampling service: an algorithm from the
/// registry, a registered graph by name, and the seed vertices of each
/// requested instance. Requests are identified by registry coordinates
/// (not raw Policy hooks) so the batching scheduler can prove two queued
/// requests run the same kernels and coalesce them into one engine run.
struct SampleRequest {
  /// Name the graph was registered under (Service::add_graph).
  std::string graph;
  /// Fairness identity: the scheduler's deficit-round-robin pass rotates
  /// across tenants and `ServiceConfig::tenant_quota` bounds each
  /// tenant's in-flight instances, so no tenant can starve the others by
  /// flooding. Free-form (no registration needed); the empty string is a
  /// valid tenant of its own — single-tenant deployments can ignore the
  /// field entirely. Tenancy never reaches the engines: it affects *when*
  /// a request launches, never its bytes.
  std::string tenant;
  AlgorithmId algorithm = AlgorithmId::kBiasedRandomWalk;
  /// Walk length for walk algorithms, tree depth for sampling.
  std::uint32_t depth_or_length = 2;
  std::uint32_t neighbor_size = 2;
  /// seeds[i] holds the seed vertices of requested instance i.
  std::vector<std::vector<VertexId>> seeds;
  /// Philox stream base: instance i of this request draws as global
  /// instance `rng_base + i`, whether the request runs alone or coalesced
  /// into a batch — that id (not execution order) addresses every random
  /// draw, which is what makes the service's determinism contract hold.
  /// kAutoRngBase (the default) lets the service assign the next free
  /// range at admission: each accepted request is then deterministic for
  /// the service's lifetime, but the assignment depends on submission
  /// order across client threads. Pin a base explicitly to make a
  /// request's samples reproducible across service lifetimes; pinned
  /// ranges that overlap are never coalesced into one batch, a pinned
  /// range that would wrap past the sentinel is rejected as oversized,
  /// and admitting a pinned range advances the auto cursor past its end
  /// (so auto requests never collide with it — pinning *below* ranges
  /// the service already handed out is the one collision left to the
  /// client).
  std::uint32_t rng_base = kAutoRngBase;
  /// Cooperative cancellation handle: hold a CancelSource, pass its
  /// token() here, and fire the source to stop the request. Queued
  /// requests are failed at the dispatcher's next pass; in-flight
  /// requests stop at their next per-instance step boundary, keeping
  /// every *other* request of the same batch byte-identical to a run
  /// without the cancellation. The future then fails with a
  /// RequestError whose outcome() is RequestOutcome::kCancelled. A
  /// default (invalid) token means "never cancelled" and adds no
  /// per-step polling cost.
  CancelToken cancel;
  /// Absolute completion deadline. Expired at submit() → rejected with
  /// RejectReason::kDeadlineExpired; expired while queued → failed fast
  /// without dispatching; expired in flight → cancelled at the next
  /// step boundary. Late failures carry RequestOutcome::
  /// kDeadlineExceeded. nullopt (the default) means no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  std::uint32_t num_instances() const noexcept {
    return static_cast<std::uint32_t>(seeds.size());
  }

  /// Convenience: one single-seed instance per vertex of `seed_list`.
  static SampleRequest single_seeds(std::string graph, AlgorithmId algorithm,
                                    std::uint32_t depth_or_length,
                                    std::span<const VertexId> seed_list,
                                    std::uint32_t neighbor_size = 2);
};

/// Why the service refused a request at admission. Every reason has a
/// counter in ServiceStats; kNone means accepted.
enum class RejectReason {
  kNone,
  /// SampleRequest::graph names no registered graph.
  kUnknownGraph,
  /// The request carries zero instances.
  kEmptyRequest,
  /// A seed vertex is out of range for the target graph (caught at
  /// admission so a bad request cannot poison a coalesced batch).
  kInvalidSeed,
  /// More instances than ServiceConfig::max_request_instances, or the
  /// auto-assigned Philox stream space is exhausted.
  kOversizedRequest,
  /// ServiceConfig::max_queue_depth requests already queued.
  kQueueFull,
  /// The service is shutting down.
  kShutdown,
  /// SampleRequest::deadline had already expired at submission.
  kDeadlineExpired,
};

/// Human-readable reason ("queue_full", ...); "accepted" for kNone.
std::string to_string(RejectReason reason);

/// How an *admitted* request ended (admission rejections are
/// RejectReason instead). Everything but kOk reaches the client as a
/// RequestError through the request's future, and each failure kind has
/// its own counter in TenantStats / ServiceStats, so operators can tell
/// client cancellations from deadline misses from I/O faults at a
/// glance.
enum class RequestOutcome {
  kOk,                ///< future holds the RunResult
  kCancelled,         ///< client fired SampleRequest::cancel
  kDeadlineExceeded,  ///< SampleRequest::deadline expired first
  kTransferFailed,    ///< paged I/O exhausted its retry budget
  kShardFailed,       ///< a terminally failed shard held the request's walkers
  kInternal,          ///< any other batch failure
};

/// Human-readable outcome ("ok", "cancelled", ...).
std::string to_string(RequestOutcome outcome);

/// The typed exception an admitted request's future fails with. The
/// outcome says *why*; what() carries the detail (for kTransferFailed,
/// the underlying TransferError message).
class RequestError : public std::runtime_error {
 public:
  RequestError(RequestOutcome outcome, const std::string& what)
      : std::runtime_error(what), outcome_(outcome) {}

  RequestOutcome outcome() const noexcept { return outcome_; }

 private:
  RequestOutcome outcome_;
};

/// Per-tenant slice of ServiceStats, keyed by SampleRequest::tenant.
/// Tenants appear on their first accepted request and are reported in
/// name order.
struct TenantStats {
  std::string tenant;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // --- Failure breakdown by RequestOutcome; sums to `failed`.
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t transfer_failed = 0;
  std::uint64_t shard_failed = 0;
  std::uint64_t internal_errors = 0;
  /// Edges this tenant's own requests sampled (per-request slices, not
  /// whole-batch totals — coalesced neighbors are not charged here).
  std::uint64_t sampled_edges = 0;
  /// Widest in-flight instance footprint the tenant ever held — compare
  /// against ServiceConfig::tenant_quota when tuning it.
  std::uint64_t peak_inflight_instances = 0;
};

/// Monotonic counters of one service's lifetime, snapshotted atomically
/// by Service::stats().
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< all submit() calls, accepted or not
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;  ///< requests whose future holds a RunResult
  std::uint64_t failed = 0;     ///< requests whose future holds an exception

  // --- Failure breakdown by RequestOutcome; sums to `failed`.
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t transfer_failed = 0;
  std::uint64_t shard_failed = 0;
  std::uint64_t internal_errors = 0;

  // --- Admission rejections by reason.
  std::uint64_t rejected_unknown_graph = 0;
  std::uint64_t rejected_empty = 0;
  std::uint64_t rejected_invalid_seed = 0;
  std::uint64_t rejected_oversized = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_deadline_expired = 0;

  // --- Batching effectiveness.
  std::uint64_t batches = 0;  ///< engine runs the dispatcher executed
  /// Requests that shared their engine run with at least one other.
  std::uint64_t coalesced_requests = 0;
  std::uint64_t max_batch_requests = 0;  ///< widest batch, in requests
  std::uint64_t peak_queue_depth = 0;

  // --- Scheduler behavior (concurrent dispatch, deadline, fairness).
  /// Most batches ever executing simultaneously — 2+ proves
  /// independent-graph overlap actually happened (bounded by
  /// ServiceConfig::max_concurrent_batches). Timing-dependent: a batch
  /// may retire before the next runner starts.
  std::uint64_t peak_concurrent_batches = 0;
  /// Most batches simultaneously *formed but not retired* (queued for a
  /// runner or executing) — how much of max_concurrent_batches the
  /// scheduler ever used. Unlike peak_concurrent_batches this is a
  /// scheduling fact, deterministic for a paused-then-resumed request
  /// mix, which is what the gated service_concurrent smoke case checks.
  std::uint64_t peak_inflight_batches = 0;
  /// Batches launched *partial* because their head request's
  /// ServiceConfig::batching_deadline expired before the batch filled.
  std::uint64_t deadline_launches = 0;
  /// Scheduler passes that skipped a request because its tenant's
  /// in-flight instances would exceed ServiceConfig::tenant_quota. A
  /// request may be counted on several passes while it waits; treat this
  /// as pressure, not a request count.
  std::uint64_t quota_deferrals = 0;
  /// Per-tenant counters, in tenant-name order (empty-string tenant
  /// first when present).
  std::vector<TenantStats> tenants;

  // --- Paged traffic through the per-graph demand caches.
  std::uint64_t paged_batches = 0;  ///< batches served by the OOM backend
  /// RunResult::oom of every completed paged batch, accumulated: cache
  /// hits include cross-batch reuse on the same graph, and the cache
  /// counters stay zero under kStepBarrier. A batch that a copy failed
  /// (kTransferFailed) books everything its cache counted for it
  /// (TransferError::paged()): the copies that landed and their bytes,
  /// hits, evictions, prefetches, and the failed copy's faults and
  /// retries (ServiceTelemetry.FailedPagedBatchBooksWhatItsCacheCounted).
  OomMetrics oom;

  // --- Sharded traffic through the walk-shard router
  // (ServiceConfig::shards > 1; all zero when unsharded or when no
  // batch qualified for the routed path).
  std::uint64_t sharded_batches = 0;  ///< batches served by the ShardRouter
  /// RunResult::shard of every completed sharded batch, accumulated
  /// (`failed` stays empty: its indices are run-local). The per-shard
  /// vectors are sized by the widest shard count seen.
  ShardMetrics shard;

  /// RunResult::stats of every completed batch, merged.
  sim::KernelStats kernels;

  // --- Work served.
  std::uint64_t sampled_edges = 0;
  /// Sum of batch makespans (batches stream sequentially through the
  /// device): sampled_edges / sim_seconds is the service's simulated SEPS.
  double sim_seconds = 0.0;

  std::uint64_t rejected_total() const noexcept {
    return rejected_unknown_graph + rejected_empty + rejected_invalid_seed +
           rejected_oversized + rejected_queue_full + rejected_shutdown +
           rejected_deadline_expired;
  }
};

}  // namespace csaw
