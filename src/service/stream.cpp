#include "service/stream.hpp"

#include <algorithm>
#include <utility>

namespace csaw {
namespace detail {

std::size_t stream_push(StreamState& state, std::uint32_t instance,
                        std::vector<Edge>&& edges) {
  std::unique_lock<std::mutex> lock(state.mu);
  // Backpressure: park until the consumer frees a budget slot. Parking
  // happens on the host side of a chain that already finished its
  // simulated work, so neither the bytes nor the simulated timeline
  // depend on consumer speed.
  state.producer_cv.wait(lock, [&] {
    return state.chunks.size() < state.budget || state.abandoned;
  });
  if (state.abandoned) return 0;  // nobody will read it; leave the row
  state.streamed_edges += edges.size();
  state.chunks.push_back(StreamChunk{instance, std::move(edges)});
  state.peak_queued = std::max(state.peak_queued, state.chunks.size());
  state.consumer_cv.notify_one();
  return state.chunks.size();
}

void finish_stream(StreamState& state, RequestOutcome outcome,
                   std::string error) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.finished) return;
    state.finished = true;
    state.outcome = outcome;
    state.error = std::move(error);
  }
  // A parked producer cannot exist here (the run has returned before the
  // service finishes a stream), but an abandoning consumer may be racing
  // cancel(): wake everyone.
  state.consumer_cv.notify_all();
  state.producer_cv.notify_all();
}

std::uint64_t stream_edges(StreamState& state) {
  std::lock_guard<std::mutex> lock(state.mu);
  return state.streamed_edges;
}

}  // namespace detail

SampleStream::~SampleStream() { cancel(); }

std::optional<StreamChunk> SampleStream::next() {
  detail::StreamState& state = *state_;
  std::unique_lock<std::mutex> lock(state.mu);
  state.consumer_cv.wait(lock, [&] {
    return !state.chunks.empty() || state.finished;
  });
  if (!state.chunks.empty()) {
    // Chunks queued before a failure (or before end-of-stream) are
    // delivered first; the outcome only surfaces once the queue drains.
    StreamChunk chunk = std::move(state.chunks.front());
    state.chunks.pop_front();
    ++state.delivered_chunks;
    state.delivered_edges += chunk.edges.size();
    state.producer_cv.notify_one();
    return chunk;
  }
  if (state.outcome == RequestOutcome::kOk) return std::nullopt;
  throw RequestError(state.outcome, state.error);
}

void SampleStream::cancel() {
  detail::StreamState& state = *state_;
  // Fire the request's remaining instances before waking a parked
  // producer: woken first, it could finish the remaining chains and the
  // batch classify the request before the token fires, retiring it kOk.
  // Harmless after the request retired — the token is never read again.
  state.abort.cancel(CancelReason::kRequested);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.abandoned = true;
    state.chunks.clear();
  }
  state.consumer_cv.notify_all();
  state.producer_cv.notify_all();
}

RequestOutcome SampleStream::outcome() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->outcome;
}

std::uint64_t SampleStream::peak_queued() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->peak_queued;
}

std::uint64_t SampleStream::delivered_chunks() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->delivered_chunks;
}

std::uint64_t SampleStream::delivered_edges() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->delivered_edges;
}

}  // namespace csaw
