#include "serve/server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"

namespace qfcard::serve {

namespace {

/// Upper bound on a dispatcher's sleep when no batch has a pending
/// deadline: long enough to stay cheap, short enough that a lost wakeup
/// (impossible by design, cheap insurance anyway) cannot stall a request
/// noticeably.
constexpr double kIdleWaitSeconds = 0.1;

void CountServerRejected(const char* reason) {
  obs::IncrementCounter("serve.route.rejected",
                        std::string("reason=") + reason);
}

}  // namespace

EstimationServer::EstimationServer(ModelRouter* router,
                                   EstimationServerOptions options)
    : router_(router), opts_([&options] {
        // Clamp degenerate knobs: the server is infrastructure and must stay
        // constructible with whatever an operator wires in.
        options.max_batch = std::max<size_t>(1, options.max_batch);
        options.max_pending = std::max<size_t>(1, options.max_pending);
        options.flush_deadline_seconds =
            std::max(0.0, options.flush_deadline_seconds);
        options.num_workers = std::max(0, options.num_workers);
        return options;
      }()) {}

EstimationServer::~EstimationServer() { Stop(); }

void EstimationServer::Start() {
  common::MutexLock lifecycle(&lifecycle_mu_);
  {
    common::MutexLock lock(&mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  // Arm tail sampling: keep the span trees of slow/errored requests out of
  // the ring's eviction path (docs/observability.md).
  if (obs::TraceEnabled() && opts_.trace_tail_threshold_seconds > 0.0) {
    obs::TailSamplingOptions tail;
    tail.enabled = true;
    tail.latency_threshold_seconds = opts_.trace_tail_threshold_seconds;
    obs::TraceBuffer::Global().SetTailSampling(tail);
  }
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void EstimationServer::Stop() {
  common::MutexLock lifecycle(&lifecycle_mu_);
  {
    common::MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    common::MutexLock lock(&mu_);
    // Drain whatever is still queued (everything, when num_workers == 0):
    // blocked clients get real responses from a stopping server, not errors.
    while (FlushOneBatch(/*drain=*/true)) {
    }
    running_ = false;
    stop_ = false;
  }
}

bool EstimationServer::running() const {
  common::MutexLock lock(&mu_);
  return running_ && !stop_;
}

common::StatusOr<est::EstimateResponse> EstimationServer::Estimate(
    const est::EstimateRequest& request) {
  Slot slot;
  QFCARD_RETURN_IF_ERROR(Enqueue(request, &slot));
  return AwaitSlot(&slot);
}

std::vector<common::StatusOr<est::EstimateResponse>>
EstimationServer::EstimateMany(
    const std::vector<est::EstimateRequest>& requests) {
  // All submissions go in before any wait, so concurrent-looking traffic
  // from one client thread still coalesces into shared micro-batches.
  std::vector<Slot> slots(requests.size());
  std::vector<common::Status> admitted(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    admitted[i] = Enqueue(requests[i], &slots[i]);
  }
  std::vector<common::StatusOr<est::EstimateResponse>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!admitted[i].ok()) {
      results.emplace_back(admitted[i]);
    } else {
      results.emplace_back(AwaitSlot(&slots[i]));
    }
  }
  return results;
}

size_t EstimationServer::PendingRequests() const {
  common::MutexLock lock(&mu_);
  return pending_total_;
}

uint64_t EstimationServer::BatchesFlushed() const {
  common::MutexLock lock(&mu_);
  return batches_;
}

common::Status EstimationServer::Enqueue(const est::EstimateRequest& request,
                                         Slot* slot) {
  // Mint the request's trace: the root span id is reserved now so every
  // span of the request — on this thread or a worker — can attach to it,
  // and the root itself (serve.request) is recorded at completion with the
  // request's full latency (tail sampling evaluates that duration).
  const obs::Clock::time_point submit_start = obs::Now();
  const uint64_t trace_id = obs::MintTraceId();
  const obs::TraceContext root_ctx{trace_id, trace_id};
  obs::TraceSpan span("serve.submit", root_ctx);
  uint64_t trace_route = 0;
  // Requests rejected before queueing never reach a worker, so the root
  // span closes here — errored, which tail sampling keeps.
  auto reject = [&](common::Status status) {
    span.MarkError();
    span.End();
    obs::RecordTraceRoot("serve.request", trace_id, submit_start, obs::Now(),
                         trace_route, /*error=*/true);
    return status;
  };
  {
    common::MutexLock lock(&mu_);
    if (!running_ || stop_) {
      CountServerRejected("not-running");
      return reject(common::Status::FailedPrecondition(
          "estimation server is not running"));
    }
  }
  // Rejected here, one request at a time, so a bad literal never fails the
  // micro-batch it would have joined.
  const common::Status literals = query::ValidateLiterals(request.query);
  if (!literals.ok()) return reject(literals);
  // Routing runs outside mu_: the router has its own lock, and an
  // intelligent-policy first sight may build a model.
  common::StatusOr<ModelRouter::Resolution> resolution_or =
      router_->Resolve(request.query, request.options);
  if (!resolution_or.ok()) return reject(resolution_or.status());
  ModelRouter::Resolution resolution = std::move(resolution_or).value();
  trace_route = resolution.route_id;
  span.SetRoute(resolution.route_id);

  common::MutexLock lock(&mu_);
  if (!running_ || stop_) {
    CountServerRejected("not-running");
    return reject(common::Status::FailedPrecondition(
        "estimation server is stopping"));
  }
  if (pending_total_ >= opts_.max_pending) {
    CountServerRejected("queue-full");
    return reject(common::Status::ResourceExhausted(
        "estimation server queue is full (" +
        std::to_string(opts_.max_pending) + " pending requests)"));
  }
  RouteQueue& queue = queues_[resolution.route_id];
  queue.serving = std::move(resolution.serving);
  const obs::Clock::time_point now = obs::Now();
  if (queue.pending.empty()) queue.oldest = now;
  queue.pending.push_back(PendingRequest{request.query, now, slot, root_ctx});
  ++pending_total_;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GaugeNamed("serve.route.queue_depth")
        ->Set(static_cast<int64_t>(pending_total_));
    obs::IncrementCounter("serve.route.requests",
                          "route=" + FormatFss(resolution.route_id));
  }
  if (queue.pending.size() >= opts_.max_batch) {
    // The batch is full: every dispatcher should look for work.
    work_cv_.NotifyAll();
  } else {
    // Wake one dispatcher so it can re-arm its sleep to this request's
    // flush deadline.
    work_cv_.NotifyOne();
  }
  return common::Status::Ok();
}

common::StatusOr<est::EstimateResponse> EstimationServer::AwaitSlot(
    Slot* slot) {
  common::MutexLock lock(&mu_);
  while (!slot->done) done_cv_.Wait(&mu_);
  if (!slot->status.ok()) return slot->status;
  return slot->response;
}

void EstimationServer::WorkerLoop() {
  mu_.Lock();
  while (true) {
    if (FlushOneBatch(/*drain=*/stop_)) continue;
    if (stop_ && pending_total_ == 0) break;
    // Sleep until the earliest pending flush deadline (or idle-long when
    // nothing is queued); any enqueue or Stop notifies.
    double wait = kIdleWaitSeconds;
    const obs::Clock::time_point now = obs::Now();
    for (const auto& [route_id, queue] : queues_) {
      if (queue.pending.empty()) continue;
      const double age = obs::SecondsBetween(queue.oldest, now);
      wait = std::min(wait,
                      std::max(0.0, opts_.flush_deadline_seconds - age));
    }
    work_cv_.WaitFor(&mu_, wait);
  }
  mu_.Unlock();
}

bool EstimationServer::FlushOneBatch(bool drain) {
  const obs::Clock::time_point now = obs::Now();
  RouteQueue* due = nullptr;
  uint64_t due_route = 0;
  for (auto& [route_id, queue] : queues_) {
    if (queue.pending.empty()) continue;
    const bool ready =
        drain || queue.pending.size() >= opts_.max_batch ||
        obs::SecondsBetween(queue.oldest, now) >= opts_.flush_deadline_seconds;
    if (!ready) continue;
    // Fairness: of the due routes, flush the one that has waited longest.
    if (due == nullptr || queue.oldest < due->oldest) {
      due = &queue;
      due_route = route_id;
    }
  }
  if (due == nullptr) return false;

  std::vector<PendingRequest> batch = std::move(due->pending);
  due->pending.clear();
  const std::shared_ptr<ServingEstimator> serving = due->serving;
  pending_total_ -= batch.size();
  ++batches_;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GaugeNamed("serve.route.queue_depth")
        ->Set(static_cast<int64_t>(pending_total_));
  }

  // Execute outside the lock: enqueues and other flushes proceed while this
  // micro-batch featurizes and predicts.
  mu_.Unlock();
  const std::string route_label = "route=" + FormatFss(due_route);
  const obs::Clock::time_point exec_start = obs::Now();
  double exec_seconds = 0.0;
  double featurize_seconds = 0.0;
  double predict_seconds = 0.0;
  std::vector<est::EstimateResponse> responses(batch.size());
  const common::Status status = [&]() -> common::Status {
    // Re-attach to the first member's trace across the thread boundary;
    // every other member joins as a follow-from link, and each member gets
    // a serve.queue_wait span (admission -> execution) under its own root.
    obs::TraceSpan span("serve.batch", batch.front().ctx);
    span.SetRoute(due_route);
    for (const PendingRequest& p : batch) {
      obs::RecordSpan("serve.queue_wait", p.ctx, p.enqueued, exec_start,
                      due_route);
      span.AddLink(p.ctx.trace_id);
    }
    obs::ScopedTimer exec_timer("serve.route.exec_seconds", route_label);
    // Stage capture: the backend's featurize/predict blocks report their
    // seconds here, giving every member its attribution split.
    obs::StageCapture capture;
    std::vector<query::Query> queries;
    queries.reserve(batch.size());
    for (PendingRequest& p : batch) queries.push_back(std::move(p.query));
    common::Status result = serving->EstimateInto(queries, responses);
    if (!result.ok()) span.MarkError();
    exec_seconds = exec_timer.Seconds();
    featurize_seconds = capture.seconds(obs::Stage::kFeaturize);
    predict_seconds = capture.seconds(obs::Stage::kPredict);
    return result;
  }();
  obs::IncrementCounter("serve.route.batches", route_label);

  // Stamp provenance and per-request latency (queue wait + execution)
  // before publishing the slots.
  const obs::Clock::time_point completed = obs::Now();
  if (status.ok()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      responses[i].route_id = due_route;
      responses[i].latency_seconds =
          obs::SecondsBetween(batch[i].enqueued, completed);
      responses[i].trace_id = batch[i].ctx.trace_id;
      responses[i].stages.queue_wait_seconds =
          obs::SecondsBetween(batch[i].enqueued, exec_start);
      responses[i].stages.batch_exec_seconds = exec_seconds;
      responses[i].stages.featurize_seconds = featurize_seconds;
      responses[i].stages.predict_seconds = predict_seconds;
      obs::ObserveLatency("serve.route.latency_seconds",
                          responses[i].latency_seconds, route_label);
      const est::StageBreakdown& stages = responses[i].stages;
      obs::ObserveLatency("serve.request.stage_seconds",
                          stages.queue_wait_seconds, "stage=queue_wait");
      obs::ObserveLatency("serve.request.stage_seconds",
                          stages.batch_exec_seconds, "stage=batch_exec");
      obs::ObserveLatency("serve.request.stage_seconds",
                          stages.featurize_seconds, "stage=featurize");
      obs::ObserveLatency("serve.request.stage_seconds",
                          stages.predict_seconds, "stage=predict");
    }
  }
  // Close out every member's trace root with its full latency — the
  // duration the tail-sampling keep-policy evaluates. Recorded after the
  // children, so a kept root protects a tree that is already in the ring.
  for (const PendingRequest& p : batch) {
    obs::RecordTraceRoot("serve.request", p.ctx.trace_id, p.enqueued,
                         completed, due_route, !status.ok());
  }
  if (obs::MetricsEnabled()) {
    const obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
    obs::MetricsRegistry::Global()
        .GaugeNamed("serve.trace.sampled")
        ->Set(static_cast<int64_t>(buffer.TailSampledTraces()));
    obs::MetricsRegistry::Global()
        .GaugeNamed("serve.trace.dropped")
        ->Set(static_cast<int64_t>(buffer.TailDroppedSpans()));
  }

  mu_.Lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (status.ok()) {
      batch[i].slot->response = std::move(responses[i]);
    } else {
      batch[i].slot->status = status;
    }
    batch[i].slot->done = true;
  }
  done_cv_.NotifyAll();
  return true;
}

}  // namespace qfcard::serve
