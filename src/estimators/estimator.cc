#include "estimators/estimator.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::est {

common::StatusOr<double> CardinalityEstimator::EstimateCard(
    const query::Query& q) const {
  EstimateResponse response;
  QFCARD_RETURN_IF_ERROR(EstimateInto({&q, 1}, {&response, 1}));
  return response.estimate;
}

common::StatusOr<EstimateResponse> CardinalityEstimator::Estimate(
    const EstimateRequest& request) const {
  obs::ScopedTimer timer;
  EstimateResponse response;
  QFCARD_RETURN_IF_ERROR(EstimateInto({&request.query, 1}, {&response, 1}));
  response.latency_seconds = timer.Seconds();
  return response;
}

common::StatusOr<std::vector<EstimateResponse>>
CardinalityEstimator::EstimateRequests(
    const std::vector<EstimateRequest>& requests) const {
  obs::ScopedTimer timer;
  std::vector<query::Query> queries;
  queries.reserve(requests.size());
  for (const EstimateRequest& request : requests) {
    queries.push_back(request.query);
  }
  std::vector<EstimateResponse> responses(requests.size());
  QFCARD_RETURN_IF_ERROR(EstimateInto(queries, responses));
  const double elapsed = timer.Seconds();
  for (EstimateResponse& response : responses) {
    response.latency_seconds = elapsed;
  }
  return responses;
}

common::StatusOr<std::vector<double>> CardinalityEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) const {
  std::vector<EstimateResponse> responses(queries.size());
  QFCARD_RETURN_IF_ERROR(EstimateInto(queries, responses));
  std::vector<double> out;
  out.reserve(responses.size());
  for (const EstimateResponse& response : responses) {
    out.push_back(response.estimate);
  }
  return out;
}

common::Status CardinalityEstimator::Train(
    const std::vector<query::Query>& queries, const std::vector<double>& cards,
    double valid_fraction, uint64_t seed) {
  (void)queries;
  (void)cards;
  (void)valid_fraction;
  (void)seed;
  return common::Status::Ok();  // statistics-based estimators are train-free
}

common::Status ObserveBatch(
    const CardinalityEstimator& backend, size_t queries,
    common::FunctionRef<common::Status(const std::string& label)> batch) {
  obs::TraceSpan span("estimate.batch");
  // The label is only read by the metrics: with them off, skip building it
  // (a heap allocation per batch) and the timing.
  if (!obs::MetricsEnabled()) return batch("");
  const std::string label = "backend=" + backend.name();
  obs::IncrementCounter("estimate.queries", label,
                        static_cast<uint64_t>(queries));
  obs::ScopedTimer timer("estimate.batch_seconds", label);
  return batch(label);
}

common::Status EstimateEach(
    const CardinalityEstimator& backend, std::span<const query::Query> queries,
    std::span<EstimateResponse> out,
    common::FunctionRef<common::StatusOr<double>(size_t)> estimate_one) {
  return ObserveBatch(backend, queries.size(), [&](const std::string&) {
    return common::GlobalPool().ParallelForStatus(
        static_cast<int64_t>(queries.size()),
        [&](int64_t i) -> common::Status {
          const size_t idx = static_cast<size_t>(i);
          QFCARD_ASSIGN_OR_RETURN(out[idx].estimate, estimate_one(idx));
          return common::Status::Ok();
        });
  });
}

}  // namespace qfcard::est
