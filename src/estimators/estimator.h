#ifndef QFCARD_ESTIMATORS_ESTIMATOR_H_
#define QFCARD_ESTIMATORS_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "estimators/request.h"
#include "query/query.h"

namespace qfcard::est {

/// A cardinality estimator: maps a (possibly joined, possibly mixed) count
/// query to an estimated result size >= 1. Implementations cover the
/// paper's comparison set: the Postgres-style independence estimator,
/// Bernoulli sampling, QFT x ML model combinations, and the true-cardinality
/// oracle.
///
/// The API is batch-first (docs/batch_api.md): EstimateInto is the one
/// estimation virtual, and EstimateCard / Estimate / EstimateRequests /
/// EstimateBatch are non-virtual helpers over it. Implementations must keep
/// EstimateInto const-thread-safe; estimators with per-call random state
/// (see SamplingEstimator) derive a deterministic per-query stream so batch
/// results are byte-identical to the serial loop at any pool size — and
/// therefore independent of how a batching layer groups queries, which is
/// what makes the estimation server's cross-request micro-batching
/// transparent (docs/serving.md).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Answers `queries[i]` into `out[i]` (the spans have equal length, and
  /// `out` holds default responses on entry). Sets `estimate` (clamped to
  /// >= 1 by convention) plus whatever provenance the estimator owns — the
  /// adaptive front's tier, ServingEstimator's model version. On failure
  /// returns the error of the smallest failing index (what a serial loop
  /// would hit first); `out` is then unspecified.
  virtual common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const = 0;

  /// Estimated result cardinality of `q`.
  common::StatusOr<double> EstimateCard(const query::Query& q) const;

  /// Serves one EstimateRequest; stamps latency_seconds.
  common::StatusOr<EstimateResponse> Estimate(
      const EstimateRequest& request) const;

  /// Serves a batch of requests, one response per request in input order,
  /// each stamped with the whole call's latency_seconds.
  common::StatusOr<std::vector<EstimateResponse>> EstimateRequests(
      const std::vector<EstimateRequest>& requests) const;

  /// Estimates every query, returning one cardinality per query in input
  /// order.
  common::StatusOr<std::vector<double>> EstimateBatch(
      const std::vector<query::Query>& queries) const;

  /// Trains the estimator on labeled queries (`cards` are true cardinalities
  /// in natural space; a `valid_fraction` tail/holdout drives early stopping
  /// where the model supports it). Statistics-based estimators need no
  /// training: the default is a no-op returning OK, which lets registry
  /// consumers (est::MakeEstimator) treat every estimator uniformly.
  virtual common::Status Train(const std::vector<query::Query>& queries,
                               const std::vector<double>& cards,
                               double valid_fraction, uint64_t seed);

  /// Label used in reports.
  virtual std::string name() const = 0;

  /// Approximate memory footprint of the estimator's state (Section 5.7).
  virtual size_t SizeBytes() const { return 0; }
};

/// Runs `batch` — one leaf backend's EstimateInto work over `queries`
/// queries — inside the estimate.batch span, the
/// estimate.batch_seconds{backend} timing and the estimate.queries{backend}
/// count, and returns its status. `batch` receives the "backend=<name>"
/// label for its own sub-stage series, or "" when metrics were off at the
/// start (then it records none). Wrappers (ServingEstimator, the adaptive
/// front, LoadedEstimator) call none of this, so every series carries the
/// leaf's backend= label and spans nest serve.batch > estimate.batch >
/// estimate.featurize|predict.
common::Status ObserveBatch(
    const CardinalityEstimator& backend, size_t queries,
    common::FunctionRef<common::Status(const std::string& label)> batch);

/// EstimateInto for per-query backends: answers out[i].estimate =
/// estimate_one(i) for every index on the global thread pool, inside
/// ObserveBatch, returning the smallest failing index's error.
common::Status EstimateEach(
    const CardinalityEstimator& backend, std::span<const query::Query> queries,
    std::span<EstimateResponse> out,
    common::FunctionRef<common::StatusOr<double>(size_t)> estimate_one);

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_ESTIMATOR_H_
