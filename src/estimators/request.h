#ifndef QFCARD_ESTIMATORS_REQUEST_H_
#define QFCARD_ESTIMATORS_REQUEST_H_

#include <cstdint>
#include <string>

#include "query/query.h"

namespace qfcard::est {

/// Which estimation tier produced a response (docs/adaptive.md). Plain
/// estimators leave kNone; the adaptive front (adapt::AdaptiveEstimator)
/// stamps the tier its arbiter selected, and the serving layers pass the
/// value through untouched so clients can see which path answered and why.
enum class ServedTier : uint8_t {
  kNone = 0,              ///< no tiering (direct estimator call)
  kHistogramResidual = 1, ///< cheap synopses + online residual correction
  kKnn = 2,               ///< per-feature-space online kNN over feedback
  kMl = 3,                ///< the full trained ML path
};

/// Stable short label for a tier, as spelled in metrics labels, logs, and
/// bench output ("none", "residual", "knn", "ml").
inline const char* ServedTierName(ServedTier tier) {
  switch (tier) {
    case ServedTier::kHistogramResidual: return "residual";
    case ServedTier::kKnn: return "knn";
    case ServedTier::kMl: return "ml";
    case ServedTier::kNone: break;
  }
  return "none";
}

/// Per-request knobs of the serving API (docs/serving.md). Kept separate
/// from the query so transports and batching layers can pass requests around
/// without re-deriving policy from context.
struct EstimateOptions {
  /// Under the router's intelligent policy a request whose feature space has
  /// never been seen creates a new route (model) as a side effect. Setting
  /// this to false opts this one request out: an unseen shape is rejected
  /// instead, as if the router ran in controlled mode. Ignored by estimators
  /// that do no routing.
  bool allow_route_creation = true;

  bool operator==(const EstimateOptions&) const = default;
};

/// One estimation request — the public entry point of the serving API
/// (docs/batch_api.md). Everything that used to be a bare query-vector
/// element now travels with its options.
struct EstimateRequest {
  query::Query query;
  EstimateOptions options;
};

/// Where one request's latency went, in seconds (docs/serving.md). Filled
/// by the estimation server from its span tree and stage capture; all zero
/// for direct estimator calls (no queue, no batch). The split is also
/// exported as the serve.request.stage_seconds{stage=...} histograms.
struct StageBreakdown {
  /// Admission to micro-batch execution start (time spent queued).
  double queue_wait_seconds = 0.0;
  /// Wall time of the micro-batch execution that served this request
  /// (shared by every member of the batch).
  double batch_exec_seconds = 0.0;
  /// Featurization portion of the batch execution, when the serving
  /// backend reports stages (ML backends do; stats backends leave it 0).
  double featurize_seconds = 0.0;
  /// Model-inference portion of the batch execution, ditto.
  double predict_seconds = 0.0;
};

/// The answer to one EstimateRequest. Alongside the estimate it carries the
/// provenance a production client needs for debugging and SLO accounting:
/// which feature-space route served it, which model version was active, and
/// how long the request took.
struct EstimateResponse {
  /// Estimated cardinality (>= 1 by the repo-wide convention).
  double estimate = 1.0;
  /// Feature-space route that served the request; 0 when the estimator does
  /// no routing (direct estimator call, or a forced-mode default route).
  uint64_t route_id = 0;
  /// ServingEstimator version that produced the estimate; 0 for unversioned
  /// in-process models.
  uint64_t model_version = 0;
  /// Seconds from submission to completion on the serving side. For direct
  /// estimator calls this is the featurize+predict time; through the
  /// estimation server it additionally includes micro-batching queue wait.
  double latency_seconds = 0.0;
  /// Root span id of this request's trace when QFCARD_TRACE is on and the
  /// request went through the estimation server; 0 otherwise. Matches the
  /// "trace" field in trace dumps, so a slow response can be looked up in
  /// the tail-sampled span tree (docs/observability.md).
  uint64_t trace_id = 0;
  /// Per-stage latency attribution (server-filled; zeros elsewhere).
  StageBreakdown stages;
  /// Estimation tier that answered (docs/adaptive.md); kNone outside the
  /// adaptive front. Serving layers preserve whatever the inner estimator
  /// stamped here.
  ServedTier tier = ServedTier::kNone;
  /// Human-readable arbitration note for the tier choice ("hold: ml p95
  /// 2.1", "knn empty, fell back to ml", ...). Empty outside the adaptive
  /// front.
  std::string tier_reason;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_REQUEST_H_
