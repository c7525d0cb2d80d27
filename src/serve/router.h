#ifndef QFCARD_SERVE_ROUTER_H_
#define QFCARD_SERVE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/request.h"
#include "query/query.h"
#include "serve/fss.h"
#include "serve/serving_estimator.h"

namespace qfcard::serve {

/// Admission policy for query shapes the router has not seen before,
/// modeled on AQO's preprocessing modes (SNIPPETS.md, `preprocessing.c`).
enum class RoutePolicy {
  /// Every new feature space gets its own route: the factory builds a model
  /// on first sight and the hash becomes its route id.
  kIntelligent,
  /// Unknown shapes are served by the default route (AQO's "common feature
  /// space with hash 0") and never memorized as routes of their own.
  kForced,
  /// Unknown shapes are rejected; the route table is exactly what the
  /// operator pre-registered via AddRoute.
  kControlled,
};

const char* RoutePolicyToString(RoutePolicy policy);
common::StatusOr<RoutePolicy> ParseRoutePolicy(std::string_view name);

/// Builds the ServingEstimator for a newly admitted feature space under the
/// intelligent policy. `fss` is the new route's id and `first` the query
/// that opened it (its shape, not its literals, is what defines the space).
/// Called with the router lock held: creations are serialized, so keep
/// factories cheap (serve a statistics-based model immediately and hot-swap
/// a trained one in later — the pattern examples/qfcard_server.cpp demos).
using RouteFactory =
    std::function<common::StatusOr<std::shared_ptr<ServingEstimator>>(
        uint64_t fss, const query::Query& first)>;

struct ModelRouterOptions {
  RoutePolicy policy = RoutePolicy::kIntelligent;
  /// Required under kIntelligent; unused otherwise.
  RouteFactory factory;
  /// Admission bound on auto-created routes (pre-registered routes don't
  /// count against it): one model per feature space must not let an
  /// adversarial workload allocate unbounded models.
  size_t max_routes = 256;
};

/// Maps feature-space hashes to hot-swappable per-space models — the
/// dispatch half of the estimation server (docs/serving.md). Thread-safe;
/// the route table is mu_-guarded, and resolved routes are shared_ptrs, so
/// serving continues on a route even while the table changes.
///
/// Exports serve.routes (gauge), serve.route.created and
/// serve.route.rejected{reason=...} (counters).
class ModelRouter {
 public:
  explicit ModelRouter(ModelRouterOptions options);

  /// Pre-registers a route (controlled-mode setup, or seeding known spaces
  /// under any policy). Fails with FailedPrecondition on a duplicate id.
  common::Status AddRoute(uint64_t fss,
                          std::shared_ptr<ServingEstimator> serving,
                          std::string label = "");

  /// Installs the route unknown shapes fall back to under kForced (route id
  /// 0, AQO's common feature space).
  void SetDefaultRoute(std::shared_ptr<ServingEstimator> serving);

  struct Resolution {
    /// Feature-space hash of the query.
    uint64_t fss = 0;
    /// Route that will serve it: == fss normally, 0 for the forced-mode
    /// default route.
    uint64_t route_id = 0;
    std::shared_ptr<ServingEstimator> serving;
    /// True when this resolution created the route (intelligent first
    /// sight).
    bool created = false;
  };

  /// Routes one query: computes FeatureSpaceHash(q), then applies the
  /// admission policy to a miss. Rejections
  /// come back as FailedPrecondition (unknown shape under kControlled, or
  /// options.allow_route_creation = false) or ResourceExhausted (max_routes
  /// hit under kIntelligent).
  common::StatusOr<Resolution> Resolve(
      const query::Query& q, const est::EstimateOptions& options = {});

  /// The route's model, or nullptr when `fss` is unknown. The forced-mode
  /// default route is id 0.
  std::shared_ptr<ServingEstimator> FindRoute(uint64_t fss) const;

  /// Human-readable label recorded at creation ("" for unlabeled routes).
  std::string RouteLabel(uint64_t fss) const;

  /// Registered route ids, ascending (excludes the default route).
  std::vector<uint64_t> RouteIds() const;

  size_t NumRoutes() const;
  RoutePolicy policy() const { return options_.policy; }

 private:
  struct Route {
    std::shared_ptr<ServingEstimator> serving;
    std::string label;
  };

  void ExportRouteCount() const QFCARD_REQUIRES(mu_);

  const ModelRouterOptions options_;

  mutable common::Mutex mu_;
  std::map<uint64_t, Route> routes_ QFCARD_GUARDED_BY(mu_);
  std::shared_ptr<ServingEstimator> default_route_ QFCARD_GUARDED_BY(mu_);
  size_t created_routes_ QFCARD_GUARDED_BY(mu_) = 0;
};

}  // namespace qfcard::serve

#endif  // QFCARD_SERVE_ROUTER_H_
