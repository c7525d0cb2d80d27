#include "serve/router.h"

#include <utility>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::serve {

namespace {

void CountRejected(const char* reason) {
  obs::IncrementCounter("serve.route.rejected", std::string("reason=") + reason);
}

}  // namespace

const char* RoutePolicyToString(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kIntelligent:
      return "intelligent";
    case RoutePolicy::kForced:
      return "forced";
    case RoutePolicy::kControlled:
      return "controlled";
  }
  return "?";
}

common::StatusOr<RoutePolicy> ParseRoutePolicy(std::string_view name) {
  if (common::EqualsIgnoreCase(name, "intelligent")) {
    return RoutePolicy::kIntelligent;
  }
  if (common::EqualsIgnoreCase(name, "forced")) return RoutePolicy::kForced;
  if (common::EqualsIgnoreCase(name, "controlled")) {
    return RoutePolicy::kControlled;
  }
  return common::Status::InvalidArgument(
      "unknown routing policy \"" + std::string(name) +
      "\" (expected intelligent/forced/controlled)");
}

ModelRouter::ModelRouter(ModelRouterOptions options)
    : options_(std::move(options)) {
  common::MutexLock lock(&mu_);
  ExportRouteCount();
}

void ModelRouter::ExportRouteCount() const {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global().GaugeNamed("serve.routes")->Set(
      static_cast<int64_t>(routes_.size()));
}

common::Status ModelRouter::AddRoute(uint64_t fss,
                                     std::shared_ptr<ServingEstimator> serving,
                                     std::string label) {
  if (fss == 0) {
    return common::Status::InvalidArgument(
        "router: route id 0 is reserved for the forced-mode default route "
        "(SetDefaultRoute)");
  }
  if (serving == nullptr) {
    return common::Status::InvalidArgument("router: route model is null");
  }
  common::MutexLock lock(&mu_);
  const auto [it, inserted] =
      routes_.emplace(fss, Route{std::move(serving), std::move(label)});
  (void)it;
  if (!inserted) {
    return common::Status::FailedPrecondition(
        "router: route " + FormatFss(fss) +
                                         " already registered");
  }
  ExportRouteCount();
  return common::Status::Ok();
}

void ModelRouter::SetDefaultRoute(std::shared_ptr<ServingEstimator> serving) {
  common::MutexLock lock(&mu_);
  default_route_ = std::move(serving);
}

common::StatusOr<ModelRouter::Resolution> ModelRouter::Resolve(
    const query::Query& q, const est::EstimateOptions& options) {
  obs::TraceSpan span("serve.route.resolve");
  Resolution resolution;
  resolution.fss = FeatureSpaceHash(q);
  resolution.route_id = resolution.fss;

  common::MutexLock lock(&mu_);
  const auto it = routes_.find(resolution.fss);
  if (it != routes_.end()) {
    resolution.serving = it->second.serving;
    return resolution;
  }

  // Miss: admission policy decides.
  switch (options_.policy) {
    case RoutePolicy::kIntelligent: {
      if (!options.allow_route_creation) {
        CountRejected("creation-disallowed");
        return common::Status::FailedPrecondition(
            "router: unseen feature space " + FormatFss(resolution.fss) +
            " and the request disallows route creation");
      }
      if (options_.factory == nullptr) {
        CountRejected("no-factory");
        return common::Status::FailedPrecondition(
            "router: intelligent policy needs a RouteFactory");
      }
      if (created_routes_ >= options_.max_routes) {
        CountRejected("route-limit");
        return common::Status::ResourceExhausted(
            "router: route limit reached (" +
            std::to_string(options_.max_routes) +
            " auto-created feature spaces)");
      }
      // The factory runs with mu_ held: concurrent first sights of the same
      // space build exactly one model, at the cost of serializing creations
      // (see RouteFactory's header note about keeping factories cheap).
      QFCARD_ASSIGN_OR_RETURN(std::shared_ptr<ServingEstimator> serving,
                              options_.factory(resolution.fss, q));
      if (serving == nullptr) {
        return common::Status::Internal("router: factory returned null");
      }
      ++created_routes_;
      routes_.emplace(resolution.fss,
                      Route{serving, FeatureSpaceSignature(q)});
      ExportRouteCount();
      obs::IncrementCounter("serve.route.created");
      resolution.serving = std::move(serving);
      resolution.created = true;
      return resolution;
    }
    case RoutePolicy::kForced: {
      if (default_route_ == nullptr) {
        CountRejected("no-default");
        return common::Status::FailedPrecondition(
            "router: forced policy needs a default route (SetDefaultRoute)");
      }
      resolution.route_id = 0;  // AQO's common feature space
      resolution.serving = default_route_;
      return resolution;
    }
    case RoutePolicy::kControlled: {
      CountRejected("unknown-shape");
      return common::Status::FailedPrecondition(
          "router: unknown feature space " + FormatFss(resolution.fss) +
          " rejected under the controlled policy");
    }
  }
  return common::Status::Internal("router: unreachable policy");
}

std::shared_ptr<ServingEstimator> ModelRouter::FindRoute(uint64_t fss) const {
  common::MutexLock lock(&mu_);
  if (fss == 0) return default_route_;
  const auto it = routes_.find(fss);
  return it == routes_.end() ? nullptr : it->second.serving;
}

std::string ModelRouter::RouteLabel(uint64_t fss) const {
  common::MutexLock lock(&mu_);
  const auto it = routes_.find(fss);
  return it == routes_.end() ? std::string() : it->second.label;
}

std::vector<uint64_t> ModelRouter::RouteIds() const {
  common::MutexLock lock(&mu_);
  std::vector<uint64_t> ids;
  ids.reserve(routes_.size());
  for (const auto& [fss, route] : routes_) ids.push_back(fss);
  return ids;
}

size_t ModelRouter::NumRoutes() const {
  common::MutexLock lock(&mu_);
  return routes_.size();
}

}  // namespace qfcard::serve
