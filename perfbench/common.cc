#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "bench.h"
#include "metric_names.h"

namespace perfbench {

using namespace qfcard;  // NOLINT: benchmark brevity

void Report::Check(bool ok, const std::string& what) {
  if (!ok && check_failures_.size() < 32) check_failures_.push_back(what);
}

void Report::Note(const std::string& key, double value) {
  notes_[key] = common::StrFormat("%.6g", value);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return common::MixSeed(seed, stream);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int NumCpus() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    const double start = Now();
    setup();
    secs.push_back(Now() - start);
  }
  return Median(secs);
}

bool SameBytes(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::unique_ptr<storage::Catalog> MakeForestCatalog(int64_t rows, int attrs) {
  workload::ForestOptions fo;
  fo.num_rows = rows;
  fo.num_attributes = attrs;
  fo.seed = kDataSeed;
  auto catalog = std::make_unique<storage::Catalog>();
  QFCARD_CHECK_OK(catalog->AddTable(workload::MakeForestTable(fo)));
  return catalog;
}

est::EstimatorOptions GbOptions() {
  est::EstimatorOptions opts;
  opts.gbm.num_trees = 60;
  opts.gbm.early_stopping_rounds = 0;
  return opts;
}

void CheckEstimate(Report* report, double estimate, const char* where) {
  if (std::isfinite(estimate) && estimate >= 1.0) return;
  report->Check(false, common::StrFormat("%s: estimate %.17g is not finite and >= 1",
                                         where, estimate));
}

double QError(double estimate, double truth) {
  const double e = std::max(1.0, estimate);
  const double t = std::max(1.0, truth);
  return std::max(e / t, t / e);
}

std::vector<double> FeedbackWrites(const storage::Table& table,
                                   const std::vector<query::Query>& queries,
                                   const std::vector<double>& truth,
                                   adapt::FeedbackBus* bus, Report* report) {
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  adapt::ExecutionFeedbackConnection hook(bus);
  for (size_t i = 0; i < queries.size(); ++i) {
    Span span("query.exec");
    const common::StatusOr<int64_t> count = query::Executor::Count(table, queries[i]);
    latencies.push_back(span.End());
    report->Attempt(count.ok());
    report->Check(count.ok() && static_cast<double>(count.value()) == truth[i],
                  "feedback write: hook-on count differs from hook-off label");
  }
  return latencies;
}

void EstimateBatchPasses(const est::CardinalityEstimator& est,
                         const std::vector<query::Query>& queries, size_t batch,
                         double seconds, std::vector<double>* rates, Report* report) {
  std::vector<std::vector<query::Query>> batches;
  for (size_t i = 0; i < queries.size(); i += batch) {
    batches.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(i),
                         queries.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(queries.size(), i + batch)));
  }
  const double stop = Now() + seconds;
  do {
    const double start = Now();
    for (const auto& b : batches) {
      Span span("estimators.batch");
      const auto out = est.EstimateBatch(b);
      span.End();
      report->Attempts(b.size(), out.ok() ? 0 : b.size());
      report->Check(out.ok(), "EstimateBatch failed");
      if (!out.ok()) return;
      for (const double e : out.value()) CheckEstimate(report, e, "EstimateBatch");
    }
    rates->push_back(static_cast<double>(queries.size()) / (Now() - start));
  } while (Now() < stop);
}

std::vector<double> LabelInChunks(const std::vector<query::Query>& queries, size_t chunk,
                                  const LabelFn& label, std::vector<double>* rates,
                                  Report* report) {
  std::vector<double> cards;
  for (size_t i = 0; i < queries.size(); i += chunk) {
    const std::vector<query::Query> part(
        queries.begin() + static_cast<std::ptrdiff_t>(i),
        queries.begin() + static_cast<std::ptrdiff_t>(std::min(queries.size(), i + chunk)));
    Span span("workload.label");
    const auto labeled = label(part);
    const double seconds = span.End();
    report->Attempts(part.size(), labeled.ok() ? 0 : part.size());
    report->Check(labeled.ok(), "labeling failed");
    if (!labeled.ok()) return {};
    rates->push_back(static_cast<double>(part.size()) / seconds);
    for (const auto& lq : labeled.value()) cards.push_back(lq.card);
  }
  return cards;
}

std::vector<double> DirectLatencies(const est::CardinalityEstimator& est,
                                    const std::vector<query::Query>& queries,
                                    double seconds, Report* report) {
  std::vector<double> latencies;
  est::EstimateRequest request;
  const double stop = Now() + seconds;
  size_t i = 0;
  while (i < queries.size() || Now() < stop) {
    request.query = queries[i % queries.size()];
    const double start = Now();
    const auto resp = est.Estimate(request);
    latencies.push_back(Now() - start);
    report->Attempt(resp.ok());
    report->Check(resp.ok(), "direct Estimate failed");
    if (resp.ok()) CheckEstimate(report, resp.value().estimate, "direct Estimate");
    ++i;
  }
  return latencies;
}

double MetricsOverheadUs(const est::CardinalityEstimator& est,
                         const std::vector<query::Query>& queries,
                         bool metrics_were_on, Report* report) {
  // Interleave short on/off blocks so drift in machine load hits both sides.
  std::vector<double> on;
  std::vector<double> off;
  for (int block = 0; block < 6; ++block) {
    obs::SetMetricsEnabled(true);
    const auto a = DirectLatencies(est, queries, 0.02, report);
    on.insert(on.end(), a.begin(), a.end());
    obs::SetMetricsEnabled(false);
    const auto b = DirectLatencies(est, queries, 0.02, report);
    off.insert(off.end(), b.begin(), b.end());
  }
  obs::SetMetricsEnabled(metrics_were_on);
  return Us(Median(on) - Median(off));
}

void MlKernelMetrics(const est::CardinalityEstimator& est,
                     const std::vector<query::Query>& queries, Report* report) {
  const auto* ml = dynamic_cast<const est::MlEstimator*>(&est);
  report->Check(ml != nullptr, "ML kernel metrics need an MlEstimator");
  if (ml == nullptr) return;
  const featurize::Featurizer& fz = ml->featurizer();
  const ml::Model& model = ml->model();
  const size_t dim = static_cast<size_t>(fz.dim());
  const size_t n = queries.size() - queries.size() % 64;
  report->Check(n >= 64, "ML kernel metrics need at least 64 queries");
  if (n < 64) return;

  std::vector<float> features(n * dim);
  std::vector<double> fb1;
  std::vector<double> pb1;
  float sink = 0;
  for (size_t i = 0; i < n; ++i) {
    Span span("featurize.b1");
    const common::Status st = fz.FeaturizeInto(queries[i], &features[i * dim]);
    fb1.push_back(span.End());
    report->Check(st.ok(), "FeaturizeInto failed");
  }
  for (size_t i = 0; i < n; ++i) {
    Span span("ml.predict.b1");
    sink += model.Predict(&features[i * dim]);
    pb1.push_back(span.End());
  }
  std::vector<double> fb64;
  std::vector<double> pb64;
  ml::Matrix x(64, static_cast<int>(dim));
  for (size_t i = 0; i < n; i += 64) {
    {
      Span span("featurize.b64");
      const common::Status st = fz.FeaturizeBatch(
          std::span<const query::Query>(queries.data() + i, 64), x.data().data());
      fb64.push_back(span.End() / 64);
      report->Check(st.ok(), "FeaturizeBatch failed");
    }
    Span span("ml.predict.b64");
    const std::vector<float> y = model.PredictBatch(x);
    pb64.push_back(span.End() / 64);
    for (size_t r = 0; r < 64; ++r) {
      // Batch and single-row paths must agree exactly.
      report->Check(SameBytes(y[r], model.Predict(&features[(i + r) * dim])),
                    "PredictBatch differs from Predict");
    }
  }
  report->Check(std::isfinite(sink), "ML predictions are not finite");
  report->Layer("featurize.b1.us_per_query", Us(Median(fb1)), "us");
  report->Layer("featurize.b64.us_per_query", Us(Median(fb64)), "us");
  report->Layer("ml.predict.b1.us_per_row", Us(Median(pb1)), "us");
  report->Layer("ml.predict.b64.us_per_row", Us(Median(pb64)), "us");
}

void ExecLayerMetrics(const std::vector<SpanRecord>& spans, int64_t rows, Report* report) {
  const std::vector<double> self = SelfTimes(spans, "query.exec");
  double total = 0;
  for (const double s : self) total += s;
  report->Layer("query.exec.calls", static_cast<double>(self.size()), "count");
  report->Layer("query.exec.p50_us", Us(Median(self)), "us");
  report->Layer("query.exec.p99_us", Us(Quantile(self, 0.99)), "us");
  report->Layer("query.exec.rows_per_s",
                total > 0 ? static_cast<double>(rows) * static_cast<double>(self.size()) / total : 0,
                "rows/s");
}

void RouteLayerMetrics(serve::ModelRouter* router, const std::vector<query::Query>& queries,
                       Report* report) {
  std::vector<double> fss;
  std::vector<double> resolve;
  est::EstimateOptions no_create;
  no_create.allow_route_creation = false;
  for (const query::Query& q : queries) {
    double start = Now();
    const uint64_t hash = serve::FeatureSpaceHash(q);
    fss.push_back(Now() - start);
    start = Now();
    const auto res = router->Resolve(q, no_create);
    resolve.push_back(Now() - start);
    report->Check(res.ok() && res.value().route_id == hash, "Resolve disagrees with the hash");
  }
  report->Layer("serve.fss.p50_ns", Median(fss) * 1e9, "ns");
  report->Layer("serve.resolve.p50_us", Us(Median(resolve)), "us");
}

void ServerLayerMetrics(const std::vector<const est::EstimateResponse*>& answers,
                        const std::vector<double>& direct_b1, uint64_t batches, size_t routes,
                        uint64_t rejected, Report* report) {
  std::vector<double> server_side;
  std::vector<double> queue_wait;
  std::vector<double> batch_exec;
  for (const est::EstimateResponse* a : answers) {
    server_side.push_back(a->latency_seconds);
    queue_wait.push_back(a->stages.queue_wait_seconds);
    batch_exec.push_back(a->stages.batch_exec_seconds);
  }
  report->Layer("estimators.direct_b1.p50_us", Us(Median(direct_b1)), "us");
  report->Layer("serve.overhead.p50_us", Us(Median(server_side) - Median(direct_b1)), "us");
  report->Layer("serve.queue_wait.p50_us", Us(Median(queue_wait)), "us");
  report->Layer("serve.queue_wait.p99_us", Us(Quantile(queue_wait, 0.99)), "us");
  report->Layer("serve.batch_exec.p50_us", Us(Median(batch_exec)), "us");
  report->Layer("serve.batch.mean_size",
                batches > 0 ? static_cast<double>(answers.size()) / static_cast<double>(batches) : 0,
                "count");
  report->Layer("serve.batches", static_cast<double>(batches), "count");
  report->Layer("serve.routes", static_cast<double>(routes), "count");
  report->Layer("serve.rejected", static_cast<double>(rejected), "count");
}

void LoadgenMetrics(uint64_t sent, uint64_t failed, double p99_seconds,
                    double write_p99_seconds, Report* report) {
  report->Layer("loadgen.sent", static_cast<double>(sent), "count");
  report->Layer("loadgen.succeeded", static_cast<double>(sent - failed), "count");
  report->Layer("loadgen.failed", static_cast<double>(failed), "count");
  report->Layer("loadgen.fail_share",
                sent > 0 ? static_cast<double>(failed) / static_cast<double>(sent) : 0, "ratio");
  report->Layer("loadgen.p99_us", Us(p99_seconds), "us");
  report->Layer("loadgen.write_p99_us", Us(write_p99_seconds), "us");
}

void FillLayerDefaults(Report* report) {
  std::map<std::string, Report::Metric> have;
  for (const Report::Metric& m : report->layer()) {
    report->Check(have.emplace(m.name, m).second, "duplicate per-layer metric " + m.name);
  }
  Report sorted;
  for (const MetricName& spec : kLayerMetrics) {
    const auto it = have.find(spec.name);
    report->Check(it == have.end() || it->second.unit == spec.unit,
                  std::string("unit mismatch for ") + spec.name);
    sorted.Layer(spec.name, it == have.end() ? 0.0 : it->second.value, spec.unit);
    if (it != have.end()) have.erase(it);
  }
  for (const auto& [name, m] : have) {
    (void)m;
    report->Check(false, "per-layer metric not in metric_names.h: " + name);
  }
  report->ReplaceLayer(sorted.layer());
}

}  // namespace perfbench
