// adaptive_rw: closed loop, 2 clients, a handful of query shapes. Every
// route serves one adapt::AdaptiveEstimator (auto mode) over a trained
// gb+complex model and a postgres base; no drift, so tiers stay put. Every
// client reads through EstimationServer::Estimate, and every 4th operation
// also executes the query's count(*) with the execution-feedback hook live
// (Executor::Count -> FeedbackBus -> IngestFeedback). Telemetry is on, as
// deployed; QFCARD_THREADS=1.
//
// Why: writes beside reads on the same routes. Learner locks,
// counterfactual tier scoring and the executor sit on the write path, and
// few routes let concurrent clients coalesce. A read-path gain that costs
// writes, or a telemetry cost, shows here and not in serve_open_routes.

#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

using namespace qfcard;  // NOLINT: benchmark brevity

constexpr int64_t kRows = 25000;
constexpr int kAttrs = 12;
constexpr int kClients = 2;  // plus 2 server workers = 4 threads
constexpr int kServerWorkers = 2;
constexpr int kTrainPerShape = 150;
constexpr int kPoolPerShape = 100;
constexpr int kWarmupWrites = 200;
constexpr int kWriteEvery = 4;
constexpr int kSegments = 8;
constexpr double kEstSecondsPerSegment = 0.06;
constexpr size_t kLabelChunk = 2;  // 50 pool queries per segment: 200 chunks

/// The query shapes: attribute set and disjuncts per attribute.
struct Shape {
  std::vector<int> attrs;
  int disjuncts;
};
const Shape kShapes[] = {{{0, 1}, 1}, {{2}, 2}, {{3, 4, 5}, 1}, {{6, 7}, 2}};

struct Fixture {
  std::unique_ptr<storage::Catalog> catalog;
  std::vector<query::Query> pool;
  std::vector<int> pool_shape;
  std::vector<double> truth;  ///< hook-off labels of the pool
  std::shared_ptr<est::CardinalityEstimator> gb;
  std::shared_ptr<adapt::AdaptiveEstimator> front;
  std::unique_ptr<adapt::FeedbackBus> bus;
  uint64_t subscription = 0;
  std::unique_ptr<serve::ModelRouter> router;
  std::unique_ptr<serve::EstimationServer> server;
  uint64_t next_version = 1;
  double train_s = 0;

  void TearDown() {
    if (server) server->Stop();
    server.reset();
    router.reset();
    if (bus && subscription != 0) bus->Unsubscribe(subscription);
    subscription = 0;
    front.reset();
    bus.reset();
    gb.reset();
  }
};

std::vector<query::Query> ShapeQueries(const storage::Table& table, const Shape& shape,
                                       int count, common::Rng& rng) {
  workload::PredicateGenOptions gen;
  gen.allowed_attrs = shape.attrs;
  gen.min_attrs = gen.max_attrs = static_cast<int>(shape.attrs.size());
  gen.min_disjuncts = gen.max_disjuncts = shape.disjuncts;
  gen.max_not_equals = 0;
  return workload::GeneratePredicateWorkload(table, count, gen, rng);
}

void Setup(uint64_t seed, Fixture* f, Report* report) {
  f->TearDown();
  f->catalog = MakeForestCatalog(kRows, kAttrs);
  const storage::Table& table = f->catalog->table(0);
  // The training workload is fixed with the data; --seed drives the pool.
  common::Rng train_rng(StreamSeed(kDataSeed, 2));
  common::Rng rng(StreamSeed(seed, 2));
  std::vector<query::Query> train;
  f->pool.clear();
  f->pool_shape.clear();
  for (size_t s = 0; s < std::size(kShapes); ++s) {
    for (query::Query& q : ShapeQueries(table, kShapes[s], kTrainPerShape, train_rng)) {
      train.push_back(std::move(q));
    }
    for (query::Query& q : ShapeQueries(table, kShapes[s], kPoolPerShape, rng)) {
      f->pool.push_back(std::move(q));
      f->pool_shape.push_back(static_cast<int>(s));
    }
  }
  const auto labeled_train = workload::LabelOnTable(table, train, true).value();
  const auto labeled_pool = workload::LabelOnTable(table, f->pool, false).value();
  f->truth.clear();
  for (const auto& lq : labeled_pool) f->truth.push_back(lq.card);

  f->gb = est::MakeEstimator("gb+complex", *f->catalog, GbOptions()).value();
  {
    std::vector<query::Query> qs;
    std::vector<double> cards;
    for (const auto& lq : labeled_train) {
      qs.push_back(lq.query);
      cards.push_back(lq.card);
    }
    Span span("ml.train");
    QFCARD_CHECK_OK(f->gb->Train(qs, cards, 0.1, StreamSeed(kDataSeed, 3)));
    f->train_s = span.End();
  }
  std::shared_ptr<const est::CardinalityEstimator> base =
      est::MakeEstimator("postgres", *f->catalog).value();
  std::shared_ptr<const featurize::Featurizer> featurizer = featurize::MakeFeaturizer(
      featurize::QftKind::kComplex, featurize::FeatureSchema::FromTable(table));
  f->front = std::make_shared<adapt::AdaptiveEstimator>(base, f->gb, featurizer);
  f->bus = std::make_unique<adapt::FeedbackBus>();
  adapt::AdaptiveEstimator* front = f->front.get();
  // What AdaptiveEstimator::ConnectTo subscribes, with a span around it.
  f->subscription = f->bus->Subscribe([front](const adapt::FeedbackRecord& r) {
    Span span("adapt.publish");
    front->IngestFeedback(r);
  });

  serve::ModelRouterOptions ropts;
  ropts.policy = serve::RoutePolicy::kIntelligent;
  ropts.factory = [f](uint64_t, const query::Query&)
      -> common::StatusOr<std::shared_ptr<serve::ServingEstimator>> {
    return std::make_shared<serve::ServingEstimator>(f->front, f->next_version++);
  };
  f->router = std::make_unique<serve::ModelRouter>(ropts);
  serve::EstimationServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  f->server = std::make_unique<serve::EstimationServer>(f->router.get(), sopts);
  f->server->Start();

  // Route warm-up, then feedback warm-up so every route's tier windows fill
  // before measurement.
  std::vector<est::EstimateRequest> reqs(f->pool.size());
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].query = f->pool[i];
  for (const auto& res : f->server->EstimateMany(reqs)) {
    report->Check(res.ok(), "route warm-up request failed");
  }
  // Pool order is shape-major; interleave shapes so every route warms.
  std::vector<query::Query> mixed;
  std::vector<double> mixed_truth;
  for (int i = 0; i < kWarmupWrites; ++i) {
    const size_t idx = static_cast<size_t>((i % 4) * kPoolPerShape + i / 4);
    mixed.push_back(f->pool[idx]);
    mixed_truth.push_back(f->truth[idx]);
  }
  Report scratch;  // warm-up writes are set-up, not measured operations
  FeedbackWrites(table, mixed, mixed_truth, f->bus.get(), &scratch);
  for (const std::string& failure : scratch.check_failures()) report->Check(false, failure);
}

struct Read {
  double start = 0;
  double latency = 0;
  uint32_t index = 0;
  bool ok = false;
  est::EstimateResponse response;
};

struct Phase {
  std::vector<Read> reads;  ///< in start order
  std::vector<double> writes;
  double seconds = 0;
  uint64_t read_failed = 0;
};

Phase RunClosedLoop(Fixture* f, double seconds, uint64_t seed, Report* report) {
  const storage::Table& table = f->catalog->table(0);
  std::vector<std::vector<Read>> reads(kClients);
  std::vector<std::vector<double>> writes(kClients);
  std::vector<std::vector<std::string>> failures(kClients);
  const double start = Now();
  const double stop = start + seconds;
  {
    adapt::ExecutionFeedbackConnection hook(f->bus.get());
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        common::Rng rng(StreamSeed(seed, static_cast<uint64_t>(c)));
        est::EstimateRequest request;
        for (uint64_t op = 1; Now() < stop; ++op) {
          Read r;
          r.index = static_cast<uint32_t>(
              rng.UniformInt(0, static_cast<int64_t>(f->pool.size()) - 1));
          request.query = f->pool[r.index];
          r.start = Now();
          common::StatusOr<est::EstimateResponse> resp = [&] {
            Span span("serve.estimate");
            return f->server->Estimate(request);
          }();
          r.latency = Now() - r.start;
          r.ok = resp.ok();
          if (r.ok) r.response = std::move(resp).value();
          reads[static_cast<size_t>(c)].push_back(std::move(r));
          if (op % kWriteEvery != 0) continue;
          Span span("query.exec");
          const common::StatusOr<int64_t> count = query::Executor::Count(table, request.query);
          writes[static_cast<size_t>(c)].push_back(span.End());
          if (!count.ok() ||
              static_cast<double>(count.value()) != f->truth[reads[static_cast<size_t>(c)].back().index]) {
            failures[static_cast<size_t>(c)].push_back(
                "feedback write: hook-on count differs from hook-off label");
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  Phase out;
  out.seconds = Now() - start;
  for (int c = 0; c < kClients; ++c) {
    for (Read& r : reads[static_cast<size_t>(c)]) out.reads.push_back(std::move(r));
    out.writes.insert(out.writes.end(), writes[static_cast<size_t>(c)].begin(),
                      writes[static_cast<size_t>(c)].end());
    report->Attempts(writes[static_cast<size_t>(c)].size(), failures[static_cast<size_t>(c)].size());
    for (const std::string& msg : failures[static_cast<size_t>(c)]) report->Check(false, msg);
  }
  std::sort(out.reads.begin(), out.reads.end(),
            [](const Read& a, const Read& b) { return a.start < b.start; });
  for (const Read& r : out.reads) {
    report->Attempt(r.ok);
    out.read_failed += r.ok ? 0 : 1;
    if (r.ok) CheckEstimate(report, r.response.estimate, "server answer");
  }
  report->Check(out.read_failed == 0, "estimate requests failed or were rejected");
  return out;
}

std::vector<double> OkLatencies(const Phase& p) {
  std::vector<double> v;
  for (const Read& r : p.reads) {
    if (r.ok) v.push_back(r.latency);
  }
  return v;
}

/// A sample of every route's server answers must be byte-identical to the
/// route's ServingEstimator called directly. Runs with the hook off, so the
/// learners hold still between the two calls.
void CheckIdentity(Fixture* f, Report* report) {
  size_t compared = 0;
  for (size_t s = 0; s < std::size(kShapes); ++s) {
    std::vector<est::EstimateRequest> reqs;
    for (size_t i = 0; i < f->pool.size() && reqs.size() < 16; ++i) {
      if (f->pool_shape[i] != static_cast<int>(s)) continue;
      est::EstimateRequest r;
      r.query = f->pool[i];
      reqs.push_back(std::move(r));
    }
    const auto served = f->server->EstimateMany(reqs);
    for (size_t i = 0; i < reqs.size(); ++i) {
      report->Check(served[i].ok(), "identity request failed");
      if (!served[i].ok()) return;
      const auto direct = f->router->FindRoute(served[i].value().route_id);
      report->Check(direct != nullptr, "answer names an unknown route");
      if (direct == nullptr) return;
      const auto want = direct->EstimateRequests({reqs[i]});
      report->Check(want.ok() && SameBytes(want.value()[0].estimate, served[i].value().estimate),
                    "server answer differs from direct EstimateRequests");
      ++compared;
    }
  }
  report->Note("identity_samples", static_cast<double>(compared));
}

}  // namespace

void RunAdaptiveRw(const Args& args, Report* report) {
  common::SetGlobalThreads(1);
  obs::SetMetricsEnabled(true);
  report->Note("qfcard_threads", 1.0);
  report->Note("telemetry", "on");
  Fixture f;
  const double setup_s = MedianSetupSeconds(3, [&] { Setup(args.seed, &f, report); });
  report->Note("routes", static_cast<double>(f.router->NumRoutes()));
  report->Check(f.router->NumRoutes() == std::size(kShapes),
                "expected one route per query shape");
  report->Note("pool_queries", static_cast<double>(f.pool.size()));

  Phase untraced;
  if (args.trace) {
    untraced = RunClosedLoop(&f, args.seconds * 0.4, StreamSeed(args.seed, 20), report);
    SetSpansEnabled(true);
  }
  const uint64_t batches_before = f.server->BatchesFlushed();
  const uint64_t ingested_before = f.front->ingested();
  // The closed loop runs in segments; between them (hook off, clients
  // stopped) the truth path and direct estimation take a sample each, so
  // they see the same host conditions as the loop they sit beside.
  const double loop_seconds = args.seconds * (args.trace ? 0.4 : 0.85);
  Phase phase;
  std::vector<double> label_rates;
  std::vector<double> est_rates;
  const storage::Table& table = f.catalog->table(0);
  const LabelFn label = [&table](const std::vector<query::Query>& qs) {
    return workload::LabelOnTable(table, qs, /*drop_empty=*/false);
  };
  uint64_t writes_done = 0;
  for (int s = 0; s < kSegments; ++s) {
    Phase seg = RunClosedLoop(&f, loop_seconds / kSegments,
                              StreamSeed(args.seed, 30 + static_cast<uint64_t>(s)), report);
    for (Read& r : seg.reads) phase.reads.push_back(std::move(r));
    phase.writes.insert(phase.writes.end(), seg.writes.begin(), seg.writes.end());
    phase.seconds += seg.seconds;
    phase.read_failed += seg.read_failed;
    writes_done += seg.writes.size();
    report->Check(f.front->ingested() - ingested_before == writes_done,
                  "every feedback write must be ingested exactly once");

    // Every kSegments-th pool query, so each chunk mixes all shapes.
    std::vector<query::Query> chunk;
    std::vector<double> chunk_truth;
    for (size_t i = static_cast<size_t>(s); i < f.pool.size(); i += kSegments) {
      chunk.push_back(f.pool[i]);
      chunk_truth.push_back(f.truth[i]);
    }
    report->Check(LabelInChunks(chunk, kLabelChunk, label, &label_rates, report) == chunk_truth,
                  "labels changed after feedback writes");
    EstimateBatchPasses(*f.gb, f.pool, 64, kEstSecondsPerSegment, &est_rates, report);
  }
  const uint64_t batches = f.server->BatchesFlushed() - batches_before;
  CheckIdentity(&f, report);

  const std::vector<double> lat = OkLatencies(phase);
  std::vector<double> qerrors;
  size_t tiers[4] = {0, 0, 0, 0};
  for (const Read& r : phase.reads) {
    if (!r.ok) continue;
    if (f.truth[r.index] > 0) qerrors.push_back(QError(r.response.estimate, f.truth[r.index]));
    ++tiers[static_cast<size_t>(r.response.tier) & 3];
  }
  report->Note("reads", static_cast<double>(phase.reads.size()));
  report->Note("writes", static_cast<double>(phase.writes.size()));
  report->Check(PercentileSupported(lat.size(), 0.99), "too few reads for a p99");
  report->Check(PercentileSupported(phase.writes.size(), 0.99), "too few writes for a p99");

  if (!args.trace) {
    const double within = SloShare(lat, phase.read_failed, kSloSeconds) *
                          static_cast<double>(phase.reads.size());
    report->EndToEnd("setup_s", setup_s, "s");
    report->EndToEnd("rps", static_cast<double>(lat.size()) / phase.seconds, "req/s");
    report->EndToEnd("p50_us", Us(Median(lat)), "us");
    report->EndToEnd("slo_share", SloShare(lat, phase.read_failed, kSloSeconds), "ratio");
    report->EndToEnd("max_ok_rate", within / phase.seconds, "req/s");
    report->EndToEnd("write_p50_us", Us(Median(phase.writes)), "us");
    report->EndToEnd("qerror_p50", Quantile(qerrors, 0.5), "ratio");
    report->EndToEnd("qerror_p95", Quantile(qerrors, 0.95), "ratio");
    report->EndToEnd("label_qps", SustainedRate(label_rates), "q/s");
    report->EndToEnd("est_qps", SustainedRate(est_rates), "q/s");
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    f.TearDown();
    return;
  }

  const std::vector<SpanRecord> spans = AllSpans();
  const auto serving = f.router->FindRoute(f.router->RouteIds().front());
  const double ok_reads = static_cast<double>(lat.size());
  ExecLayerMetrics(spans, kRows, report);
  report->Layer("workload.label.us_per_query", 1e6 / SustainedRate(label_rates), "us");
  MlKernelMetrics(*f.gb, f.pool, report);
  report->Layer("ml.train_s", f.train_s, "s");
  report->Layer("estimators.postgres.p50_us",
                Us(Median(DirectLatencies(*est::MakeEstimator("postgres", *f.catalog).value(),
                                          f.pool, 0.2, report))),
                "us");
  RouteLayerMetrics(f.router.get(), f.pool, report);
  std::vector<const est::EstimateResponse*> answers;
  for (const Read& r : phase.reads) {
    if (r.ok) answers.push_back(&r.response);
  }
  ServerLayerMetrics(answers, DirectLatencies(*serving, f.pool, 0.2, report), batches,
                     f.router->NumRoutes(), phase.read_failed, report);
  const std::vector<double> publish = Durations(spans, "adapt.publish");
  report->Layer("adapt.publish.p50_us", Us(Median(publish)), "us");
  report->Layer("adapt.publish.p99_us", Us(Quantile(publish, 0.99)), "us");
  report->Layer("adapt.estimate.p50_us",
                Us(Median(DirectLatencies(*f.front, f.pool, 0.2, report))), "us");
  report->Layer("adapt.ingested", static_cast<double>(f.front->ingested()), "count");
  report->Layer("adapt.tier_share.ml", static_cast<double>(tiers[3]) / ok_reads, "ratio");
  report->Layer("adapt.tier_share.knn", static_cast<double>(tiers[2]) / ok_reads, "ratio");
  report->Layer("adapt.tier_share.residual", static_cast<double>(tiers[1]) / ok_reads, "ratio");
  report->Layer("obs.metrics_overhead_us", MetricsOverheadUs(*f.front, f.pool, true, report), "us");
  LoadgenMetrics(phase.reads.size() + phase.writes.size(), phase.read_failed,
                 WindowedQuantile(lat, 0.99, kP99Window),
                 WindowedQuantile(phase.writes, 0.99, kP99Window), report);
  const double untraced_rps =
      static_cast<double>(OkLatencies(untraced).size()) / untraced.seconds;
  report->Layer("loadgen.trace_overhead_pct",
                100.0 * (untraced_rps / (ok_reads / phase.seconds) - 1.0), "%");
  f.TearDown();
}

}  // namespace perfbench
