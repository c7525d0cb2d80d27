// The benchmark's metric names and units. BENCHMARK.json at the repository
// root lists the same names; main.cc refuses to print a result whose metric
// set differs from these lists.
#ifndef QFCARD_PERFBENCH_METRIC_NAMES_H_
#define QFCARD_PERFBENCH_METRIC_NAMES_H_

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0), in this order.
inline constexpr MetricName kEndToEndMetrics[] = {
    {"setup_s", "s"},          {"rps", "req/s"},
    {"p50_us", "us"},          {"slo_share", "ratio"},
    {"max_ok_rate", "req/s"},  {"write_p50_us", "us"},
    {"qerror_p50", "ratio"},   {"qerror_p95", "ratio"},
    {"label_qps", "q/s"},      {"est_qps", "q/s"},
    {"peak_rss_mb", "MB"},
};

/// Printed by every traced run (--trace 1), in this order. A layer that a
/// workload bypasses reports 0.
inline constexpr MetricName kLayerMetrics[] = {
    {"query.parse.calls", "count"},
    {"query.parse.p50_us", "us"},
    {"query.exec.calls", "count"},
    {"query.exec.p50_us", "us"},
    {"query.exec.p99_us", "us"},
    {"query.exec.rows_per_s", "rows/s"},
    {"query.join.calls", "count"},
    {"query.join.p50_us", "us"},
    {"query.join.p99_us", "us"},
    {"workload.label.us_per_query", "us"},
    {"featurize.b1.us_per_query", "us"},
    {"featurize.b64.us_per_query", "us"},
    {"ml.predict.b1.us_per_row", "us"},
    {"ml.predict.b64.us_per_row", "us"},
    {"ml.train_s", "s"},
    {"estimators.postgres.p50_us", "us"},
    {"estimators.direct_b1.p50_us", "us"},
    {"serve.fss.p50_ns", "ns"},
    {"serve.resolve.p50_us", "us"},
    {"serve.overhead.p50_us", "us"},
    {"serve.queue_wait.p50_us", "us"},
    {"serve.queue_wait.p99_us", "us"},
    {"serve.batch_exec.p50_us", "us"},
    {"serve.batch.mean_size", "count"},
    {"serve.batches", "count"},
    {"serve.routes", "count"},
    {"serve.rejected", "count"},
    {"adapt.publish.p50_us", "us"},
    {"adapt.publish.p99_us", "us"},
    {"adapt.estimate.p50_us", "us"},
    {"adapt.ingested", "count"},
    {"adapt.tier_share.ml", "ratio"},
    {"adapt.tier_share.knn", "ratio"},
    {"adapt.tier_share.residual", "ratio"},
    {"obs.metrics_overhead_us", "us"},
    {"loadgen.sent", "count"},
    {"loadgen.succeeded", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.fail_share", "ratio"},
    {"loadgen.p99_us", "us"},
    {"loadgen.write_p99_us", "us"},
    {"loadgen.invalid_steps", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.trace_overhead_pct", "%"},
};

}  // namespace perfbench

#endif  // QFCARD_PERFBENCH_METRIC_NAMES_H_
