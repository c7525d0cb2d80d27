// Shared plumbing of the benchmark's workloads: arguments, the report the
// run prints, the output checks, and helpers every workload uses.
#ifndef QFCARD_PERFBENCH_BENCH_H_
#define QFCARD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qfcard.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Estimate latency limit of slo_share (and of max_ok_rate's goodput on the
/// closed loops).
inline constexpr double kSloSeconds = 0.002;

/// Samples per window of a windowed p99 (see WindowedQuantile): the
/// smallest window with ten samples beyond its p99.
inline constexpr size_t kP99Window = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< run records and trace files go here
};

/// What one run prints: end-to-end metrics (untraced run) or per-layer
/// metrics (traced run), request accounting, output-check failures, and
/// the identity of the run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  void ReplaceLayer(std::vector<Metric> metrics) { layer_ = std::move(metrics); }
  /// Records an output check; a failed one fails the run.
  void Check(bool ok, const std::string& what);
  /// One attempted operation of the measured phases.
  void Attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  void Attempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Identity and sample-count record (seed, threads, routes, ...).
  void Note(const std::string& key, const std::string& value) { notes_[key] = value; }
  void Note(const std::string& key, double value);

  bool correct() const { return check_failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& check_failures() const { return check_failures_; }
  const std::vector<Metric>& e2e() const { return e2e_; }
  const std::vector<Metric>& layer() const { return layer_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> check_failures_;
  std::map<std::string, std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

using Workload = void (*)(const Args& args, Report* report);
void RunServeOpenRoutes(const Args& args, Report* report);
void RunAdaptiveRw(const Args& args, Report* report);
void RunOfflineEval(const Args& args, Report* report);

// --- helpers ---------------------------------------------------------------

/// Seed of one input stream of a workload: distinct streams of one seed are
/// independent, and the same (seed, stream) always gives the same inputs.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Process peak resident set size in MiB.
double PeakRssMb();

int NumCpus();

/// Runs `setup` `times` times and returns the median wall time in seconds.
/// The objects built by the last call are the ones the run measures.
double MedianSetupSeconds(int times, const std::function<void()>& setup);

/// True when every byte of a equals b (the server-vs-direct identity).
bool SameBytes(double a, double b);

/// Seed of the generated tables. The data stays fixed across runs, as in
/// the paper (one dataset, generated query workloads); --seed drives the
/// queries, arrival schedules and training sets.
inline constexpr uint64_t kDataSeed = 42;

/// The synthetic forest table, `rows` x `attrs`, as a one-table catalog.
std::unique_ptr<qfcard::storage::Catalog> MakeForestCatalog(int64_t rows, int attrs);

/// Options of the trained gb+complex model: a fixed tree count (no early
/// stopping), so model cost does not vary with the training set.
qfcard::est::EstimatorOptions GbOptions();

/// Checks one estimate: finite and >= 1 (the repo-wide convention).
void CheckEstimate(Report* report, double estimate, const char* where);

/// q-error of an estimate against a true count (both clamped to >= 1).
double QError(double estimate, double truth);

/// Feedback writes: executes each query's count(*) serially with the
/// execution-feedback hook publishing into `bus`, timing each call as a
/// "query.exec" span. Checks that each count equals `truth` (labeled with
/// the hook off) and returns the per-write latencies in seconds.
std::vector<double> FeedbackWrites(const qfcard::storage::Table& table,
                                   const std::vector<qfcard::query::Query>& queries,
                                   const std::vector<double>& truth,
                                   qfcard::adapt::FeedbackBus* bus, Report* report);

/// Direct EstimateBatch over `queries` in batches of `batch`, passing over
/// the set until `seconds` have elapsed (at least once); appends each
/// pass's rate (queries/s) to `rates`. Checks every estimate.
void EstimateBatchPasses(const qfcard::est::CardinalityEstimator& est,
                         const std::vector<qfcard::query::Query>& queries,
                         size_t batch, double seconds, std::vector<double>* rates,
                         Report* report);

using LabelFn = std::function<qfcard::common::StatusOr<std::vector<qfcard::workload::LabeledQuery>>(
    const std::vector<qfcard::query::Query>&)>;

/// Labels `queries` through `label` in chunks of `chunk` queries, each a
/// "workload.label" span; appends each chunk's rate (queries/s) to `rates`
/// and returns the labels in query order.
std::vector<double> LabelInChunks(const std::vector<qfcard::query::Query>& queries,
                                  size_t chunk, const LabelFn& label,
                                  std::vector<double>* rates, Report* report);

/// Direct batch-of-1 Estimate latencies (seconds), one call per query,
/// cycling `queries` until `seconds` have elapsed (at least one pass).
std::vector<double> DirectLatencies(const qfcard::est::CardinalityEstimator& est,
                                    const std::vector<qfcard::query::Query>& queries,
                                    double seconds, Report* report);

/// obs.metrics_overhead_us: direct batch-of-1 estimate p50 with telemetry
/// on minus off, in microseconds. Restores the caller's telemetry setting.
double MetricsOverheadUs(const qfcard::est::CardinalityEstimator& est,
                         const std::vector<qfcard::query::Query>& queries,
                         bool metrics_were_on, Report* report);

/// Per-layer kernels of a trained ML estimator on `queries`: featurize and
/// predict at batch sizes 1 and 64, reported as featurize.b1/b64 and
/// ml.predict.b1/b64 metrics.
void MlKernelMetrics(const qfcard::est::CardinalityEstimator& est,
                     const std::vector<qfcard::query::Query>& queries,
                     Report* report);

/// query.exec.*: calls, p50/p99 and rows/s of the "query.exec" spans' self
/// times (a feedback write's span minus its adapt.publish child) over a
/// table of `rows` rows.
void ExecLayerMetrics(const std::vector<SpanRecord>& spans, int64_t rows, Report* report);

/// serve.fss.p50_ns and serve.resolve.p50_us: FeatureSpaceHash and a
/// non-creating Resolve timed on each query (all on existing routes).
void RouteLayerMetrics(qfcard::serve::ModelRouter* router,
                       const std::vector<qfcard::query::Query>& queries, Report* report);

/// The serve.* metrics read from the provenance of the server's answers;
/// `direct_b1` holds direct batch-of-1 latencies on the same queries.
void ServerLayerMetrics(const std::vector<const qfcard::est::EstimateResponse*>& answers,
                        const std::vector<double>& direct_b1, uint64_t batches,
                        size_t routes, uint64_t rejected, Report* report);

/// loadgen.sent/succeeded/failed/fail_share and the tails of the traced
/// phase: loadgen.p99_us (estimate latency) and loadgen.write_p99_us.
void LoadgenMetrics(uint64_t sent, uint64_t failed, double p99_seconds,
                    double write_p99_seconds, Report* report);

/// Reports every per-layer metric a workload did not fill as 0 (the layer
/// is bypassed by that workload), in the canonical order.
void FillLayerDefaults(Report* report);

/// Converts seconds to microseconds.
inline double Us(double seconds) { return seconds * 1e6; }

}  // namespace perfbench

#endif  // QFCARD_PERFBENCH_BENCH_H_
