// offline_eval: the paper's evaluation loop in one process at
// QFCARD_THREADS=nproc. Each round labels a fixed query set -- single-table
// mixed queries over a 25k x 12 forest table and correlated_join IMDb-like
// join queries -- through the parallel labeler, then estimates every
// single-table query with direct EstimateBatch on a trained gb+complex
// model, plus a batch-of-1 estimate loop and serial feedback writes.
//
// Why: the truth path (executor filter, hash join, parallel labeler) and
// the pure featurize+predict kernels do all the work; the serve and adapt
// layers are bypassed. Inside the server the flush deadline hides model
// cost, so this is the only workload where a GB/NN kernel gain shows.

#include "bench.h"
#include "testing/reference_eval.h"

namespace perfbench {
namespace {

using namespace qfcard;  // NOLINT: benchmark brevity

constexpr int64_t kRows = 25000;
constexpr int kAttrs = 12;
constexpr int64_t kTitles = 8000;
constexpr int kTrainQueries = 1500;
/// Estimation set: direct estimation loops, feedback writes and q-error run
/// over these queries, enough that their cost mix and q-error tail do not
/// move from seed to seed.
constexpr int kEstimationQueries = 10000;
constexpr int kEvalSingle = 1000;
constexpr int kEvalJoin = 150;
constexpr int kWritesPerRound = 100;
constexpr size_t kMinWrites = 1000;
constexpr int kJoinsPerRound = 20;  // serial join timing, traced rounds only
constexpr double kEstSecondsPerRound = 0.05;
constexpr int kOracleSingle = 20;
constexpr size_t kLabelChunks = 8;  // timed label chunks per round
/// Direct estimation passes run over one slice of the estimation set per
/// round (the slices take turns), so a pass is short and a run has
/// hundreds of them.
constexpr size_t kEstSlice = 1000;

struct Fixture {
  std::unique_ptr<storage::Catalog> catalog;
  std::unique_ptr<workload::ImdbDatabase> imdb;
  std::shared_ptr<est::CardinalityEstimator> gb;
  std::vector<query::Query> single;
  std::vector<query::Query> joins;
  std::vector<query::Query> est_set;
  std::vector<double> est_truth;  ///< labeled at the start of the run
  double train_s = 0;
};

void Setup(uint64_t seed, Fixture* f) {
  f->gb.reset();
  f->catalog = MakeForestCatalog(kRows, kAttrs);
  workload::ImdbOptions io;
  io.num_titles = kTitles;
  io.seed = kDataSeed;
  f->imdb = std::make_unique<workload::ImdbDatabase>(workload::MakeImdbDatabase(io));
  const storage::Table& table = f->catalog->table(0);
  const workload::PredicateGenOptions mixed = workload::MixedWorkloadOptions(8);
  // The training workload is fixed with the data, so every seed evaluates
  // the same model; --seed drives the evaluated queries.
  common::Rng train_rng(StreamSeed(kDataSeed, 2));
  const std::vector<query::Query> train =
      workload::GeneratePredicateWorkload(table, kTrainQueries, mixed, train_rng);
  common::Rng rng(StreamSeed(seed, 2));
  f->single = workload::GeneratePredicateWorkload(table, kEvalSingle, mixed, rng);
  f->est_set = workload::GeneratePredicateWorkload(table, kEstimationQueries, mixed, rng);
  workload::JobLightOptions jopts;
  jopts.count = kEvalJoin;
  common::Rng jrng(StreamSeed(seed, 5));
  f->joins = workload::MakeJobLightWorkload(*f->imdb, jopts, jrng);

  const auto labeled = workload::LabelOnTable(table, train, /*drop_empty=*/true).value();
  std::vector<query::Query> qs;
  std::vector<double> cards;
  for (const auto& lq : labeled) {
    qs.push_back(lq.query);
    cards.push_back(lq.card);
  }
  f->gb = est::MakeEstimator("gb+complex", *f->catalog, GbOptions()).value();
  Span span("ml.train");
  QFCARD_CHECK_OK(f->gb->Train(qs, cards, 0.1, StreamSeed(kDataSeed, 3)));
  f->train_s = span.End();
}

struct Rounds {
  std::vector<double> label_rates;  ///< queries/s of each timed label chunk
  std::vector<double> est_rates;    ///< queries/s of each EstimateBatch pass
  std::vector<double> round_seconds;
  std::vector<double> b1;  ///< batch-of-1 latencies, in call order
  double b1_seconds = 0;
  std::vector<double> writes;
  std::vector<double> truth;  ///< labels of the single-table set
  double join_checksum = 0;
};

double Sum(const std::vector<workload::LabeledQuery>& labeled) {
  double s = 0;
  for (const auto& lq : labeled) s += lq.card;
  return s;
}

void RunRounds(Fixture* f, double seconds, bool serial_joins, Rounds* out,
               Report* report) {
  const storage::Table& table = f->catalog->table(0);
  adapt::FeedbackBus bus;
  size_t write_cursor = 0;
  const auto write_batch = [&] {
    std::vector<query::Query> wq;
    std::vector<double> wt;
    for (int i = 0; i < kWritesPerRound; ++i, ++write_cursor) {
      wq.push_back(f->est_set[write_cursor % f->est_set.size()]);
      wt.push_back(f->est_truth[write_cursor % f->est_set.size()]);
    }
    const std::vector<double> w = FeedbackWrites(table, wq, wt, &bus, report);
    out->writes.insert(out->writes.end(), w.begin(), w.end());
  };
  const double stop = Now() + seconds;
  do {
    const double round_start = Now();
    // The fixed set in kLabelChunks timed chunks, each a slice of the
    // single-table queries and a slice of the joins.
    std::vector<workload::LabeledQuery> single;
    std::vector<workload::LabeledQuery> joins;
    for (size_t k = 0; k < kLabelChunks; ++k) {
      const auto slice = [k](const std::vector<query::Query>& v) {
        const auto at = [&v](size_t i) {
          return v.begin() + static_cast<std::ptrdiff_t>(i * v.size() / kLabelChunks);
        };
        return std::vector<query::Query>(at(k), at(k + 1));
      };
      const std::vector<query::Query> s = slice(f->single);
      const std::vector<query::Query> j = slice(f->joins);
      Span span("workload.label");
      const auto ls = workload::LabelOnTable(table, s, false);
      const auto lj = workload::LabelOnCatalog(f->imdb->catalog, j, false);
      const double label_seconds = span.End();
      report->Attempts(s.size() + j.size(), (ls.ok() ? 0 : s.size()) + (lj.ok() ? 0 : j.size()));
      report->Check(ls.ok() && lj.ok(), "labeling failed");
      if (!ls.ok() || !lj.ok()) return;
      single.insert(single.end(), ls.value().begin(), ls.value().end());
      joins.insert(joins.end(), lj.value().begin(), lj.value().end());
      out->label_rates.push_back(static_cast<double>(s.size() + j.size()) / label_seconds);
    }
    // Count checksums: every round must label the fixed set identically.
    if (out->truth.empty()) {
      for (const auto& lq : single) out->truth.push_back(lq.card);
      out->join_checksum = Sum(joins);
    } else {
      std::vector<double> again;
      for (const auto& lq : single) again.push_back(lq.card);
      report->Check(again == out->truth && Sum(joins) == out->join_checksum,
                    "labels changed between rounds");
    }

    const size_t slices = f->est_set.size() / kEstSlice;
    const size_t first = (out->round_seconds.size() % slices) * kEstSlice;
    const std::vector<query::Query> slice(f->est_set.begin() + static_cast<std::ptrdiff_t>(first),
                                          f->est_set.begin() + static_cast<std::ptrdiff_t>(first + kEstSlice));
    EstimateBatchPasses(*f->gb, slice, 64, kEstSecondsPerRound, &out->est_rates, report);
    const double b1_start = Now();
    const std::vector<double> b1 = DirectLatencies(*f->gb, f->est_set, kEstSecondsPerRound, report);
    out->b1_seconds += Now() - b1_start;
    out->b1.insert(out->b1.end(), b1.begin(), b1.end());

    write_batch();

    if (serial_joins) {
      for (int i = 0; i < kJoinsPerRound; ++i) {
        const query::Query& q = f->joins[(out->round_seconds.size() * kJoinsPerRound +
                                          static_cast<size_t>(i)) % f->joins.size()];
        Span span("query.join");
        const auto count = query::JoinExecutor::Count(f->imdb->catalog, q);
        span.End();
        report->Attempt(count.ok());
        report->Check(count.ok(), "JoinExecutor::Count failed");
      }
    }
    out->round_seconds.push_back(Now() - round_start);
  } while (Now() < stop);
  // A slow host fits fewer rounds into a short (traced) phase; top the
  // writes up to the 1000 a p99 needs.
  while (out->writes.size() < kMinWrites) write_batch();
}

/// Label counts against the testing::reference_eval naive oracles: a
/// sample of the single-table set on the real table, and generated join
/// queries on a small IMDb-like database (the nested-loop oracle is
/// exponential, so it cannot run on the full one).
void CheckAgainstOracle(Fixture* f, const std::vector<double>& truth, uint64_t seed,
                        Report* report) {
  const storage::Table& table = f->catalog->table(0);
  for (int i = 0; i < kOracleSingle; ++i) {
    const size_t idx = static_cast<size_t>(i) * f->single.size() / kOracleSingle;
    const auto want = testing::ReferenceCount(table, f->single[idx]);
    report->Check(want.ok() && static_cast<double>(want.value()) == truth[idx],
                  "single-table label differs from the reference oracle");
  }
  workload::ImdbOptions io;
  io.num_titles = 40;
  io.seed = StreamSeed(seed, 6);
  const workload::ImdbDatabase tiny = workload::MakeImdbDatabase(io);
  workload::JobLightOptions jopts;
  jopts.count = 12;
  jopts.max_tables = 3;
  common::Rng rng(StreamSeed(seed, 7));
  const std::vector<query::Query> qs = workload::MakeJobLightWorkload(tiny, jopts, rng);
  const auto labeled = workload::LabelOnCatalog(tiny.catalog, qs, false).value();
  for (size_t i = 0; i < qs.size(); ++i) {
    const auto want = testing::ReferenceJoinCount(tiny.catalog, qs[i]);
    report->Check(want.ok() && static_cast<double>(want.value()) == labeled[i].card,
                  "join label differs from the reference oracle");
  }
  report->Note("oracle_samples", static_cast<double>(kOracleSingle) + static_cast<double>(qs.size()));
}

}  // namespace

void RunOfflineEval(const Args& args, Report* report) {
  const int threads = NumCpus();
  common::SetGlobalThreads(threads);
  obs::SetMetricsEnabled(false);
  report->Note("qfcard_threads", static_cast<double>(threads));
  Fixture f;
  const double setup_s = MedianSetupSeconds(3, [&] { Setup(args.seed, &f); });
  report->Note("single_queries", static_cast<double>(f.single.size()));
  report->Note("join_queries", static_cast<double>(f.joins.size()));

  const auto labeled_est =
      workload::LabelOnTable(f.catalog->table(0), f.est_set, /*drop_empty=*/false).value();
  f.est_truth.clear();
  for (const auto& lq : labeled_est) f.est_truth.push_back(lq.card);

  Rounds untraced;
  if (args.trace) {
    RunRounds(&f, args.seconds * 0.4, false, &untraced, report);
    SetSpansEnabled(true);
  }
  Rounds r;
  RunRounds(&f, args.seconds * (args.trace ? 0.4 : 0.85), args.trace, &r, report);
  report->Note("rounds", static_cast<double>(r.round_seconds.size()));
  report->Note("writes", static_cast<double>(r.writes.size()));
  report->Note("b1_calls", static_cast<double>(r.b1.size()));
  CheckAgainstOracle(&f, r.truth, args.seed, report);

  // The paper's protocol: q-error over queries with non-empty results.
  const std::vector<double> estimates = f.gb->EstimateBatch(f.est_set).value();
  std::vector<double> qerrors;
  for (size_t i = 0; i < estimates.size(); ++i) {
    CheckEstimate(report, estimates[i], "EstimateBatch");
    if (f.est_truth[i] > 0) qerrors.push_back(QError(estimates[i], f.est_truth[i]));
  }
  report->Note("qerror_queries", static_cast<double>(qerrors.size()));
  report->Check(PercentileSupported(r.b1.size(), 0.99), "too few batch-of-1 calls for a p99");
  report->Check(PercentileSupported(r.writes.size(), 0.99), "too few writes for a p99");

  if (!args.trace) {
    const double share = SloShare(r.b1, 0, kSloSeconds);
    report->EndToEnd("setup_s", setup_s, "s");
    report->EndToEnd("rps", static_cast<double>(r.b1.size()) / r.b1_seconds, "req/s");
    report->EndToEnd("p50_us", Us(Median(r.b1)), "us");
    report->EndToEnd("slo_share", share, "ratio");
    report->EndToEnd("max_ok_rate", share * static_cast<double>(r.b1.size()) / r.b1_seconds,
                     "req/s");
    report->EndToEnd("write_p50_us", Us(Median(r.writes)), "us");
    report->EndToEnd("qerror_p50", Quantile(qerrors, 0.5), "ratio");
    report->EndToEnd("qerror_p95", Quantile(qerrors, 0.95), "ratio");
    report->EndToEnd("label_qps", SustainedRate(r.label_rates), "q/s");
    report->EndToEnd("est_qps", SustainedRate(r.est_rates), "q/s");
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const std::vector<SpanRecord> spans = AllSpans();
  const std::vector<double> joins = Durations(spans, "query.join");
  MlKernelMetrics(*f.gb, f.single, report);
  ExecLayerMetrics(spans, kRows, report);
  report->Layer("query.join.calls", static_cast<double>(joins.size()), "count");
  report->Layer("query.join.p50_us", Us(Median(joins)), "us");
  report->Layer("query.join.p99_us", Us(Quantile(joins, 0.99)), "us");
  report->Layer("workload.label.us_per_query", 1e6 / SustainedRate(r.label_rates), "us");
  report->Layer("ml.train_s", f.train_s, "s");
  report->Layer("estimators.direct_b1.p50_us", Us(Median(r.b1)), "us");
  report->Layer("obs.metrics_overhead_us", MetricsOverheadUs(*f.gb, f.single, false, report),
                "us");
  LoadgenMetrics(report->attempted(), report->failed(), WindowedQuantile(r.b1, 0.99, kP99Window),
                 WindowedQuantile(r.writes, 0.99, kP99Window), report);
  // Traced rounds also time serial joins; compare the label+estimate part.
  report->Layer("loadgen.trace_overhead_pct",
                100.0 * (SustainedRate(untraced.label_rates) / SustainedRate(r.label_rates) - 1.0),
                "%");
}

}  // namespace perfbench
