// Golden-report tests for the estimator x workload benchmark matrix
// (src/eval/matrix.h). The load-bearing property is the determinism
// contract: a deterministic report (include_timings=false) must be
// byte-identical run-to-run AND across thread-pool sizes — CI diffs the
// QFCARD_THREADS=1 and =4 legs against each other, so any drift here is a
// release blocker. The remaining tests pin the report structure the
// tools/validate_json.py validator and the perf-trajectory consumers
// parse, plus the eval.matrix.* telemetry the metrics schema requires.

#include "eval/matrix.h"

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "workload/families.h"

namespace qfcard::eval {
namespace {

// Pinned mini-matrix: 2 untrained estimators x 3 families at tiny sizes,
// the same shape CI's matrix-smoke step runs.
MatrixOptions MiniOptions() {
  MatrixOptions options;
  options.estimators = {"postgres", "sampling"};
  options.families = {"conjunctive", "strings", "in_heavy"};
  options.sizes.rows = 600;
  options.sizes.train = 30;
  options.sizes.test = 20;
  options.seed = 42;
  options.include_timings = false;
  options.report_name = "mini";
  return options;
}

std::string RunMiniJson() {
  const auto report_or = RunMatrix(MiniOptions());
  QFCARD_CHECK_OK(report_or.status());
  return report_or.value().ToJson();
}

TEST(MatrixGoldenTest, DeterministicReportIsIdenticalAcrossThreadCounts) {
  common::SetGlobalThreads(1);
  const std::string at_one = RunMiniJson();
  common::SetGlobalThreads(4);
  const std::string at_four = RunMiniJson();
  common::SetGlobalThreads(1);
  EXPECT_EQ(at_one, at_four)
      << "deterministic matrix reports must be byte-identical at every "
         "QFCARD_THREADS";
}

TEST(MatrixGoldenTest, DeterministicReportIsIdenticalRunToRun) {
  EXPECT_EQ(RunMiniJson(), RunMiniJson());
}

TEST(MatrixGoldenTest, ReportStructureMatchesSchema) {
  const auto report_or = RunMatrix(MiniOptions());
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  const MatrixReport& report = report_or.value();

  EXPECT_EQ(report.name, "mini");
  EXPECT_TRUE(report.deterministic);
  EXPECT_EQ(report.threads, 0);  // deterministic reports record 0
  ASSERT_EQ(report.estimators.size(), 2u);
  ASSERT_EQ(report.families.size(), 3u);
  ASSERT_EQ(report.cells.size(), 6u);

  for (const MatrixCell& cell : report.cells) {
    EXPECT_EQ(cell.status, CellStatus::kOk)
        << cell.estimator << " x " << cell.family << ": " << cell.message;
    EXPECT_GT(cell.train_queries, 0);
    EXPECT_GT(cell.test_queries, 0);
    EXPECT_GE(cell.qerror_p50, 1.0);
    EXPECT_GE(cell.qerror_p95, cell.qerror_p50);
    EXPECT_GE(cell.qerror_max, 1.0);
    // The determinism contract zeroes every timing field.
    EXPECT_EQ(cell.train_seconds, 0.0);
    EXPECT_EQ(cell.usec_per_query, 0.0);
  }

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"kind\":\"matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cells_ok\",\"unit\":\"count\",\"value\":6"),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(MatrixGoldenTest, UnsupportedPairsAreSkippedNotErrored) {
  MatrixOptions options = MiniOptions();
  // sampling has no join support; gb+conjunctive rejects disjunctions.
  options.estimators = {"sampling", "gb+conjunctive"};
  options.families = {"correlated_join", "mixed"};
  const auto report_or = RunMatrix(options);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  int unsupported = 0;
  for (const MatrixCell& cell : report_or.value().cells) {
    EXPECT_NE(cell.status, CellStatus::kError)
        << cell.estimator << " x " << cell.family << ": " << cell.message;
    if (cell.status == CellStatus::kUnsupported) ++unsupported;
  }
  // sampling x correlated_join, gb+conjunctive x {correlated_join, mixed}.
  EXPECT_EQ(unsupported, 3);
}

TEST(MatrixGoldenTest, UnknownAxisNamesFailWithDidYouMean) {
  MatrixOptions options = MiniOptions();
  options.estimators = {"postgrse"};
  const auto bad_estimator = RunMatrix(options);
  ASSERT_FALSE(bad_estimator.ok());
  EXPECT_NE(bad_estimator.status().ToString().find("did you mean"),
            std::string::npos);

  options = MiniOptions();
  options.families = {"stings"};
  const auto bad_family = RunMatrix(options);
  ASSERT_FALSE(bad_family.ok());
  EXPECT_NE(bad_family.status().ToString().find("did you mean"),
            std::string::npos);
}

TEST(MatrixGoldenTest, EmitsEvalMatrixTelemetry) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetForTest();
  const auto report_or = RunMatrix(MiniOptions());
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();

  uint64_t cells_ok = 0;
  uint64_t queries = 0;
  for (const auto& row : obs::MetricsRegistry::Global().CounterRows()) {
    if (row.name == "eval.matrix.cells" && row.labels == "status=ok") {
      cells_ok = row.value;
    }
    if (row.name == "eval.matrix.queries") queries = row.value;
  }
  EXPECT_EQ(cells_ok, 6u);
  EXPECT_GT(queries, 0u);

  bool saw_cell_seconds = false;
  bool saw_qerror = false;
  for (const auto& row : obs::MetricsRegistry::Global().HistogramRows()) {
    if (row.name == "eval.matrix.cell_seconds" && row.count > 0) {
      saw_cell_seconds = true;
    }
    if (row.name == "eval.matrix.qerror" && row.count > 0) saw_qerror = true;
  }
  EXPECT_TRUE(saw_cell_seconds);
  EXPECT_TRUE(saw_qerror);
  obs::MetricsRegistry::Global().ResetForTest();
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace qfcard::eval
