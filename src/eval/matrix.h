#ifndef QFCARD_EVAL_MATRIX_H_
#define QFCARD_EVAL_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimators/registry.h"
#include "workload/families.h"

namespace qfcard::eval {

/// Options of one benchmark-matrix sweep (estimator x workload family).
struct MatrixOptions {
  /// Registry names to sweep; empty = the default comparison set
  /// (postgres, sampling, gb+complex, nn+complex, linear+complex).
  std::vector<std::string> estimators;
  /// Family names to sweep; empty = every registered family.
  std::vector<std::string> families;
  /// Data/workload budgets per family; default from ScaledFamilySizes().
  workload::FamilySizes sizes = workload::ScaledFamilySizes();
  uint64_t seed = 20230707;
  double valid_fraction = 0.1;
  /// When false the report is byte-identical across thread counts and
  /// re-runs: every timing field is written as 0 and the context records
  /// threads=0. Golden tests and the CI mini-matrix use this; trajectory
  /// runs keep timings on.
  bool include_timings = true;
  /// Construction knobs forwarded to MakeEstimator. The per-family schema
  /// graph overrides `estimator_options.schema_graph` for join families.
  est::EstimatorOptions estimator_options;
  std::string report_name = "matrix";
};

/// Outcome class of one estimator x family cell.
enum class CellStatus {
  kOk,
  kUnsupported,  ///< skipped by capability metadata (e.g. joins)
  kError,        ///< construction/training/estimation failed
};

const char* CellStatusToString(CellStatus status);

/// One estimator x family result. q-error statistics are exact
/// (ml::QErrorSummary::FromErrors over the cell's test queries).
struct MatrixCell {
  std::string estimator;
  std::string family;
  CellStatus status = CellStatus::kOk;
  std::string message;  ///< error text or skip reason, "" when ok
  int64_t train_queries = 0;
  int64_t test_queries = 0;
  double qerror_mean = 0.0;
  double qerror_p50 = 0.0;
  double qerror_p90 = 0.0;
  double qerror_p95 = 0.0;
  double qerror_p99 = 0.0;
  double qerror_max = 0.0;
  double train_seconds = 0.0;
  double usec_per_query = 0.0;
  /// False when the family carries GROUP BY but the estimator ignores the
  /// clause (predicts filtered row counts, not group counts) — the cell
  /// still runs, since ranking under misuse is part of the benchmark.
  bool group_aware = true;
  /// Mirror of EstimatorInfo::learns_online for the cell's estimator: true
  /// when it improves from execution feedback without an offline retrain
  /// (docs/adaptive.md). False for every current registry entry; surfaced
  /// here so report tooling can tell adaptive fronts apart when they join
  /// the sweep.
  bool learns_online = false;
};

/// A finished sweep, serializable to the versioned report format described
/// by tools/bench_schema.json (kind "matrix").
struct MatrixReport {
  std::string name;
  std::string scale;  ///< "smoke" | "default" | "full"
  int threads = 0;    ///< effective pool width, 0 in deterministic mode
  uint64_t seed = 0;
  bool deterministic = false;
  std::vector<std::string> estimators;  ///< sweep order
  std::vector<std::string> families;    ///< sweep order
  std::vector<MatrixCell> cells;        ///< estimator-major order

  /// Renders the versioned JSON report: fixed key order, fixed float
  /// formatting — byte-identical for identical cell values.
  std::string ToJson() const;
};

/// Runs the full sweep: builds each family instance once, then drives every
/// estimator through Train + EstimateBatch (global thread pool) on it.
/// Per-cell q-error statistics are exact; eval.matrix.* counters/histograms
/// land in the global metrics registry when metrics are enabled. Fails only on unknown
/// estimator/family names or a family build failure — per-cell failures
/// are reported in the cell's status instead of aborting the sweep.
common::StatusOr<MatrixReport> RunMatrix(const MatrixOptions& options);

}  // namespace qfcard::eval

#endif  // QFCARD_EVAL_MATRIX_H_
