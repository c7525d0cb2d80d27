#include "eval/matrix.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/env.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::eval {

namespace {

// Fixed float formatting so identical cell values render byte-identically.
// Non-finite values (defensive; q-errors over labeled workloads are finite)
// render as 0 to keep the report valid JSON.
std::string JNum(double v) {
  if (!std::isfinite(v)) return "0";
  return common::StrFormat("%.6g", v);
}

std::string JEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += common::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JStrList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JEscape(items[i]) + "\"";
  }
  return out + "]";
}

struct CellTotals {
  int64_t ok = 0;
  int64_t unsupported = 0;
  int64_t error = 0;
  int64_t test_queries = 0;
};

CellTotals Totalize(const std::vector<MatrixCell>& cells) {
  CellTotals t;
  for (const MatrixCell& c : cells) {
    switch (c.status) {
      case CellStatus::kOk:
        ++t.ok;
        t.test_queries += c.test_queries;
        break;
      case CellStatus::kUnsupported:
        ++t.unsupported;
        break;
      case CellStatus::kError:
        ++t.error;
        break;
    }
  }
  return t;
}

// Runs one estimator over one built family instance, filling `cell`.
void RunCell(const MatrixOptions& options, const est::EstimatorInfo& info,
             const workload::WorkloadFamily& family,
             const workload::FamilyInstance& inst, MatrixCell* cell) {
  const std::string labels =
      "estimator=" + info.name + ",family=" + family.name;
  obs::TraceSpan span("eval.matrix.cell");
  obs::ScopedTimer cell_timer("eval.matrix.cell_seconds", labels);

  est::EstimatorOptions eopts = options.estimator_options;
  eopts.table = inst.primary_table;
  if (family.joins) eopts.schema_graph = &inst.graph;
  auto est_or = est::MakeEstimator(info.name, inst.catalog, eopts);
  if (!est_or.ok()) {
    cell->status = CellStatus::kError;
    cell->message = est_or.status().message();
    return;
  }
  std::unique_ptr<est::CardinalityEstimator> estimator =
      std::move(est_or).value();

  std::vector<query::Query> train_queries;
  std::vector<double> train_cards;
  train_queries.reserve(inst.train.size());
  train_cards.reserve(inst.train.size());
  for (const workload::LabeledQuery& lq : inst.train) {
    train_queries.push_back(lq.query);
    train_cards.push_back(lq.card);
  }
  obs::ScopedTimer train_timer;
  const common::Status train_status = estimator->Train(
      train_queries, train_cards, options.valid_fraction, options.seed);
  const double train_seconds = train_timer.Seconds();
  if (!train_status.ok()) {
    cell->status = CellStatus::kError;
    cell->message = train_status.message();
    return;
  }

  std::vector<query::Query> test_queries;
  test_queries.reserve(inst.test.size());
  for (const workload::LabeledQuery& lq : inst.test) {
    test_queries.push_back(lq.query);
  }
  obs::ScopedTimer estimate_timer("eval.matrix.estimate_seconds", labels);
  auto estimates_or = estimator->EstimateBatch(test_queries);
  const double estimate_seconds = estimate_timer.Stop();
  if (!estimates_or.ok()) {
    cell->status = CellStatus::kError;
    cell->message = estimates_or.status().message();
    return;
  }
  const std::vector<double>& estimates = *estimates_or;

  // Exact per-cell statistics over every q-error; the exported
  // eval.matrix.qerror histogram is live telemetry only.
  std::vector<double> qerrors;
  qerrors.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double q = ml::QError(inst.test[i].card, estimates[i]);
    qerrors.push_back(q);
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .HistogramNamed("eval.matrix.qerror", obs::QErrorBounds(), labels)
          ->Observe(q);
    }
  }
  const ml::QErrorSummary summary =
      ml::QErrorSummary::FromErrors(std::move(qerrors));
  cell->status = CellStatus::kOk;
  cell->train_queries = static_cast<int64_t>(inst.train.size());
  cell->test_queries = static_cast<int64_t>(inst.test.size());
  cell->qerror_mean = summary.mean;
  cell->qerror_p50 = summary.median;
  cell->qerror_p90 = summary.p90;
  cell->qerror_p95 = summary.p95;
  cell->qerror_p99 = summary.p99;
  cell->qerror_max = summary.max;
  cell->group_aware = !(family.group_by && !info.group_aware);
  cell->learns_online = info.learns_online;
  if (options.include_timings && !inst.test.empty()) {
    cell->train_seconds = train_seconds;
    cell->usec_per_query =
        estimate_seconds * 1e6 / static_cast<double>(inst.test.size());
  }
  obs::IncrementCounter("eval.matrix.queries", "",
                        static_cast<uint64_t>(inst.test.size()));
}

}  // namespace

const char* CellStatusToString(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kUnsupported:
      return "unsupported";
    case CellStatus::kError:
      return "error";
  }
  return "unknown";
}

common::StatusOr<MatrixReport> RunMatrix(const MatrixOptions& options) {
  obs::TraceSpan span("eval.matrix.run");
  obs::ScopedTimer wall_timer;

  std::vector<std::string> estimator_names = options.estimators;
  if (estimator_names.empty()) {
    // Default comparison set: every entry must handle mixed (disjunctive)
    // predicates, so the ML members use the complex QFT.
    estimator_names = {"postgres", "sampling", "gb+complex", "nn+complex",
                       "linear+complex"};
  }
  std::vector<const est::EstimatorInfo*> infos;
  infos.reserve(estimator_names.size());
  for (const std::string& name : estimator_names) {
    QFCARD_ASSIGN_OR_RETURN(const est::EstimatorInfo* info,
                            est::EstimatorInfoFor(name));
    infos.push_back(info);
  }

  std::vector<std::string> family_names = options.families;
  if (family_names.empty()) family_names = workload::FamilyNames();
  std::vector<const workload::WorkloadFamily*> families;
  families.reserve(family_names.size());
  for (const std::string& name : family_names) {
    QFCARD_ASSIGN_OR_RETURN(const workload::WorkloadFamily* family,
                            workload::FamilyNamed(name));
    families.push_back(family);
  }

  // Build every family instance once; all estimators share it, so the cell
  // axis is the estimator, never the data.
  std::vector<workload::FamilyInstance> instances;
  instances.reserve(families.size());
  for (const workload::WorkloadFamily* family : families) {
    obs::ScopedTimer build_timer("eval.matrix.family_build_seconds",
                                 "family=" + family->name);
    QFCARD_ASSIGN_OR_RETURN(workload::FamilyInstance inst,
                            family->build(options.sizes, options.seed));
    instances.push_back(std::move(inst));
  }

  MatrixReport report;
  report.name = options.report_name;
  report.scale = common::ScaleName(common::GetScale());
  report.threads =
      options.include_timings ? common::GlobalPool().num_threads() : 0;
  report.seed = options.seed;
  report.deterministic = !options.include_timings;
  for (const est::EstimatorInfo* info : infos) {
    report.estimators.push_back(info->name);
  }
  for (const workload::WorkloadFamily* family : families) {
    report.families.push_back(family->name);
  }

  for (const est::EstimatorInfo* info : infos) {
    for (size_t f = 0; f < families.size(); ++f) {
      const workload::WorkloadFamily& family = *families[f];
      MatrixCell cell;
      cell.estimator = info->name;
      cell.family = family.name;
      if (family.joins && !info->supports_joins) {
        cell.status = CellStatus::kUnsupported;
        cell.message = "estimator does not support join queries";
      } else if (family.disjunctions && !info->supports_disjunctions) {
        cell.status = CellStatus::kUnsupported;
        cell.message = "estimator does not support disjunctions";
      } else {
        RunCell(options, *info, family, instances[f], &cell);
      }
      obs::IncrementCounter("eval.matrix.cells",
                            std::string("status=") +
                                CellStatusToString(cell.status));
      report.cells.push_back(std::move(cell));
    }
  }
  if (obs::MetricsEnabled()) {
    obs::ObserveLatency("eval.matrix.run_seconds", wall_timer.Seconds());
  }
  return report;
}

std::string MatrixReport::ToJson() const {
  const CellTotals totals = Totalize(cells);
  std::string out = "{\"version\":1,\"kind\":\"matrix\"";
  out += ",\"name\":\"" + JEscape(name) + "\"";
  out += ",\"context\":{\"scale\":\"" + JEscape(scale) + "\"";
  out += common::StrFormat(",\"threads\":%d", threads);
  out += common::StrFormat(",\"seed\":%llu",
                           static_cast<unsigned long long>(seed));
  out += std::string(",\"deterministic\":") +
         (deterministic ? "true" : "false") + "}";
  out += ",\"estimators\":" + JStrList(estimators);
  out += ",\"families\":" + JStrList(families);
  out += ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& c = cells[i];
    if (i > 0) out += ",";
    out += "{\"estimator\":\"" + JEscape(c.estimator) + "\"";
    out += ",\"family\":\"" + JEscape(c.family) + "\"";
    out += std::string(",\"status\":\"") + CellStatusToString(c.status) + "\"";
    if (!c.message.empty()) {
      out += ",\"message\":\"" + JEscape(c.message) + "\"";
    }
    if (c.status == CellStatus::kOk) {
      out += common::StrFormat(",\"train_queries\":%lld",
                               static_cast<long long>(c.train_queries));
      out += common::StrFormat(",\"test_queries\":%lld",
                               static_cast<long long>(c.test_queries));
      out += ",\"qerror\":{\"mean\":" + JNum(c.qerror_mean);
      out += ",\"p50\":" + JNum(c.qerror_p50);
      out += ",\"p90\":" + JNum(c.qerror_p90);
      out += ",\"p95\":" + JNum(c.qerror_p95);
      out += ",\"p99\":" + JNum(c.qerror_p99);
      out += ",\"max\":" + JNum(c.qerror_max) + "}";
      out += ",\"train_seconds\":" + JNum(c.train_seconds);
      out += ",\"usec_per_query\":" + JNum(c.usec_per_query);
      out += std::string(",\"group_aware\":") +
             (c.group_aware ? "true" : "false");
      out += std::string(",\"learns_online\":") +
             (c.learns_online ? "true" : "false");
    }
    out += "}";
  }
  out += "],\"metrics\":[";
  out += common::StrFormat(
      "{\"name\":\"cells_ok\",\"unit\":\"count\",\"value\":%lld}",
      static_cast<long long>(totals.ok));
  out += common::StrFormat(
      ",{\"name\":\"cells_unsupported\",\"unit\":\"count\",\"value\":%lld}",
      static_cast<long long>(totals.unsupported));
  out += common::StrFormat(
      ",{\"name\":\"cells_error\",\"unit\":\"count\",\"value\":%lld}",
      static_cast<long long>(totals.error));
  out += common::StrFormat(
      ",{\"name\":\"test_queries_total\",\"unit\":\"count\",\"value\":%lld}",
      static_cast<long long>(totals.test_queries));
  out += "]}\n";
  return out;
}

}  // namespace qfcard::eval
