#ifndef QFCARD_ESTIMATORS_IEP_H_
#define QFCARD_ESTIMATORS_IEP_H_

#include "estimators/estimator.h"

namespace qfcard::est {

/// Inclusion-Exclusion Principle adapter (Section 6): answers mixed queries
/// using an estimator that only supports conjunctions, by expanding the
/// query's per-attribute disjunctions into DNF terms T_1 ... T_n and
/// estimating |T_1 v ... v T_n| = sum over non-empty S of
/// (-1)^(|S|+1) |AND of S| — i.e. 2^n - 1 conjunctive sub-estimates.
///
/// The paper argues this is impractical: one disjunctive query becomes
/// exponentially many estimation problems, each contributing error, which is
/// exactly what the bench_section6_iep experiment shows against Limited
/// Disjunction Encoding. Negative partial sums are possible when the inner
/// estimates are inconsistent; the final result clamps to >= 1.
class IepEstimator : public CardinalityEstimator {
 public:
  /// Per-call bookkeeping (exposed for the Section 6 experiment).
  struct CallStats {
    int dnf_terms = 0;
    int64_t subqueries = 0;
  };

  /// `inner` must handle conjunctive queries over the same catalog; not
  /// owned. Queries expanding to more than `max_terms` DNF terms are
  /// rejected (2^n growth).
  IepEstimator(const CardinalityEstimator* inner, int max_terms = 16)
      : inner_(inner), max_terms_(max_terms) {}

  /// Serial: each query's expansion rewrites the per-call stats below, so a
  /// parallel fan-out would race. IEP is the paper's impracticality
  /// baseline; it stays single-threaded by design.
  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const override;
  std::string name() const override { return "IEP(" + inner_->name() + ")"; }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }

  /// Statistics of the most recently estimated query.
  const CallStats& last_call() const { return last_call_; }

 private:
  common::StatusOr<double> EstimateOne(const query::Query& q) const;

  const CardinalityEstimator* inner_;
  int max_terms_;
  mutable CallStats last_call_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_IEP_H_
