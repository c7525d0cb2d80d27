#ifndef QFCARD_ESTIMATORS_LOCAL_MODELS_H_
#define QFCARD_ESTIMATORS_LOCAL_MODELS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "estimators/ml_estimator.h"
#include "estimators/postgres.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::est {

/// Creates a featurizer for a sub-schema's FeatureSchema.
using FeaturizerFactory =
    std::function<std::unique_ptr<featurize::Featurizer>(
        featurize::FeatureSchema)>;
/// Creates a fresh untrained model.
using ModelFactory = std::function<std::unique_ptr<ml::Model>()>;

/// The local-model approach of Section 2.1.2 / 4.1: one QFT x model
/// estimator per sub-schema (base table or join result). Each registered
/// sub-schema's join is materialized once; training queries are
/// selection-only queries over the materialization, and catalog-level join
/// queries are answered by rewriting their predicates onto the
/// materialization's columns.
class LocalModelSet : public CardinalityEstimator {
 public:
  /// `catalog` and `graph` are not owned and must outlive this object.
  LocalModelSet(const storage::Catalog* catalog,
                const query::SchemaGraph* graph, FeaturizerFactory ffactory,
                ModelFactory mfactory)
      : catalog_(catalog),
        graph_(graph),
        ffactory_(std::move(ffactory)),
        mfactory_(std::move(mfactory)) {}

  /// Materializes (once) and returns the join of `tables`. The returned
  /// table's columns are named `<table>.<column>`.
  common::StatusOr<const storage::Table*> GetOrMaterialize(
      const std::vector<std::string>& tables);

  /// Trains the sub-schema's local model on `local_queries`, which are
  /// single-table queries over the materialized join (as returned by
  /// GetOrMaterialize) with true cardinalities `cards`.
  common::Status TrainSubSchema(const std::vector<std::string>& tables,
                                const std::vector<query::Query>& local_queries,
                                const std::vector<double>& cards,
                                double valid_fraction, uint64_t seed);

  /// Rewrites a catalog-level (join) query into a selection query over the
  /// sub-schema's materialized join.
  common::StatusOr<query::Query> RewriteToLocal(const query::Query& q) const;

  /// Routes each query to the local model of its sub-schema.
  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const override;
  std::string name() const override;
  /// Total model footprint across sub-schemas (materializations excluded:
  /// they are training-time scaffolding, not estimator state).
  size_t SizeBytes() const override;

  int num_models() const { return static_cast<int>(entries_.size()); }

  /// True if a trained model exists for exactly this sub-schema.
  bool HasModel(const std::vector<std::string>& tables) const;

 private:
  common::StatusOr<double> EstimateOne(const query::Query& q) const;

  struct Entry {
    std::unique_ptr<storage::Table> materialized;
    std::unique_ptr<MlEstimator> estimator;
  };

  const storage::Catalog* catalog_;
  const query::SchemaGraph* graph_;
  FeaturizerFactory ffactory_;
  ModelFactory mfactory_;
  std::map<std::string, Entry> entries_;  // keyed by SubSchemaKey
};

/// Best-of-both-worlds estimator (Section 2.1.2 / Woltmann et al. [31]):
/// local ML models are built only for the sub-schemata where the System R
/// uniformity/independence assumptions fail; everything else falls back to
/// traditional formulas. For a query q:
///   1. if its exact sub-schema has a trained local model, use it;
///   2. otherwise find the largest trained sub-schema S of q's tables and
///      return local(q|S) * synopses(q) / synopses(q|S), i.e. the learned
///      estimate extended by the Postgres-style estimate of the remaining
///      joins and predicates;
///   3. with no covering model at all, return the synopses estimate.
class HybridEstimator : public CardinalityEstimator {
 public:
  /// Neither argument is owned; both must outlive this object.
  HybridEstimator(const LocalModelSet* local,
                  const PostgresStyleEstimator* synopses)
      : local_(local), synopses_(synopses) {}

  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const override;
  std::string name() const override { return "hybrid(" + local_->name() + ")"; }
  size_t SizeBytes() const override {
    return local_->SizeBytes() + synopses_->SizeBytes();
  }

 private:
  common::StatusOr<double> EstimateOne(const query::Query& q) const;

  const LocalModelSet* local_;
  const PostgresStyleEstimator* synopses_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_LOCAL_MODELS_H_
