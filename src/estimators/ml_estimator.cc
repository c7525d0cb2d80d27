#include "estimators/ml_estimator.h"

#include <algorithm>

#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::est {

common::Status MlEstimator::Train(const std::vector<query::Query>& queries,
                                  const std::vector<double>& cards,
                                  double valid_fraction, uint64_t seed) {
  if (queries.size() != cards.size()) {
    return common::Status::InvalidArgument("queries/cards length mismatch");
  }
  // One batched featurization pass straight into the training matrix.
  ml::Dataset all;
  all.x = ml::Matrix(static_cast<int>(queries.size()), featurizer_->dim());
  QFCARD_RETURN_IF_ERROR(featurizer_->FeaturizeBatch(
      {queries.data(), queries.size()}, all.x.data().data()));
  all.y.reserve(cards.size());
  for (const double card : cards) all.y.push_back(ml::CardToLabel(card));
  if (valid_fraction <= 0.0) {
    return model_->Fit(all, nullptr);
  }
  common::Rng rng(seed);
  const ml::TrainTestSplit split =
      ml::SplitTrainTest(all, 1.0 - valid_fraction, rng);
  return model_->Fit(split.train, &split.test);
}

namespace {

// One ML sub-stage's seconds: into the caller's StageCapture (the server's
// per-request breakdown) and, under ObserveBatch's label, into its
// estimate.<stage>_seconds{backend} series.
void ReportStage(obs::Stage stage, double seconds, const std::string& label) {
  obs::StageCapture::Report(stage, seconds);
  if (label.empty()) return;
  if (stage == obs::Stage::kFeaturize) {
    obs::ObserveLatency("estimate.featurize_seconds", seconds, label);
  } else {
    obs::ObserveLatency("estimate.predict_seconds", seconds, label);
  }
}

// Set-featurizes `queries` in parallel (order-preserving).
common::Status FeaturizeMscnBatch(const featurize::MscnFeaturizer& featurizer,
                                  std::span<const query::Query> queries,
                                  std::vector<featurize::MscnSample>* out) {
  out->assign(queries.size(), featurize::MscnSample{});
  return common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) -> common::Status {
        const size_t idx = static_cast<size_t>(i);
        QFCARD_ASSIGN_OR_RETURN((*out)[idx], featurizer.Featurize(queries[idx]));
        return common::Status::Ok();
      });
}

}  // namespace

common::Status MlEstimator::EstimateInto(
    std::span<const query::Query> queries,
    std::span<EstimateResponse> out) const {
  return ObserveBatch(*this, queries.size(), [&](const std::string& label) {
    ml::Matrix x(static_cast<int>(queries.size()), featurizer_->dim());
    {
      // Sub-stage: featurize (FeaturizeBatch opens its own featurize.batch
      // span, nested under estimate.featurize here).
      obs::TraceSpan featurize_span("estimate.featurize");
      const obs::ScopedTimer featurize_timer;
      QFCARD_RETURN_IF_ERROR(
          featurizer_->FeaturizeBatch(queries, x.data().data()));
      ReportStage(obs::Stage::kFeaturize, featurize_timer.Seconds(), label);
    }
    obs::TraceSpan predict_span("estimate.predict");
    const obs::ScopedTimer predict_timer;
    const std::vector<float> preds = model_->PredictBatch(x);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].estimate = ml::LabelToCard(preds[i]);
    }
    ReportStage(obs::Stage::kPredict, predict_timer.Seconds(), label);
    return common::Status::Ok();
  });
}

common::Status MscnEstimator::Train(const std::vector<query::Query>& queries,
                                    const std::vector<double>& cards,
                                    double valid_fraction, uint64_t seed) {
  (void)seed;  // MSCN seeds via MscnParams
  if (queries.size() != cards.size()) {
    return common::Status::InvalidArgument("queries/cards length mismatch");
  }
  std::vector<featurize::MscnSample> samples;
  QFCARD_RETURN_IF_ERROR(FeaturizeMscnBatch(featurizer_, queries, &samples));
  std::vector<float> labels;
  labels.reserve(cards.size());
  for (const double card : cards) labels.push_back(ml::CardToLabel(card));
  const size_t n_valid = valid_fraction > 0.0
                             ? static_cast<size_t>(valid_fraction *
                                                   static_cast<double>(samples.size()))
                             : 0;
  if (n_valid == 0) {
    return model_.Fit(samples, labels, nullptr, nullptr);
  }
  const std::vector<featurize::MscnSample> train_samples(
      samples.begin(), samples.end() - static_cast<long>(n_valid));
  const std::vector<float> train_labels(labels.begin(),
                                        labels.end() - static_cast<long>(n_valid));
  const std::vector<featurize::MscnSample> valid_samples(
      samples.end() - static_cast<long>(n_valid), samples.end());
  const std::vector<float> valid_labels(labels.end() - static_cast<long>(n_valid),
                                        labels.end());
  return model_.Fit(train_samples, train_labels, &valid_samples, &valid_labels);
}

common::Status MscnEstimator::EstimateInto(
    std::span<const query::Query> queries,
    std::span<EstimateResponse> out) const {
  return ObserveBatch(*this, queries.size(), [&](const std::string& label) {
    std::vector<featurize::MscnSample> samples;
    {
      obs::TraceSpan featurize_span("estimate.featurize");
      const obs::ScopedTimer featurize_timer;
      QFCARD_RETURN_IF_ERROR(
          FeaturizeMscnBatch(featurizer_, queries, &samples));
      ReportStage(obs::Stage::kFeaturize, featurize_timer.Seconds(), label);
    }
    obs::TraceSpan predict_span("estimate.predict");
    const obs::ScopedTimer predict_timer;
    common::GlobalPool().ParallelFor(
        static_cast<int64_t>(queries.size()), [&](int64_t i) {
          const size_t idx = static_cast<size_t>(i);
          out[idx].estimate = ml::LabelToCard(model_.Predict(samples[idx]));
        });
    ReportStage(obs::Stage::kPredict, predict_timer.Seconds(), label);
    return common::Status::Ok();
  });
}

}  // namespace qfcard::est
