// Self-tests of the benchmark's statistics code (stats.h) and span
// self-time arithmetic (spans.h). run.py runs this before every benchmark
// run and refuses to report when it fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  using perfbench::Quantile;
  const std::vector<double> v = Range(1000);
  Expect(Quantile(v, 0.5) == 500, "p50 of 1..1000 is 500");
  Expect(Quantile(v, 0.99) == 990, "p99 of 1..1000 is 990 (nearest rank)");
  Expect(Quantile(v, 1.0) == 1000, "p100 is the max");
  Expect(Quantile(v, 0.0) == 1, "p0 is the min");
  Expect(Quantile({}, 0.5) == 0, "no samples give 0");
  Expect(Quantile({7}, 0.99) == 7, "one sample is every quantile");

  // At least ten samples beyond a reported percentile.
  Expect(perfbench::SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(perfbench::PercentileSupported(1000, 0.99), "1000 samples support p99");
  Expect(!perfbench::PercentileSupported(999, 0.99), "999 samples do not support p99");
  Expect(perfbench::PercentileSupported(200, 0.95), "200 samples support p95");
  Expect(!perfbench::PercentileSupported(199, 0.95), "199 samples do not support p95");
  Expect(!perfbench::PercentileSupported(0, 0.5), "no samples support nothing");
  Expect(perfbench::SustainedRate(Range(200)) == 190, "sustained rate is the p95 of the chunks");

  // Windowed p99: one stall window among five does not move the median.
  std::vector<double> ordered;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) ordered.push_back(w == 2 ? 1e6 : i);
  }
  Expect(perfbench::WindowedQuantile(ordered, 0.99, 1000) == 990,
         "a stalled window does not set the windowed p99");
  Expect(perfbench::WindowedQuantile(Range(1500), 0.99, 1000) == Quantile(Range(1500), 0.99),
         "fewer than two windows fall back to the plain quantile");
}

void TestSloShare() {
  using perfbench::SloShare;
  const std::vector<double> lat = {0.001, 0.0015, 0.002, 0.003};
  Expect(Near(SloShare(lat, 0, 0.002), 0.75), "3 of 4 within the limit (inclusive)");
  Expect(Near(SloShare(lat, 4, 0.002), 3.0 / 8.0), "failures count as misses");
  Expect(Near(SloShare({}, 2, 0.002), 0.0), "only failures give 0");
  Expect(Near(SloShare({}, 0, 0.002), 0.0), "nothing attempted gives 0");
  Expect(SloShare(lat, 1, 0.002) < SloShare(lat, 0, 0.002), "a failure never raises the share");
}

void TestMaxOkRate() {
  using perfbench::RateStep;
  auto step = [](double rate, double p99) {
    RateStep s;
    s.target_rate = rate;
    s.achieved_rate = rate * 0.99;
    s.p99 = p99;
    return s;
  };
  std::vector<RateStep> steps = {step(1000, 1.0), step(2000, 1.5), step(4000, 1.9),
                                 step(8000, 3.0)};
  Expect(perfbench::MaxOkStep(steps, 2.0) == 2, "highest step within the limit");
  steps[2].backlog_grew = true;
  Expect(perfbench::MaxOkStep(steps, 2.0) == 1, "a growing backlog disqualifies a step");
  steps[1].sender_bound = true;
  Expect(perfbench::MaxOkStep(steps, 2.0) == 0, "a sender-bound step is invalid");
  steps[0].failed = 1;
  Expect(perfbench::MaxOkStep(steps, 2.0) == -1, "a failed request disqualifies a step");
  // Selection is by target rate, not by position.
  std::vector<RateStep> unordered = {step(4000, 1.0), step(1000, 1.0), step(2000, 5.0)};
  Expect(perfbench::MaxOkStep(unordered, 2.0) == 0, "steps need not be sorted");

  std::vector<double> flat(400, 0.0005);
  Expect(!perfbench::BacklogGrew(flat, 0.001), "steady lateness is no backlog");
  std::vector<double> rising;
  for (int i = 0; i < 400; ++i) rising.push_back(i * 0.0001);
  Expect(perfbench::BacklogGrew(rising, 0.001), "rising lateness is a growing backlog");
}

void TestSelfTime() {
  using perfbench::SelfTime;
  Expect(Near(SelfTime(0, 10, {}), 10), "no children: self time is the span");
  Expect(Near(SelfTime(0, 10, {{2, 4}, {6, 7}}), 7), "disjoint children subtract");
  Expect(Near(SelfTime(0, 10, {{2, 6}, {4, 8}}), 4), "overlapping children count once");
  Expect(Near(SelfTime(0, 10, {{-5, 3}, {9, 20}}), 6), "children clip to the parent");
  Expect(Near(SelfTime(0, 10, {{2, 8}, {3, 4}}), 4), "nested children count once");
  Expect(Near(SelfTime(0, 10, {{0, 10}}), 0), "a covering child leaves no self time");

  // The recorder agrees: a parent with one child of known extent.
  perfbench::SetSpansEnabled(true);
  double child_seconds = 0;
  {
    perfbench::Span parent("parent");
    {
      perfbench::Span child("child");
      const double until = perfbench::Now() + 0.002;
      while (perfbench::Now() < until) {
      }
      child_seconds = child.End();
    }
  }
  perfbench::SetSpansEnabled(false);
  const auto spans = perfbench::AllSpans();
  const auto parent = perfbench::Durations(spans, "parent");
  const auto self = perfbench::SelfTimes(spans, "parent");
  Expect(parent.size() == 1 && self.size() == 1, "one parent span recorded");
  if (parent.size() == 1 && self.size() == 1) {
    Expect(Near(parent[0] - self[0], child_seconds), "parent self time excludes its child");
  }
  Expect(perfbench::SelfTimes(spans, "child").size() == 1, "child span recorded");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSloShare();
  TestMaxOkRate();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-test: ok\n");
  return 0;
}
