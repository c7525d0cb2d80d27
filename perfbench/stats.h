// Statistics the benchmark reports. Header-only so selftest.cc checks the
// exact code the workloads run.
#ifndef QFCARD_PERFBENCH_STATS_H_
#define QFCARD_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that lie strictly beyond the nearest-rank `q` quantile of `n`
/// samples. A percentile is only reported when at least ten samples lie
/// beyond it; below that it is an extreme value, not a percentile.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::max<size_t>(rank, 1);
}

inline constexpr size_t kMinSamplesBeyond = 10;

/// True when `n` samples support reporting the `q` quantile.
inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Exact nearest-rank quantile: the smallest sample with at least a `q`
/// share of the samples at or below it. No interpolation, so the value is
/// always one that was observed. Returns 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The `q` quantile of each run of `window` consecutive samples (a short
/// tail run joins the window before it), then the median across windows.
/// A host stall of a few milliseconds lands in one window, so the reported
/// tail is the typical window's tail rather than the stall's. With fewer
/// than two windows' worth of samples this is the plain quantile.
inline double WindowedQuantile(const std::vector<double>& ordered, double q,
                               size_t window) {
  if (window == 0 || ordered.size() < 2 * window) return Quantile(ordered, q);
  std::vector<double> per_window;
  const size_t windows = ordered.size() / window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? ordered.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

/// The rate a run reports from many short timed chunks of work: their 95th
/// percentile. On a shared VM the host slows most chunks, by 20-30% in some
/// minutes and by millisecond stalls in others, while the fastest few
/// percent run at the code's own speed in every run; the 95th percentile
/// reads that speed and is the statistic that stays put from run to run.
/// Use at least 200 chunks, so ten lie beyond it.
inline double SustainedRate(const std::vector<double>& chunk_rates) {
  return Quantile(chunk_rates, 0.95);
}

/// Share of attempted requests answered OK within `limit`. `ok_latencies`
/// holds one latency per successful request; each of the `failed` requests
/// counts as a miss, so a failure can never raise the share.
inline double SloShare(const std::vector<double>& ok_latencies, uint64_t failed,
                       double limit) {
  const double attempted = static_cast<double>(ok_latencies.size() + failed);
  if (attempted == 0) return 0.0;
  size_t within = 0;
  for (const double l : ok_latencies) within += l <= limit ? 1 : 0;
  return static_cast<double>(within) / attempted;
}

/// One fixed-rate step of an open-loop ladder, as the load generator saw it.
struct RateStep {
  double target_rate = 0;    ///< offered requests per second
  double achieved_rate = 0;  ///< requests answered OK per second of the step
  double p99 = 0;            ///< latency from due time, same unit as the limit
  uint64_t failed = 0;
  bool backlog_grew = false;  ///< the sender fell further behind over the step
  bool sender_bound = false;  ///< the sender's own work, not the server, lagged
};

/// A step meets the limit when no request failed, its p99 is within
/// `limit`, its backlog did not grow, and it is valid (not sender-bound).
inline bool StepOk(const RateStep& s, double limit) {
  return !s.sender_bound && !s.backlog_grew && s.failed == 0 && s.p99 <= limit;
}

/// The highest target-rate step that meets `limit`; its achieved rate is
/// what max_ok_rate reports. Returns -1 when no step meets the limit.
inline int MaxOkStep(const std::vector<RateStep>& steps, double limit) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!StepOk(steps[i], limit)) continue;
    if (best < 0 || steps[i].target_rate > steps[static_cast<size_t>(best)].target_rate) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// The backlog grew over a step when the sender's lateness in the step's
/// last quarter exceeds that of its first quarter by more than `slack`.
/// `late` is in send order.
inline bool BacklogGrew(const std::vector<double>& late, double slack) {
  if (late.size() < 8) return false;
  const size_t quarter = late.size() / 4;
  const std::vector<double> first(late.begin(),
                                  late.begin() + static_cast<std::ptrdiff_t>(quarter));
  const std::vector<double> last(late.end() - static_cast<std::ptrdiff_t>(quarter),
                                 late.end());
  return Median(last) > Median(first) + slack;
}

/// Length of [start, end) not covered by the union of `children`
/// (intervals are clipped to the parent; overlaps count once).
inline double SelfTime(double start, double end,
                       std::vector<std::pair<double, double>> children) {
  if (end <= start) return 0.0;
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return (end - start) - covered;
}

}  // namespace perfbench

#endif  // QFCARD_PERFBENCH_STATS_H_
