#ifndef QFCARD_OBS_CLOCK_H_
#define QFCARD_OBS_CLOCK_H_

#include <chrono>

namespace qfcard::obs {

/// The telemetry clock. This header is the ONLY place in src/ allowed to
/// call std::chrono::steady_clock::now() — tools/qfcard_analyze.py's
/// raw-steady-clock rule rejects direct calls everywhere else, so every
/// duration in the repo (bench timings, runtime telemetry, plan execution
/// cost) flows through one clock path and can be reasoned about (and, if
/// ever needed, faked) in one place. steady_clock is monotonic, so readings
/// never leak wall-clock state into reports (see the analyzer's wall-clock
/// rule).
using Clock = std::chrono::steady_clock;

/// Current reading of the telemetry clock.
inline Clock::time_point Now() { return Clock::now(); }

/// Seconds between two readings.
inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_CLOCK_H_
