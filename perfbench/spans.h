// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. Off by default (the end-to-end runs); the
// traced run enables them, reads durations and self times back by name,
// and writes them as Chrome trace-event JSON when the run ends.
#ifndef QFCARD_PERFBENCH_SPANS_H_
#define QFCARD_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
double Now();

struct SpanRecord {
  const char* name = "";  ///< string literal
  double start = 0;       ///< seconds, Now() clock
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root
  uint64_t trace = 0;   ///< id of the root span of this span's tree
  uint32_t thread = 0;  ///< dense index of the recording thread
};

/// Turns recording on or off. Set before any thread records.
void SetSpansEnabled(bool enabled);
bool SpansEnabled();

/// Records one span from start to destruction (or End()). Nested spans on
/// one thread parent to the innermost open span. Costs one clock read and
/// nothing else while recording is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its duration in seconds.
  double End();

 private:
  const char* name_;
  double start_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_ = 0;
  bool open_ = true;
};

/// Every span recorded so far, all threads. Call only while no thread is
/// recording.
std::vector<SpanRecord> AllSpans();

/// Durations (seconds) of the spans named `name`.
std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name);

/// Self times (seconds) of the spans named `name`: each span's duration
/// minus the part of it that its direct children cover.
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans,
                              const std::string& name);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events with
/// pid/tid/ts/dur in microseconds and span/parent/trace/self_us args), the
/// shape obs::WriteTraceEventJson emits, so Perfetto opens it. False on
/// I/O failure.
bool WriteTraceEvents(const std::vector<SpanRecord>& spans,
                      const std::string& path);

}  // namespace perfbench

#endif  // QFCARD_PERFBENCH_SPANS_H_
