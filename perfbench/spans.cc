#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "stats.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

/// Per-thread span buffers, owned here so they outlive their threads.
/// Appends touch only the calling thread's buffer; the registry lock is
/// taken once per thread and by readers.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

struct ThreadState {
  std::vector<SpanRecord>* buffer = nullptr;
  uint32_t index = 0;
  uint64_t current = 0;  ///< innermost open span on this thread
  uint64_t trace = 0;
};

ThreadState& This() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& r = GlobalRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    state.buffer = r.buffers.back().get();
    state.buffer->reserve(1 << 16);
    state.index = static_cast<uint32_t>(r.buffers.size());
  }
  return state;
}

}  // namespace

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

void SetSpansEnabled(bool enabled) { g_enabled.store(enabled); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name), start_(Now()) {
  if (!SpansEnabled()) {
    open_ = false;
    return;
  }
  ThreadState& t = This();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t.current;
  trace_ = parent_ == 0 ? id_ : t.trace;
  t.current = id_;
  t.trace = trace_;
}

double Span::End() {
  const double end = Now();
  if (!open_) return end - start_;
  open_ = false;
  ThreadState& t = This();
  t.buffer->push_back(
      SpanRecord{name_, start_, end, id_, parent_, trace_, t.index});
  t.current = parent_;
  if (parent_ == 0) t.trace = 0;
  return end - start_;
}

std::vector<SpanRecord> AllSpans() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

namespace {

std::map<uint64_t, std::vector<std::pair<double, double>>> ChildIntervals(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  return children;
}

double SelfOf(const SpanRecord& s,
              const std::map<uint64_t, std::vector<std::pair<double, double>>>&
                  children) {
  const auto it = children.find(s.id);
  if (it == children.end()) return s.end - s.start;
  return SelfTime(s.start, s.end, it->second);
}

}  // namespace

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  const auto children = ChildIntervals(spans);
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(SelfOf(s, children));
  }
  return out;
}

bool WriteTraceEvents(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const auto children = ChildIntervals(spans);
  std::map<uint32_t, bool> threads;
  for (const SpanRecord& s : spans) threads[s.thread] = true;
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"qfcard perfbench\"}}";
  char buf[512];
  for (const auto& [tid, unused] : threads) {
    (void)unused;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                  tid, tid);
    out << buf;
  }
  for (const SpanRecord& s : spans) {
    std::snprintf(
        buf, sizeof(buf),
        ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,"
        "\"parent\":%llu,\"trace\":%llu,\"self_us\":%.3f}}",
        s.name, s.start * 1e6, (s.end - s.start) * 1e6, s.thread,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.trace), SelfOf(s, children) * 1e6);
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
