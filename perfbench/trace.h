// Spans recorded by the benchmark around its own calls into the library.
//
// A span has a name "<layer>.<call>", a start and end on one steady clock,
// the span that encloses it on the same thread, and an optional request id.
// Spans stay in memory until the run ends, when they are written as a
// Chrome trace-event file (chrome://tracing, ui.perfetto.dev) and folded
// into self time per layer. With tracing off every call is a branch on a
// bool and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    const char* name = "";      // string literal, "<layer>.<call>"
    std::int64_t start_ns = 0;  // since the tracer was constructed
    std::int64_t end_ns = 0;
    int parent = -1;            // enclosing span on the same thread
    std::int64_t request = -1;  // request id of serve spans, else -1
    int thread = 0;
    // Async spans (a request's life from its due time to its answer) cross
    // threads and overlap each other: they are drawn in the trace file but
    // take no part in self time.
    bool async = false;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  // Opens a span on the calling thread; the span open on this thread (if
  // any) becomes its parent. Returns -1 when tracing is off.
  int Begin(const char* name, std::int64_t request = -1);
  void End(int id);
  // Records a finished async span between two clock readings.
  void RecordAsync(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int64_t request);

  std::size_t size() const;
  // Seconds per layer (the span name up to its first '.') spent in spans of
  // that layer outside their child spans.
  std::map<std::string, double> SelfSecondsByLayer() const;
  // Writes every span as a Chrome trace-event JSON file; `metadata` lands
  // under "otherData". Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& metadata)
      const;

 private:
  std::int64_t Since(Clock::time_point t) const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int id_;
};

}  // namespace perfbench
