#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last. The benchmark has one
// Tracer per process, so one stack per thread suffices.
thread_local std::vector<int> open_spans;

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string Escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

std::string Layer(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::Since(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::Begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.thread = ThreadIndex();
  int id = 0;
  {
    std::scoped_lock lock(mu_);
    id = static_cast<int>(spans_.size());
    span.start_ns = Since(Clock::now());
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t end = Since(Clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::scoped_lock lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void Tracer::RecordAsync(const char* name, Clock::time_point start,
                         Clock::time_point end, std::int64_t request) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = Since(start);
  span.end_ns = Since(end);
  span.request = request;
  span.thread = ThreadIndex();
  span.async = true;
  std::scoped_lock lock(mu_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::scoped_lock lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::scoped_lock lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.async || span.parent < 0) continue;
    child_ns[static_cast<std::size_t>(span.parent)] +=
        span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.async) continue;
    const std::int64_t own = span.end_ns - span.start_ns - child_ns[i];
    self[Layer(span.name)] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  std::scoped_lock lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    os << (first ? "" : ",") << '"' << Escaped(key) << "\":\""
       << Escaped(value) << '"';
    first = false;
  }
  os << "},\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns) * 1e-3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    if (s.async) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\","
                    "\"id\":%lld,\"pid\":1,\"tid\":%d,\"ts\":%.3f},"
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\","
                    "\"id\":%lld,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                    i == 0 ? "" : ",", s.name, Layer(s.name).c_str(),
                    static_cast<long long>(s.request), s.thread, ts, s.name,
                    Layer(s.name).c_str(), static_cast<long long>(s.request),
                    s.thread, ts + dur);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
                    i == 0 ? "" : ",", s.name, Layer(s.name).c_str(),
                    s.thread, ts, dur, i, s.parent,
                    static_cast<long long>(s.request));
    }
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
