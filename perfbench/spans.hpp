// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer's public function, timed from outside:
// name, start, end, the span that caused it, and a request id (the study
// round or the service job run it belongs to). Spans are kept in memory and
// written out once the run ends, so recording costs a clock read and a
// locked push_back. With no recorder installed a ScopedSpan does nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   // 0 = top level
  std::int64_t request = 0;  // round / job run; 0 = none

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class SpanRecorder {
 public:
  std::int64_t next_id() { return next_.fetch_add(1); }

  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  // Spans in start order (taken after every writer finished).
  std::vector<Span> sorted() const {
    std::vector<Span> out = spans_;
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_{1};
};

// The innermost open span on this thread, so nested ScopedSpans find their
// parent without threading ids through every call.
inline thread_local std::int64_t t_current_span = 0;
inline thread_local std::int64_t t_current_request = 0;

class ScopedSpan {
 public:
  // `parent`/`request` < 0 inherit this thread's current span and request
  // (pool threads pass their batch span explicitly).
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::int64_t request = -1, std::int64_t parent = -1)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    span_.name = name;
    span_.id = recorder_->next_id();
    span_.parent = parent >= 0 ? parent : t_current_span;
    span_.request = request >= 0 ? request : t_current_request;
    saved_span_ = t_current_span;
    saved_request_ = t_current_request;
    t_current_span = span_.id;
    t_current_request = span_.request;
    span_.start_ns = now_ns();
  }

  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = now_ns();
    t_current_span = saved_span_;
    t_current_request = saved_request_;
    recorder_->record(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
  std::int64_t saved_span_ = 0;
  std::int64_t saved_request_ = 0;
};

// Length of the union of [start, end) intervals, clipped to [lo, hi).
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

// Per-span self time: duration minus the part of it its children cover.
inline std::map<std::int64_t, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::int64_t, double> out;
  for (const Span& s : spans) {
    const auto it = kids.find(s.id);
    const std::int64_t covered =
        it == kids.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
    out[s.id] = 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

inline void write_span_jsonl(std::ostream& os, const std::vector<Span>& spans,
                             int rep) {
  for (const Span& s : spans) {
    os << "{\"rep\":" << rep << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  }
}

}  // namespace perfbench
