// The traced run's spans. The benchmark records them from its own
// files, around each public call it makes into a layer; nothing inside
// the program under test is instrumented for them.
#ifndef WALLBENCH_SPAN_LOG_H_
#define WALLBENCH_SPAN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

/// One timed call. `name` is a string literal, `parent` indexes the same
/// log (-1 for a root). Spans of one request share `request`; `tag`
/// says which program the request ran (-1 when none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = 0;
  int32_t tag = -1;
};

/// An in-memory span buffer owned by one thread. Spans nest strictly
/// (each ends before its parent does), so the children of one span
/// never overlap. A disabled log records nothing.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Stamps the request id and program tag onto spans begun from now.
  void set_request(int64_t request, int32_t tag) {
    request_ = request;
    tag_ = tag;
  }

  int32_t Begin(const char* name);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int64_t request_ = 0;
  int32_t tag_ = -1;
  int32_t open_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

/// Records one span over its scope when `log` is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log->enabled() ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto InSpan(SpanLog* log, const char* name, Fn&& fn) {
  ScopedSpan span(log, name);
  return fn();
}

/// Per span name: how many, and their mean duration and mean self time
/// (duration minus the time its child spans cover), in microseconds.
struct SpanStats {
  int64_t count = 0;
  double mean_us = 0;
  double self_us = 0;
};

/// Aggregates every span of `logs` by name; with `tag` >= 0, only the
/// spans of requests that ran that program.
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const SpanLog*>& logs, int32_t tag = -1);

/// Mean duration / mean self time of spans named `name`, in
/// microseconds; 0 if none.
double MeanUs(const std::map<std::string, SpanStats>& summary,
              const std::string& name);
double SelfUs(const std::map<std::string, SpanStats>& summary,
              const std::string& name);

/// Writes every span as one JSON object per line (thread = index of its
/// log in `logs`). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace wallbench

#endif  // WALLBENCH_SPAN_LOG_H_
