#include "wallbench/span_log.h"

#include <cstdio>

#include "wallbench/harness.h"

namespace wallbench {

int32_t SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.request = request_;
  span.tag = tag_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  open_ = spans_[id].parent;
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const SpanLog*>& logs, int32_t tag) {
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Children never overlap, so the time they cover is their sum.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (tag >= 0 && s.tag != tag) continue;
      Totals& t = totals[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
  }
  std::map<std::string, SpanStats> out;
  for (const auto& [name, t] : totals) {
    SpanStats& s = out[name];
    s.count = t.count;
    s.mean_us = Ratio(static_cast<double>(t.total_ns), t.count * 1e3);
    s.self_us = Ratio(static_cast<double>(t.self_ns), t.count * 1e3);
  }
  return out;
}

double MeanUs(const std::map<std::string, SpanStats>& summary,
              const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0 : it->second.mean_us;
}

double SelfUs(const std::map<std::string, SpanStats>& summary,
              const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0 : it->second.self_us;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    for (const Span& s : logs[thread]->spans()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"request\":%lld,\"tag\":%d,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d}\n",
                   thread, static_cast<long long>(s.request), s.tag, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace wallbench
