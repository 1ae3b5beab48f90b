#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/profile.h"

namespace eqsql::obs {

namespace {

thread_local SpanContext g_context;

}  // namespace

int Trace::BeginSpan(std::string name, int parent) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.start_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::EndSpan(int id) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].dur_ns = now - spans_[id].start_ns;
}

void Trace::SetAttr(int id, std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].attrs.emplace_back(std::move(key), std::move(value));
}

std::vector<TraceSpan> Trace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Trace::ToJson() const {
  std::vector<TraceSpan> spans = Snapshot();
  std::ostringstream out;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i > 0) out << ",";
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << JsonEscapeString(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.dur_ns;
    if (!s.attrs.empty()) {
      out << ",\"attrs\":{";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        if (a > 0) out << ",";
        out << "\"" << JsonEscapeString(s.attrs[a].first) << "\":\""
            << JsonEscapeString(s.attrs[a].second) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

std::string Trace::FlameSummary() const {
  std::vector<TraceSpan> spans = Snapshot();

  // Children by parent, in creation order.
  std::map<int, std::vector<const TraceSpan*>> children;
  for (const TraceSpan& s : spans) {
    children[s.parent].push_back(&s);
  }

  std::ostringstream out;
  // Recursive lambda: aggregate same-named siblings into one line.
  auto render = [&](auto&& self, int parent, int depth) -> void {
    auto it = children.find(parent);
    if (it == children.end()) return;
    // Group consecutive-by-name (preserve first-seen order).
    std::vector<std::string> order;
    std::map<std::string, std::pair<int, int64_t>> agg;  // count, total ns
    std::map<std::string, const TraceSpan*> first;
    for (const TraceSpan* s : it->second) {
      auto [a, inserted] = agg.emplace(s->name, std::make_pair(0, int64_t{0}));
      if (inserted) {
        order.push_back(s->name);
        first[s->name] = s;
      }
      a->second.first += 1;
      if (s->dur_ns > 0) a->second.second += s->dur_ns;
    }
    for (const std::string& name : order) {
      const auto& [count, total_ns] = agg[name];
      for (int i = 0; i < depth; ++i) out << "  ";
      out << name;
      if (count > 1) out << " x" << count;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", total_ns / 1e6);
      out << "  " << buf << "ms\n";
      // Descend through the first instance only when siblings were
      // aggregated — per-shard fan-outs have identical subtrees, and
      // one representative keeps the summary readable.
      if (count > 1) {
        self(self, first[name]->id, depth + 1);
      } else {
        for (const TraceSpan* s : it->second) {
          if (s->name == name) self(self, s->id, depth + 1);
        }
      }
    }
  };
  render(render, -1, 0);
  return out.str();
}

SpanContext CurrentSpanContext() { return g_context; }

ScopedTrace::ScopedTrace(Trace* trace) : saved_(g_context) {
  g_context = SpanContext{trace, -1};
}

ScopedTrace::~ScopedTrace() { g_context = saved_; }

ScopedContext::ScopedContext(SpanContext ctx) : saved_(g_context) {
  g_context = ctx;
}

ScopedContext::~ScopedContext() { g_context = saved_; }

ScopedSpan::ScopedSpan(const char* name) {
  if (g_context.trace == nullptr) return;
  trace_ = g_context.trace;
  id_ = trace_->BeginSpan(name, g_context.span);
  saved_ = g_context;
  g_context.span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  trace_->EndSpan(id_);
  g_context = saved_;
}

void ScopedSpan::Attr(const char* key, std::string value) {
  if (trace_ == nullptr) return;
  trace_->SetAttr(id_, key, std::move(value));
}

}  // namespace eqsql::obs
