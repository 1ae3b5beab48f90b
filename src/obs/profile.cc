#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace eqsql::obs {
namespace {

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  std::string s = buf;
  // Trim trailing zeros but keep one digit after the point.
  while (s.size() > 1 && s.back() == '0' &&
         s[s.size() - 2] != '.') {
    s.pop_back();
  }
  return s;
}

void RenderText(const ProfileNode& n, int depth, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << n.label;
  *out << "  est_rows=" << (n.est_rows < 0 ? "-" : FormatDouble(n.est_rows))
       << " act_rows=" << n.rows_out;
  *out << " est_ms="
       << (n.est_cost_ms < 0 ? "-" : FormatDouble(n.est_cost_ms))
       << " act_ms=" << FormatMs(n.wall_ns);
  *out << " rows_in=" << n.rows_in.load(std::memory_order_relaxed)
       << " batches=" << n.batches.load(std::memory_order_relaxed)
       << " execs=" << n.execs;
  *out << "\n";
  for (size_t s = 0; s < n.shards.size(); ++s) {
    for (int i = 0; i < depth + 1; ++i) *out << "  ";
    *out << "[shard " << s << "] rows=" << n.shards[s].rows
         << " wall_ms=" << FormatMs(n.shards[s].wall_ns) << "\n";
  }
  for (const auto& child : n.children) {
    RenderText(*child, depth + 1, out);
  }
}

void RenderJson(const ProfileNode& n, std::ostringstream* out) {
  *out << "{\"op\":\"" << JsonEscapeString(n.label) << "\"";
  *out << ",\"est_rows\":"
       << (n.est_rows < 0 ? "null" : FormatDouble(n.est_rows));
  *out << ",\"act_rows\":" << n.rows_out;
  *out << ",\"est_ms\":"
       << (n.est_cost_ms < 0 ? "null" : FormatDouble(n.est_cost_ms));
  *out << ",\"wall_ns\":" << n.wall_ns;
  *out << ",\"rows_in\":" << n.rows_in.load(std::memory_order_relaxed);
  *out << ",\"batches\":" << n.batches.load(std::memory_order_relaxed);
  *out << ",\"execs\":" << n.execs;
  if (!n.shards.empty()) {
    *out << ",\"shards\":[";
    for (size_t s = 0; s < n.shards.size(); ++s) {
      if (s > 0) *out << ",";
      *out << "{\"shard\":" << s << ",\"rows\":" << n.shards[s].rows
           << ",\"wall_ns\":" << n.shards[s].wall_ns << "}";
    }
    *out << "]";
  }
  if (!n.children.empty()) {
    *out << ",\"children\":[";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) *out << ",";
      RenderJson(*n.children[i], out);
    }
    *out << "]";
  }
  *out << "}";
}

}  // namespace

std::string JsonEscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ProfileNode* Profile::ChildFor(ProfileNode* parent, const void* plan_node,
                               std::string_view label) {
  if (parent == nullptr) {
    if (root_ == nullptr) {
      root_ = std::make_unique<ProfileNode>();
      root_->label = std::string(label);
      root_->plan_node = plan_node;
    }
    // A request executes one statement, so a second top-level plan node
    // (Executor::Eval's subqueries always nest below an operator) reuses
    // the root rather than forgetting the first tree.
    return root_.get();
  }
  for (const auto& child : parent->children) {
    if (child->plan_node == plan_node) return child.get();
  }
  auto node = std::make_unique<ProfileNode>();
  node->label = std::string(label);
  node->plan_node = plan_node;
  parent->children.push_back(std::move(node));
  return parent->children.back().get();
}

std::string Profile::ToText() const {
  if (root_ == nullptr) return "(no profile)\n";
  std::ostringstream out;
  RenderText(*root_, 0, &out);
  return out.str();
}

std::string Profile::ToJson() const {
  if (root_ == nullptr) return "null";
  std::ostringstream out;
  RenderJson(*root_, &out);
  return out.str();
}

TraceRing::TraceRing(size_t capacity, size_t stripes) {
  if (stripes == 0) stripes = 1;
  if (capacity < stripes) capacity = stripes;
  per_stripe_ = capacity / stripes;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void TraceRing::Push(TraceRecord rec) {
  Stripe& stripe =
      *stripes_[static_cast<uint64_t>(rec.trace_id) % stripes_.size()];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.size() >= per_stripe_) {
    stripe.ring.pop_front();
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  stripe.ring.push_back(std::move(rec));
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const TraceRecord& rec : stripe->ring) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::string TraceRing::ToJson() const {
  std::vector<TraceRecord> records = Snapshot();
  std::ostringstream out;
  out << "{\"evicted\":" << evicted() << ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (i > 0) out << ",";
    out << "{\"trace_id\":" << r.trace_id << ",\"statement\":\""
        << JsonEscapeString(r.statement) << "\",\"status\":\""
        << JsonEscapeString(r.status) << "\",\"queue_wait_ns\":"
        << r.queue_wait_ns << ",\"total_ns\":" << r.total_ns
        << ",\"shard_count\":" << r.shard_count << ",\"trace\":"
        << (r.trace_json.empty() ? "null" : r.trace_json) << ",\"profile\":"
        << (r.profile_json.empty() ? "null" : r.profile_json) << "}";
  }
  out << "]}";
  return out.str();
}

SlowQueryLog::SlowQueryLog(size_t capacity, std::string path)
    : capacity_(capacity == 0 ? 1 : capacity), path_(std::move(path)) {}

void SlowQueryLog::Append(std::string json_line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lines_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  lines_.push_back(std::move(json_line));
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> SlowQueryLog::Lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(lines_.begin(), lines_.end());
}

bool SlowQueryLog::Flush() {
  std::deque<std::string> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(lines_);
  }
  if (path_.empty() || pending.empty()) return true;
  std::ofstream out(path_, std::ios::app);
  if (!out) return false;
  for (const std::string& line : pending) out << line << "\n";
  return static_cast<bool>(out);
}

}  // namespace eqsql::obs
