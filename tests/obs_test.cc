#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "catalog/value.h"
#include "common/logging.h"
#include "core/optimizer.h"
#include "frontend/parser.h"
#include "net/api.h"
#include "net/server.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace eqsql::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(CounterTest, SumsConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, CountSumMaxAndBuckets) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1000);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 1006);
  EXPECT_EQ(snap.max, 1000);
  int64_t bucket_total = 0;
  int64_t prev_bound = -1;
  for (const auto& [bound, count] : snap.buckets) {
    EXPECT_GT(bound, prev_bound);  // bounds strictly ascending
    prev_bound = bound;
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, 4);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.ValueAtQuantile(0.0), 0);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 0);
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 0);
}

TEST(HistogramTest, SingleSampleQuantilesClampToObservedMax) {
  Histogram h;
  h.Record(100);  // power-of-two bucket bound is 128, above the sample
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 1);
  ASSERT_EQ(snap.max, 100);
  // Every quantile of a one-sample distribution IS that sample: the
  // bucket's upper bound (128) must be clamped to the observed max.
  EXPECT_EQ(snap.ValueAtQuantile(0.0), 100);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 100);
  EXPECT_EQ(snap.ValueAtQuantile(0.99), 100);
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 100);
  // Out-of-range q clamps to [0, 1] rather than misbehaving.
  EXPECT_EQ(snap.ValueAtQuantile(-0.5), 100);
  EXPECT_EQ(snap.ValueAtQuantile(1.5), 100);
}

TEST(HistogramTest, OverflowBucketQuantileNeverExceedsObservedMax) {
  // Values beyond the last bounded power-of-two boundary (2^47) land in
  // the overflow bucket. A quantile resolving there must stay within
  // the observed range: at or below max, never a fabricated bound.
  Histogram h;
  h.Record(int64_t{1} << 55);
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 1);
  ASSERT_EQ(snap.max, int64_t{1} << 55);
  int64_t p100 = snap.ValueAtQuantile(1.0);
  EXPECT_LE(p100, snap.max);
  EXPECT_GT(p100, 0);

  // Mixed with small values the tail quantile still resolves into the
  // overflow bucket and still respects the observed max.
  Histogram mixed;
  for (int i = 0; i < 99; ++i) mixed.Record(1);
  mixed.Record(int64_t{1} << 55);
  HistogramSnapshot ms = mixed.Snapshot();
  EXPECT_EQ(ms.ValueAtQuantile(0.5), 1);
  EXPECT_LE(ms.ValueAtQuantile(1.0), ms.max);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSnapshotsSorted) {
  MetricsRegistry reg;
  Counter* a = reg.counter("net.queries");
  Counter* again = reg.counter("net.queries");
  EXPECT_EQ(a, again);  // same name -> same metric
  a->Add(3);
  reg.counter("exec.rows_processed")->Add(7);
  reg.histogram("net.query_ns")->Record(250);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("net.queries"), 3);
  EXPECT_EQ(snap.counters.at("exec.rows_processed"), 7);
  EXPECT_EQ(snap.histograms.at("net.query_ns").count, 1);
  // std::map keys iterate sorted -> deterministic rendering order.
  EXPECT_EQ(snap.counters.begin()->first, "exec.rows_processed");
}

TEST(MetricsRegistryTest, JsonAndTextRendering) {
  MetricsRegistry reg;
  reg.counter("plan_cache.hits")->Add(5);
  reg.histogram("exec.pool.task_ns")->Record(100);
  MetricsSnapshot snap = reg.Snapshot();
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan_cache.hits\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exec.pool.task_ns\""), std::string::npos) << json;
  std::string text = snap.ToText();
  EXPECT_NE(text.find("plan_cache.hits"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Pipeline tracer
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanTreeParentsAndDurations) {
  Trace trace;
  int root = trace.BeginSpan("optimize", -1);
  int child = trace.BeginSpan("fir-rules", root);
  trace.SetAttr(child, "rule", "T2");
  trace.EndSpan(child);
  trace.EndSpan(root);

  std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[root].name, "optimize");
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(spans[child].parent, root);
  EXPECT_GE(spans[child].dur_ns, 0);
  EXPECT_GE(spans[root].dur_ns, spans[child].dur_ns);
  ASSERT_EQ(spans[child].attrs.size(), 1u);
  EXPECT_EQ(spans[child].attrs[0].first, "rule");
  EXPECT_EQ(spans[child].attrs[0].second, "T2");
}

TEST(TraceTest, ScopedSpanIsNoopWithoutActiveTrace) {
  ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.Attr("key", "ignored");  // must not crash
  EXPECT_EQ(CurrentSpanContext().trace, nullptr);
}

TEST(TraceTest, ScopedApiNestsAndRestores) {
  Trace trace;
  {
    ScopedTrace st(&trace);
    ScopedSpan outer("execute");
    EXPECT_TRUE(outer.active());
    SpanContext mid = CurrentSpanContext();
    EXPECT_EQ(mid.trace, &trace);
    {
      ScopedSpan inner("shard-scan");
      inner.Attr("shard", "0");
    }
    // Destroying the inner span restored the ambient parent.
    EXPECT_EQ(CurrentSpanContext().span, mid.span);
  }
  EXPECT_EQ(CurrentSpanContext().trace, nullptr);

  std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "shard-scan");
  EXPECT_EQ(spans[1].parent, spans[0].id);
}

TEST(TraceTest, ContextCarriesAcrossThreads) {
  Trace trace;
  ScopedTrace st(&trace);
  ScopedSpan root("execute");
  SpanContext captured = CurrentSpanContext();
  std::thread worker([captured] {
    ScopedContext ctx(captured);
    ScopedSpan span("shard-scan");
    EXPECT_TRUE(span.active());
  });
  worker.join();
  std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
}

TEST(TraceTest, FlameSummaryAggregatesSameNamedSiblings) {
  Trace trace;
  int root = trace.BeginSpan("execute", -1);
  for (int s = 0; s < 8; ++s) {
    int shard = trace.BeginSpan("shard-scan", root);
    trace.EndSpan(shard);
  }
  trace.EndSpan(root);
  std::string flame = trace.FlameSummary();
  EXPECT_NE(flame.find("execute"), std::string::npos) << flame;
  EXPECT_NE(flame.find("shard-scan x8"), std::string::npos) << flame;
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"spans\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard-scan\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Operator profiles, trace ring, slow-query log
// ---------------------------------------------------------------------------

TEST(ProfileTest, EmptyProfileRendersPlaceholders) {
  Profile p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.ToText(), "(no profile)\n");
  EXPECT_EQ(p.ToJson(), "null");
}

TEST(ProfileTest, ChildForFoldsReexecutionsByPlanNodeAddress) {
  Profile p;
  int scan_ident = 0, filter_ident = 0;  // addresses stand in for plan nodes
  ProfileNode* root = p.ChildFor(nullptr, &scan_ident, "Project");
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(p.empty());
  // The root is created once; addressing it again reuses it.
  EXPECT_EQ(p.ChildFor(nullptr, &scan_ident, "Project"), root);

  ProfileNode* filter = p.ChildFor(root, &filter_ident, "Filter");
  // A correlated re-execution of the same plan node folds into the same
  // child instead of growing the tree.
  EXPECT_EQ(p.ChildFor(root, &filter_ident, "Filter"), filter);
  ASSERT_EQ(root->children.size(), 1u);
  filter->execs = 2;
  filter->rows_out = 7;
  filter->rows_in.fetch_add(40);

  std::string text = p.ToText();
  EXPECT_NE(text.find("Project"), std::string::npos) << text;
  EXPECT_NE(text.find("  Filter"), std::string::npos) << text;  // indented
  EXPECT_NE(text.find("act_rows=7"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_in=40"), std::string::npos) << text;
  EXPECT_NE(text.find("execs=2"), std::string::npos) << text;
  // Unannotated estimates render as "-" in text and null in JSON.
  EXPECT_NE(text.find("est_rows=-"), std::string::npos) << text;
  std::string json = p.ToJson();
  EXPECT_NE(json.find("\"op\":\"Filter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"est_rows\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;
}

TEST(ProfileTest, ShardSlotsRenderPerShardBreakdown) {
  Profile p;
  int ident = 0;
  ProfileNode* root = p.ChildFor(nullptr, &ident, "Scan[t]");
  root->shards.resize(2);
  root->shards[0].rows = 3;
  root->shards[1].rows = 5;
  std::string text = p.ToText();
  EXPECT_NE(text.find("[shard 0] rows=3"), std::string::npos) << text;
  EXPECT_NE(text.find("[shard 1] rows=5"), std::string::npos) << text;
  std::string json = p.ToJson();
  EXPECT_NE(json.find("\"shards\":[{\"shard\":0,\"rows\":3"),
            std::string::npos)
      << json;
}

TEST(TraceRingTest, EvictsOldestPerStripeAndSnapshotsAscending) {
  TraceRing ring(/*capacity=*/4, /*stripes=*/2);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int64_t id = 1; id <= 8; ++id) {
    TraceRecord rec;
    rec.trace_id = id;
    rec.statement = "stmt " + std::to_string(id);
    ring.Push(std::move(rec));
  }
  EXPECT_EQ(ring.evicted(), 4);
  std::vector<TraceRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Ascending trace ids, and only the newest survive in each stripe.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].trace_id, records[i].trace_id);
  }
  EXPECT_EQ(records.front().trace_id, 5);
  EXPECT_EQ(records.back().trace_id, 8);

  std::string json = ring.ToJson();
  EXPECT_NE(json.find("\"evicted\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"statement\":\"stmt 8\""), std::string::npos) << json;
}

TEST(SlowQueryLogTest, BoundedBufferDropsNewestAndCounts) {
  SlowQueryLog log(/*capacity=*/2);
  log.Append("{\"a\":1}");
  log.Append("{\"a\":2}");
  log.Append("{\"a\":3}");  // over capacity: dropped, not blocking
  EXPECT_EQ(log.emitted(), 2);
  EXPECT_EQ(log.dropped(), 1);
  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"a\":2}");
  // No path configured: Flush is a successful no-op and keeps nothing.
  EXPECT_TRUE(log.Flush());
}

TEST(SlowQueryLogTest, FlushAppendsToPathAndClearsBuffer) {
  const std::string path =
      ::testing::TempDir() + "eqsql_slow_query_test.log";
  std::remove(path.c_str());
  SlowQueryLog log(/*capacity=*/8, path);
  log.Append("{\"q\":\"first\"}");
  log.Append("{\"q\":\"second\"}");
  ASSERT_TRUE(log.Flush());
  EXPECT_TRUE(log.Lines().empty());  // flushed lines leave the buffer
  log.Append("{\"q\":\"third\"}");
  ASSERT_TRUE(log.Flush());  // second flush APPENDS to the same file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"q\":\"first\"}");
  EXPECT_EQ(lines[2], "{\"q\":\"third\"}");
  std::remove(path.c_str());
}

// SHOW METRICS renders counters and histogram-derived rows as ONE
// lexicographically sorted sequence: a histogram's .count/.p50/.p99/
// .max rows sort next to related counters instead of trailing after
// every counter in a second block.
TEST(ShowMetricsTest, RowsAreOneSortedSequence) {
  net::Server server;
  {
    auto t = *server.db()->CreateTable(
        "items", catalog::Schema({{"id", catalog::DataType::kInt64},
                                  {"v", catalog::DataType::kInt64}}));
    ASSERT_TRUE(
        t->Insert({catalog::Value::Int(1), catalog::Value::Int(10)}).ok());
  }
  std::unique_ptr<net::Session> session = server.Connect();
  ASSERT_TRUE(
      session->Execute(net::Request::Query("SELECT * FROM items AS i")).ok());

  net::Outcome out =
      session->Execute(net::Request::Statement("SHOW METRICS"));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  size_t mi = *out.rows.schema->IndexOf("metric");
  std::vector<std::string> names;
  for (const catalog::Row& row : out.rows.rows) {
    names.push_back(row[mi].AsString());
  }
  ASSERT_FALSE(names.empty());
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i])
        << "SHOW METRICS rows not one sorted sequence at " << names[i];
  }
  // Both populations are present in the one sequence: plain counters
  // and histogram-derived rows.
  auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("net.queries"));
  EXPECT_TRUE(has("net.scheduler.queue_wait_ns.count"));
  EXPECT_TRUE(has("net.scheduler.queue_wait_ns.p50"));
  EXPECT_TRUE(has("net.scheduler.queue_wait_ns.p99"));
  EXPECT_TRUE(has("net.scheduler.queue_wait_ns.max"));
  EXPECT_TRUE(has("obs.trace.sampled"));
  EXPECT_TRUE(has("obs.slow_log.emitted"));
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

TEST(LoggingTest, ParseLogLevel) {
  using common::LogLevel;
  using common::ParseLogLevel;
  EXPECT_EQ(ParseLogLevel(nullptr), LogLevel::kWarn);  // default
  EXPECT_EQ(ParseLogLevel(""), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("NONE"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("all"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kWarn);  // unknown -> default
}

// ---------------------------------------------------------------------------
// EXPLAIN EXTRACTION reports
// ---------------------------------------------------------------------------

core::OptimizeResult OptimizeOrDie(const char* src, const std::string& fn,
                                   core::OptimizeOptions options = {}) {
  if (options.transform.table_keys.empty()) {
    options.transform.table_keys = {{"wuser", "id"}};
  }
  auto program = frontend::ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  core::EqSqlOptimizer optimizer(std::move(options));
  auto result = optimizer.Optimize(*program, fn);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// Asserts `needle` occurs in `haystack` at or after `from` and returns
/// the position past the match — pins the ORDER of report lines.
size_t ExpectAfter(const std::string& haystack, const std::string& needle,
                   size_t from) {
  size_t pos = haystack.find(needle, from);
  EXPECT_NE(pos, std::string::npos)
      << "missing \"" << needle << "\" after offset " << from << " in:\n"
      << haystack;
  return pos == std::string::npos ? from : pos + needle.size();
}

TEST(ExplainTest, ExtractedAggregationReportsVerdictsRulesAndSql) {
  const char* src = R"(
    func total() {
      agg = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
      }
      return agg;
    }
  )";
  core::OptimizeResult result = OptimizeOrDie(src, "total");
  ASSERT_TRUE(result.any_extracted()) << result.program.ToString();
  std::string text = RenderExplainText(result, "total");

  // Golden structure: header, loop line + description, all three
  // verdicts held in P1/P2/P3 order, fired rules, emitted SQL, summary.
  size_t pos = ExpectAfter(text, "EXPLAIN EXTRACTION for function 'total'", 0);
  pos = ExpectAfter(text, "loop at line 5: for u in rows", pos);
  pos = ExpectAfter(text, "var 'agg':", pos);
  pos = ExpectAfter(text, "P1 loop-carried accumulation cycle: held", pos);
  pos = ExpectAfter(text, "P2 no other loop-carried dependence: held", pos);
  pos = ExpectAfter(text, "P3 no external effects in slice: held", pos);
  pos = ExpectAfter(text, "rules fired: ", pos);
  pos = ExpectAfter(text, "=> extracted", pos);
  pos = ExpectAfter(text, "SELECT", pos);
  ExpectAfter(text, "summary: 1 of 1 variable(s) extracted", pos);
  EXPECT_EQ(text.find("FAILED"), std::string::npos) << text;

  // Every fired rule surfaces in the report, in outcome order.
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].rules.empty());
  for (const std::string& rule : result.outcomes[0].rules) {
    ExpectAfter(text, rule, 0);
  }
}

TEST(ExplainTest, P2FailureNamesOffendingEdgeAndCostSkip) {
  // The paper's Fig. 7 shape: dummyVal carries a second loop-carried
  // dependence through agg, so it fails P2; agg alone is then declined
  // by the Sec. 5.3 cost heuristic because the loop must survive for
  // dummyVal anyway.
  const char* src = R"(
    func partial() {
      agg = 0;
      dummyVal = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
        dummyVal = dummyVal + agg;
      }
      return pair(agg, dummyVal);
    }
  )";
  core::OptimizeResult result = OptimizeOrDie(src, "partial");
  std::string text = RenderExplainText(result, "partial");

  ExpectAfter(text, "loop at line 6", 0);

  // agg's section: preconditions held, but extraction declined by cost.
  size_t agg_pos = ExpectAfter(text, "var 'agg':", 0);
  ExpectAfter(text, "=> skipped by cost heuristic:", agg_pos);

  // dummyVal's section: P2 FAILED with the offending DDG edge naming
  // the interfering variable.
  size_t dummy_pos = ExpectAfter(text, "var 'dummyVal':", 0);
  dummy_pos = ExpectAfter(
      text, "P2 no other loop-carried dependence: FAILED", dummy_pos);
  dummy_pos = ExpectAfter(text, "'agg'", dummy_pos);
  ExpectAfter(text, "=> kept imperative:", dummy_pos);

  for (const core::VarOutcome& o : result.outcomes) {
    if (o.var == "agg") {
      EXPECT_TRUE(o.cost_skipped);
      EXPECT_TRUE(o.preconditions.ok);
      EXPECT_NE(o.reason.find("cost heuristic"), std::string::npos)
          << o.reason;
    }
    if (o.var == "dummyVal") {
      EXPECT_FALSE(o.preconditions.ok);
      EXPECT_TRUE(o.preconditions.p1.held);
      EXPECT_FALSE(o.preconditions.p2.held);
      EXPECT_NE(o.preconditions.p2.detail.find("agg"), std::string::npos)
          << o.preconditions.p2.detail;
    }
  }
}

TEST(ExplainTest, ExternalUpdateOutsideSliceLeavesP3Held) {
  const char* src = R"(
    func auditAndSum() {
      total = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        total = total + u.score;
        executeUpdate("INSERT INTO audit VALUES 1");
      }
      return total;
    }
  )";
  core::OptimizeResult result = OptimizeOrDie(src, "auditAndSum");
  // The update is not in total's backward slice, so P3 still holds for
  // total and the report renders a P3 verdict either way.
  std::string text = RenderExplainText(result, "auditAndSum");
  ExpectAfter(text, "P3 no external effects in slice", 0);
}

TEST(ExplainTest, NonQueryBackedLoopHasNoApplicableVerdicts) {
  const char* src = R"(
    func localOnly(xs) {
      n = 0;
      for (x : xs) {
        n = n + 1;
      }
      return n;
    }
  )";
  core::OptimizeResult result = OptimizeOrDie(src, "localOnly");
  std::string text = RenderExplainText(result, "localOnly");
  if (result.outcomes.empty()) {
    ExpectAfter(text, "no cursor loops with observable variables", 0);
  } else {
    ExpectAfter(text, "preconditions not applicable:", 0);
  }
}

TEST(ExplainTest, JsonFormMirrorsVerdicts) {
  const char* src = R"(
    func partial() {
      agg = 0;
      dummyVal = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
        dummyVal = dummyVal + agg;
      }
      return pair(agg, dummyVal);
    }
  )";
  core::OptimizeResult result = OptimizeOrDie(src, "partial");
  std::string json = RenderExplainJson(result, "partial");
  EXPECT_NE(json.find("\"function\":\"partial\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cost_skipped\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p2\":{\"checked\":true,\"held\":false"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"var\":\"dummyVal\""), std::string::npos) << json;
}

TEST(ExplainTest, ServerSessionRendersSameReport) {
  // The server-side EXPLAIN path (Session::ExplainExtraction) resolves
  // through the shared plan cache and must render the same golden
  // report as the library API.
  const char* src = R"(
    func total() {
      agg = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
      }
      return agg;
    }
  )";
  net::ServerOptions options;
  options.optimize.transform.table_keys = {{"wuser", "id"}};
  net::Server server(options);
  std::unique_ptr<net::Session> session = server.Connect();

  auto report = session->ExplainExtraction(src, "total");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, net::Explain::Kind::kExtraction);
  ExpectAfter(report->text, "EXPLAIN EXTRACTION for function 'total'", 0);
  ExpectAfter(report->text, "=> extracted", 0);

  core::OptimizeResult direct = OptimizeOrDie(src, "total");
  // The served report opens with the library report, then appends the
  // priced-alternatives section.
  const std::string library = RenderExplainText(direct, "total");
  EXPECT_EQ(report->text.rfind(library, 0), 0u) << report->text;
  EXPECT_EQ(report->text.find("execution mode:"), std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("alternatives:"), std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("chosen strategy:"), std::string::npos)
      << report->text;

  // Second request hits the shared selection cache.
  auto again = session->ExplainExtraction(src, "total");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->text, report->text);
  EXPECT_EQ(again->json, report->json);
  EXPECT_GE(server.stats().plan_cache.hits, 1);
}

// ---------------------------------------------------------------------------
// Pipeline metrics + tracing end to end
// ---------------------------------------------------------------------------

TEST(PipelineObservabilityTest, OptimizerRecordsMetricsAndSpans) {
  const char* src = R"(
    func total() {
      agg = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
      }
      return agg;
    }
  )";
  MetricsRegistry reg;
  Trace trace;
  {
    ScopedTrace st(&trace);
    core::OptimizeOptions options;
    options.transform.table_keys = {{"wuser", "id"}};
    options.metrics = &reg;
    auto program = frontend::ParseProgram(src);
    ASSERT_TRUE(program.ok());
    core::EqSqlOptimizer optimizer(std::move(options));
    auto result = optimizer.Optimize(*program, "total");
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->any_extracted());
  }

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("extract.runs"), 1);
  EXPECT_EQ(snap.counters.at("extract.vars_extracted"), 1);
  EXPECT_EQ(snap.counters.at("extract.precond.p1.held"), 1);
  EXPECT_EQ(snap.counters.at("extract.precond.p2.held"), 1);
  EXPECT_EQ(snap.counters.at("extract.precond.p3.held"), 1);
  EXPECT_GT(snap.counters.at("extract.rules_fired"), 0);
  EXPECT_EQ(snap.histograms.at("extract.duration_us").count, 1);

  // The span tree covers the pipeline stages, parse through emission.
  std::vector<TraceSpan> spans = trace.Snapshot();
  auto has_span = [&](const char* name) {
    for (const TraceSpan& s : spans) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("parse"));
  EXPECT_TRUE(has_span("optimize"));
  EXPECT_TRUE(has_span("region-analysis+dir"));
  EXPECT_TRUE(has_span("fir-rules"));
  EXPECT_TRUE(has_span("sql-emit"));
}

}  // namespace
}  // namespace eqsql::obs
