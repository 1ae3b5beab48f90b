// compile: the paper's product (Table 1, Experiment 3). One session
// calls Session::SelectPlan on programs drawn with replacement from the
// 145-program corpus; a unique comment per request makes every call
// miss the plan cache and run parse -> D-IR -> rules -> emit -> DCE ->
// selection. The executor, scheduler and interpreter stay idle, and the
// plan cache only misses and evicts.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frontend/parser.h"
#include "workloads/servlets.h"
#include "workloads/wilos_samples.h"
#include "wallbench/workloads.h"

namespace wallbench {

namespace {

using eqsql::core::ExtractionPlan;

/// Rows in the biggest tables of the Wilos schema the selector prices
/// against.
constexpr int kWilosScale = 200;

struct CorpusProgram {
  std::string source;
  std::string function;
  /// Wilos samples: whether extraction succeeds (24 of 33, Table 1).
  /// Servlets only have to compile.
  std::optional<bool> expect_extracted;
};

/// Wilos x33, RuBiS x17, RuBBoS x16, AcadPortal x79.
std::vector<CorpusProgram> LoadCorpus() {
  namespace wl = eqsql::workloads;
  std::vector<CorpusProgram> corpus;
  for (const wl::WilosSample& s : wl::WilosSamples()) {
    corpus.push_back({s.source, s.function, s.expect_extracted});
  }
  for (const auto& servlets : {wl::RubisServlets(), wl::RubbosServlets(),
                               wl::AcadPortalServlets()}) {
    for (const wl::Servlet& s : servlets) {
      corpus.push_back({s.source, s.function, std::nullopt});
    }
  }
  return corpus;
}

net::ServerOptions CompileServerOptions() {
  net::ServerOptions options;
  options.optimize.transform.table_keys = eqsql::workloads::WilosTableKeys();
  options.optimize.transform.table_keys.merge(
      eqsql::workloads::ServletTableKeys());
  return options;
}

/// Counts `plan` as a failure unless it compiled and, for a Wilos
/// sample, extracted exactly when Table 1 says it should.
bool CheckPlan(const eqsql::Result<std::shared_ptr<const ExtractionPlan>>& plan,
               const CorpusProgram& program, Observed* observed) {
  ++observed->attempted;
  if (!plan.ok()) {
    observed->Fail(program.function + ": " + plan.status().ToString());
    return false;
  }
  if (program.expect_extracted.has_value() &&
      (*plan)->optimized->any_extracted() != *program.expect_extracted) {
    observed->Fail(program.function + ": extraction differs from Table 1");
    return false;
  }
  return true;
}

/// The corpus program with a comment that makes its cache key unique.
std::string Tagged(const CorpusProgram& program, const std::string& tag) {
  return program.source + "\n// " + tag + "\n";
}

/// A built server, its schema, and a session whose plan cache is full.
struct Rig {
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Session> session;
};

/// Builds the server and schema, then warms up with two passes over the
/// corpus: each miss inserts two cache lines, so the 512-line cache is
/// full and evicting when measuring starts. Every warm-up plan is
/// checked like a measured one.
Rig SetUp(const std::vector<CorpusProgram>& corpus, int rep,
          Observed* observed) {
  Rig rig;
  rig.server = std::make_unique<net::Server>(CompileServerOptions());
  eqsql::Status status =
      eqsql::workloads::SetupWilosDatabase(rig.server->db(), kWilosScale);
  if (!status.ok()) Fatal("schema set-up", status);
  rig.session = rig.server->Connect();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const std::string tag = "warm." + std::to_string(rep) + "." +
                              std::to_string(pass) + "." + std::to_string(i);
      CheckPlan(rig.session->SelectPlan(Tagged(corpus[i], tag),
                                        corpus[i].function),
                corpus[i], observed);
    }
  }
  return rig;
}

}  // namespace

Observed RunCompile(const RunConfig& config) {
  Observed observed;
  const std::vector<CorpusProgram> corpus = LoadCorpus();
  // Reset, not reassigned: ~Rig closes the session before its server.
  std::optional<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig.emplace(SetUp(corpus, rep, &observed));
    observed.setup_s.push_back((NowNs() - t0) / 1e9);
  }

  SpanLog spans;
  eqsql::core::PlanCache sql_cache;
  observed.delta.Begin(rig->server.get());
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  observed.phase_start_ns = start;
  const int64_t deadline = start + config.seconds * int64_t{1000000000};
  for (int64_t n = 0; NowNs() < deadline; ++n) {
    const size_t pick = Draw(config.seed, 0, n) % corpus.size();
    const CorpusProgram& program = corpus[pick];
    const std::string source = Tagged(
        program, std::to_string(config.seed) + "." + std::to_string(n));
    // The traced run records every other request, so the untraced half
    // gives the tracing overhead.
    const bool traced = config.trace && n % 2 == 0;
    spans.set_enabled(traced);
    spans.set_request(n, static_cast<int32_t>(pick));

    const int64_t t0 = NowNs();
    auto plan = [&] {
      ScopedSpan request(&spans, "request");
      return InSpan(&spans, "core.SelectPlan", [&] {
        return rig->session->SelectPlan(source, program.function);
      });
    }();
    const int64_t t1 = NowNs();
    if (traced) {
      observed.traced_req_ms.push_back((t1 - t0) / 1e6);
    } else {
      observed.req.push_back({t1, (t1 - t0) / 1e6});
    }

    if (CheckPlan(plan, program, &observed)) {
      ++observed.selections;
      ++observed.chosen[(*plan)->chosen];
      for (const eqsql::core::VarOutcome& o : (*plan)->optimized->outcomes) {
        ++observed.vars;
        if (o.extracted) ++observed.vars_extracted;
      }
    }
    if (traced && !RunStageProbe(rig->server.get(), &sql_cache, source,
                                 program.function, &spans, &observed.stages)) {
      observed.Fail("stage probe " + program.function);
    }
  }
  observed.phase_cpu_s = ProcessCpuSeconds() - cpu_start;
  observed.delta.End(rig->server.get());

  observed.spans = SummarizeSpans({&spans});
  observed.report.push_back("provenance " + ProvenanceJson(rig->server.get()));
  observed.report.push_back("corpus programs=" + std::to_string(corpus.size()) +
                            " wilos_scale=" + std::to_string(kWilosScale));
  if (!config.spans_path.empty() &&
      !WriteSpans(config.spans_path, {&spans})) {
    std::fprintf(stderr, "wallbench: cannot write %s\n",
                 config.spans_path.c_str());
  }
  return observed;
}

}  // namespace wallbench
