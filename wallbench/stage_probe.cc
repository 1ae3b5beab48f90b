#include "wallbench/stage_probe.h"

#include <memory>
#include <utility>

#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "dir/builder.h"
#include "frontend/parser.h"
#include "net/table_stats.h"

namespace wallbench {

bool RunStageProbe(eqsql::net::Server* server,
                   eqsql::core::PlanCache* sql_cache,
                   const std::string& source, const std::string& function,
                   SpanLog* spans, StageCounts* counts) {
  namespace core = eqsql::core;
  ScopedSpan probe(spans, "probe");
  auto program = InSpan(spans, "frontend.ParseProgram",
                        [&] { return eqsql::frontend::ParseProgram(source); });
  const eqsql::frontend::Function* fn =
      program.ok() ? program->Find(function) : nullptr;
  if (fn == nullptr) return false;
  {
    eqsql::dir::DagContext ctx;
    eqsql::dir::DirBuilder builder(&ctx, &*program);
    auto dir = InSpan(spans, "dir.BuildFunction",
                      [&] { return builder.BuildFunction(*fn); });
    if (!dir.ok()) return false;
    for (const eqsql::dir::LoopReport& report : dir->loop_reports) {
      ++counts->loops;
      if (report.converted) ++counts->loops_converted;
    }
  }
  core::OptimizeOptions options = server->options().optimize;
  options.metrics = nullptr;
  core::EqSqlOptimizer optimizer(options);
  auto optimized = InSpan(spans, "core.Optimize", [&] {
    return optimizer.Optimize(*program, function);
  });
  if (!optimized.ok()) return false;
  core::TableStats stats = InSpan(spans, "net.GatherTableStats", [&] {
    return eqsql::net::GatherTableStats(server->db());
  });
  core::AlternativeSelector selector(std::move(stats),
                                     server->options().cost_model);
  auto shared =
      std::make_shared<const core::OptimizeResult>(std::move(*optimized));
  InSpan(spans, "core.Select", [&] {
    return selector.Select(
        shared, fn,
        [sql_cache](const std::string& sql) {
          return sql_cache->GetOrParseSql(sql);
        },
        server->db()->StatsEpoch());
  });
  return true;
}

}  // namespace wallbench
