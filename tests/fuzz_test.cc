// Bounded differential-fuzzing run as a ctest entry, plus unit tests
// for the fuzz harness itself (determinism, serialization round-trip,
// injected-bug shrinking) and replay of the checked-in regression
// corpus under tests/fuzz_corpus/.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "frontend/parser.h"
#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "interp/interpreter.h"
#include "net/connection.h"

namespace eqsql::fuzz {
namespace {

/// Counts non-empty source lines of a case's program.
int SourceLines(const FuzzCase& c) {
  int lines = 0;
  std::string cur;
  for (char ch : c.source + "\n") {
    if (ch == '\n') {
      if (cur.find_first_not_of(" \t") != std::string::npos) ++lines;
      cur.clear();
    } else {
      cur += ch;
    }
  }
  return lines;
}

TEST(FuzzGen, DeterministicPerSeed) {
  for (uint64_t seed : {1ULL, 99ULL, 123456789ULL, 0xdeadbeefULL}) {
    FuzzCase a = GenerateCase(seed);
    FuzzCase b = GenerateCase(seed);
    EXPECT_EQ(SerializeCase(a), SerializeCase(b)) << "seed " << seed;
    OracleReport ra = RunOracle(a);
    OracleReport rb = RunOracle(b);
    EXPECT_EQ(ra.verdict, rb.verdict) << "seed " << seed;
    EXPECT_EQ(ra.rewritten_source, rb.rewritten_source) << "seed " << seed;
  }
}

TEST(FuzzGen, SerializationRoundTrips) {
  for (int i = 0; i < 50; ++i) {
    FuzzCase c = GenerateCase(SplitMix64(7000 + i));
    std::string text = SerializeCase(c);
    auto parsed = ParseCase(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(SerializeCase(*parsed), text);
    // The round-tripped case must behave identically under the oracle.
    EXPECT_EQ(RunOracle(*parsed).verdict, RunOracle(c).verdict);
  }
}

// The bounded sweep the issue asks for: ~500 random scenarios, every
// one equivalent and within the row-transfer budget, with every
// transformation rule exercised at least once.
TEST(FuzzSweep, FiveHundredScenariosAllEquivalent) {
  constexpr int kScenarios = 500;
  constexpr uint64_t kSeed = 20160626;  // SIGMOD'16, for luck
  std::map<std::string, int> rule_hits;
  int extracted = 0;
  for (int i = 0; i < kScenarios; ++i) {
    FuzzCase c = GenerateCase(SplitMix64(kSeed + static_cast<uint64_t>(i)));
    OracleReport r = RunOracle(c);
    ASSERT_EQ(r.verdict, Verdict::kPass)
        << VerdictName(r.verdict) << ": " << r.detail << "\n"
        << SerializeCase(c) << "rewritten:\n"
        << r.rewritten_source;
    if (r.extracted) ++extracted;
    for (const std::string& rule : r.rules) rule_hits[rule]++;
  }
  // The generator is tuned so a healthy majority of programs actually
  // get rewritten — a sweep that exercises nothing proves nothing.
  EXPECT_GE(extracted, kScenarios / 2);
  for (const char* rule :
       {"T1", "T2", "T4", "T5.1", "T5.2", "T7", "EXISTS", "ARGMAX"}) {
    EXPECT_GT(rule_hits[rule], 0) << "rule " << rule << " never exercised";
  }
}

// With a deliberately corrupted extracted query the oracle must flag a
// violation and the shrinker must reduce it to a tiny reproducer.
TEST(FuzzShrink, InjectedBugShrinksToSmallReproducer) {
  OracleOptions inject;
  inject.inject_sql_bug = true;
  int shrunk_cases = 0;
  for (int i = 0; i < 40 && shrunk_cases < 3; ++i) {
    FuzzCase c = GenerateCase(SplitMix64(4242 + static_cast<uint64_t>(i)));
    OracleReport r = RunOracle(c, inject);
    if (!IsViolation(r.verdict)) continue;  // corruption was benign
    ShrinkOutcome out = Shrink(c, inject);
    OracleReport reduced = RunOracle(out.reduced, inject);
    EXPECT_TRUE(IsViolation(reduced.verdict))
        << "shrunk case stopped failing:\n" << SerializeCase(out.reduced);
    EXPECT_LE(SourceLines(out.reduced), 15)
        << SerializeCase(out.reduced);
    size_t total_rows = 0;
    for (const TableSpec& t : out.reduced.tables) total_rows += t.rows.size();
    EXPECT_LE(total_rows, 6u) << SerializeCase(out.reduced);
    ++shrunk_cases;
  }
  // The corruption targets comparison/aggregate syntax that every
  // family's extracted SQL contains, so violations must not be rare.
  EXPECT_GE(shrunk_cases, 3);
}

// Every checked-in reproducer must pass forever. New failures found by
// fuzz_eqsql get minimized and saved here; this keeps them fixed.
TEST(FuzzCorpus, ReplayRegressionCases) {
  auto files = ListCorpusFiles(EQSQL_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_FALSE(files->empty())
      << "no .eqf files under " << EQSQL_FUZZ_CORPUS_DIR;
  for (const std::string& file : *files) {
    auto c = LoadCaseFile(file);
    ASSERT_TRUE(c.ok()) << file << ": " << c.status().ToString();
    OracleReport r = RunOracle(*c);
    EXPECT_EQ(r.verdict, Verdict::kPass)
        << file << ": " << VerdictName(r.verdict) << " — " << r.detail
        << "\nrewritten:\n" << r.rewritten_source;
  }
}

// The SELECT * seed's cursor loop really runs batched in the oracle's
// third arm: the cursor query and one join, not a probe per row, with
// the plain run's answer.
TEST(FuzzCorpus, SelectStarSeedRunsBatched) {
  auto c = LoadCaseFile(std::string(EQSQL_FUZZ_CORPUS_DIR) +
                        "/batch_select_star.eqf");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto program = frontend::ParseProgram(c->source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto run = [&](bool batching, int64_t* queries) {
    storage::Database db;
    EXPECT_TRUE(BuildDatabase(*c, &db).ok());
    net::Connection conn(&db);
    interp::Interpreter interp(&*program, &conn);
    interp.set_batching(batching);
    auto r = interp.Run(c->function);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    *queries = conn.stats().queries_executed;
    return r.ok() ? r->DisplayString() : std::string();
  };
  int64_t plain_queries = 0;
  int64_t batched_queries = 0;
  const std::string plain = run(false, &plain_queries);
  EXPECT_EQ(run(true, &batched_queries), plain);
  EXPECT_EQ(plain_queries, 6);
  EXPECT_EQ(batched_queries, 2);
}

}  // namespace
}  // namespace eqsql::fuzz
