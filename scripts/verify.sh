#!/usr/bin/env bash
# Tier-1 verification: clean build + full test suite, the bounded
# differential-fuzz sweep again under ASan+UBSan, and the concurrency
# stress suite + a bounded fuzz sweep under TSan. Usage: scripts/verify.sh
# (run from anywhere; builds land in build/, build-asan/, build-tsan/).
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-test ctest timeout: a hung test fails with its name instead of
# holding CI until the job limit. On a 4-core host the slowest tests
# take 6.7 s under ASan (FuzzShrink.InjectedBugShrinksToSmallReproducer)
# and 5.0 s under TSan (ShardInvarianceTest.FuzzerProgramsAcrossAllFamilies);
# 60 s leaves room for slower CI runners.
CTEST_TIMEOUT=60

echo "== tier 1: build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" \
  --timeout "$CTEST_TIMEOUT"

echo "== tier 1: deterministic fuzz sweep (500 scenarios) =="
./build/src/fuzz/fuzz_eqsql --seed 1 --iters 500 --corpus tests/fuzz_corpus

echo "== sanitizers: ASan+UBSan fuzz tests, interpreter, binder, parsers, D-IR, scans =="
cmake --preset asan >/dev/null
# Interp: the interpreter indexes call frames by bound slot and reads
# cursor rows in place, so its suite runs under the address checker.
# Binder: the SQL executor reads rows by bound (frame level, column) slot
# and tables by guard slot, so its suite runs there too.
# SqlParser|ImpParser: both parsers' hostile-input cases (100,000-level
# nesting and operator chains) run under the address checker.
# Dir: the D-IR builder's depth bound (a 50,000-statement loop body).
# Mvcc|VectorExec|ServerStress|Shard|Index: scans and index probes read
# rows in place, borrowed from their versions under the statement's
# snapshot pin, so the suites that race scans against writers and
# Vacuum (ServerStressTest.BorrowedScansSurviveConcurrentVacuum among
# them) run under the address checker: a row read after its version
# was freed fails here.
# Exec: joins and applies run as chains of row references (key and
# index probes, hash builds and scans, all borrowed), so the executor's
# suites run there too, and so do the apply and join fuzz families at
# 1, 2 and 8 shards.
cmake --build build-asan -j"$(nproc)" --target fuzz_test fuzz_eqsql \
  sql_roundtrip_test null_semantics_test interp_test binder_test \
  sql_test frontend_test dir_test concurrency_test mvcc_test \
  vector_exec_test shard_test shard_invariance_test index_test \
  exec_test exec_sweep_test
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  --timeout "$CTEST_TIMEOUT" \
  -R 'Fuzz|SqlRoundTrip|NullSemantics|Interp|Binder|SqlParser|ImpParser|Dir|Mvcc|VectorExec|ServerStress|Shard|Index|Exec'
./build-asan/src/fuzz/fuzz_eqsql --seed 99 --iters 100 \
  --corpus tests/fuzz_corpus
for shards in 1 2 8; do
  for family in apply join; do
    ./build-asan/src/fuzz/fuzz_eqsql --seed 31 --iters 60 --family "$family" \
      --shards "$shards"
  done
done

echo "== sanitizers: TSan concurrency stress + shard suites + fuzz sweeps =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j"$(nproc)" --target concurrency_test fuzz_eqsql \
  shard_test mvcc_test shard_invariance_test scheduler_test net_test \
  vector_exec_test index_test explain_analyze_test obs_test selection_test \
  binder_test keyed_dml_test
# Scheduler here covers the 8-producer bounded-queue storm
# (SchedulerTest.QueueFullRejectsOverloadedWithoutBlocking) under the
# race detector: producers race workers on the admission queue. Mvcc
# covers the version-chain suite, including the concurrent
# readers-vs-committing-writer scan test and the key-grain validation
# cases. Binder covers sessions sharing one cached bound plan while its
# first execution publishes it. KeyedDml covers keyed UPDATE/DELETE
# against the scan at 1, 2 and 8 shards.
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  --timeout "$CTEST_TIMEOUT" \
  -R 'PlanCache|ConnectionOwnership|ServerStress|Shard|Mvcc|ReadGuard|Database|Scheduler|ServerLiveStats|VectorExec|Index|ExplainAnalyze|TraceRing|SlowQueryLog|Selection|Binder|KeyedDml'
./build-tsan/src/fuzz/fuzz_eqsql --seed 7 --iters 50 \
  --corpus tests/fuzz_corpus
# The same sweep on 8-way partitioned tables with the parallel
# operators forced through the worker pool: shard-count invariance
# under the race detector.
./build-tsan/src/fuzz/fuzz_eqsql --seed 7 --iters 50 --shards 8 \
  --corpus tests/fuzz_corpus
# The batch engine across 8-way shards: batch-producing MVCC cursors +
# compiled-expression shard tasks racing writers, with the original
# program, interpreted, as the in-run differential oracle.
./build-tsan/src/fuzz/fuzz_eqsql --seed 13 --iters 50 --shards 8 \
  --corpus tests/fuzz_corpus
# Every case through the scheduler-backed execution path (Session ->
# admission queue -> worker) instead of direct connections.
./build-tsan/src/fuzz/fuzz_eqsql --seed 7 --iters 50 --async-every 1
# Transaction and index schedules at 1, 2 and 8 shards, every statement
# routed through a scheduler worker. Txn: BEGIN/COMMIT/ROLLBACK hand a
# live MVCC transaction context between threads, and keyed writes
# validate single keys, under the race detector; the key-grain corpus
# seed pins the key check's verdicts. Index: CREATE INDEX backfills race
# DML, with the indexed-vs-unindexed oracle checking every answer.
for shards in 1 2 8; do
  ./build-tsan/src/fuzz/fuzz_eqsql --seed 11 --iters 50 --family txn \
    --shards "$shards" --async-every 1
  ./build-tsan/src/fuzz/fuzz_eqsql --replay tests/fuzz_corpus/txn_key_grain.eqf \
    --shards "$shards" --async-every 1 >/dev/null
  ./build-tsan/src/fuzz/fuzz_eqsql --seed 17 --iters 50 --family index \
    --shards "$shards" --async-every 1
done
# Every scheduled request traced (--trace-sample 1): the span/profile
# capture path races scheduler workers, shard fan-out tasks, and the
# trace-ring stripes under the race detector. The corpus includes the
# EXPLAIN ANALYZE reproducers, so the profile-swap path runs too.
./build-tsan/src/fuzz/fuzz_eqsql --seed 23 --iters 50 --trace-sample 1 \
  --shards 8 --async-every 1 --corpus tests/fuzz_corpus
# Batch-family programs through the three-way differential (original vs
# rewrite vs the parameter-table batching arm) at 1, 2 and 8 shards:
# session temp tables and the demultiplexing joins race scheduler
# workers under the race detector; the SELECT * seed pins the batched
# join whose parameter columns are stripped by position.
for shards in 1 2 8; do
  ./build-tsan/src/fuzz/fuzz_eqsql --seed 29 --iters 50 --family batch \
    --shards "$shards" --async-every 4 --corpus tests/fuzz_corpus
  ./build-tsan/src/fuzz/fuzz_eqsql \
    --replay tests/fuzz_corpus/batch_select_star.eqf \
    --shards "$shards" --async-every 1 >/dev/null
done

echo "== api surface: the deprecated net entry points are gone =="
# The legacy ExecuteSql/ExecuteQuery/ExecuteDml overloads (issue-5
# shims) were retired: the symbols must not be called anywhere — every
# caller goes through Perform/Submit/Execute. Member-call syntax only,
# so test names like EmitsExecuteQueryAssignment do not trip it.
if grep -rEn '(->|\.)Execute(Sql|Query|Dml)\(' src tests bench examples \
    --include='*.cc' --include='*.h' --include='*.cpp'; then
  echo "verify.sh: retired net entry point (ExecuteSql/ExecuteQuery/ExecuteDml) referenced"
  exit 1
fi

echo "== api surface: shard locks stay inside the storage layer =="
# MVCC made readers lock-free: nothing outside src/storage may acquire
# (or even name) a shard's write_mu / struct_mu. Callers coordinate
# through snapshots, transactions, and the Table API only.
if grep -rEn '\b(write_mu|struct_mu)\b' src tests bench examples \
    --include='*.cc' --include='*.h' --include='*.cpp' \
    | grep -vE '^src/storage/'; then
  echo "verify.sh: direct shard-lock acquisition outside src/storage"
  exit 1
fi
# The secondary-index module lives in src/storage but must still stay
# off the shard internals: entries hold slot pointers, never shard
# positions, which is what makes indexes survive Repartition untouched.
# Naming a shard lock or the shards_ vector from index code would break
# that layering silently.
if grep -En '\b(write_mu|struct_mu|shards_)\b' src/storage/index.h \
    src/storage/index.cc; then
  echo "verify.sh: secondary index reaches into shard internals"
  exit 1
fi

echo "== api surface: batch kernels never re-enter the row evaluator =="
# The vectorized kernels must stay columnar: compiled expressions and
# scalar_ops free functions only. A call back into the per-row
# evaluator (EvalRow/EvalScalar) from src/exec/batch* would silently
# turn the batch path into row-at-a-time execution with extra dispatch.
if grep -rEn '\bEval(Row|Scalar)\(' src/exec/batch*; then
  echo "verify.sh: row-engine evaluator called from the batch kernels"
  exit 1
fi

echo "== bench gates: JSON artifacts + in-binary verdicts =="
cmake --build build -j"$(nproc)" --target bench_fig8_selection \
  bench_exec_micro bench_fig9_join
./build/bench/bench_fig8_selection --json BENCH_fig8.json
# Join + indexed phase: the selective probe through the secondary index
# must beat the 8-shard parallel full scan by >= 2x wall clock, on a
# quiet table and with a committed INSERT before each probe (both gated
# inside the binary and re-checked in the artifact).
./build/bench/bench_fig9_join --json BENCH_fig9.json
# Batch phase: compiled evaluation agrees lane by lane with per-row
# evaluation (Executor::Eval) and beats it by >= 1.5x on the filter's
# predicate and the group-by's arguments. Projection phase: Fig. 8's
# extracted `SELECT p.id, p.name ... WHERE p.finished = 0` takes no
# longer than `SELECT *` with the same filter, and the same without the
# filter. Both are gated inside the binary and re-checked in the
# artifact.
./build/bench/bench_exec_micro --benchmark_filter=ParseSql \
  --json BENCH_exec_micro.json
grep -Eq '"batch_phase":\{[^}]*"pass":true' BENCH_exec_micro.json
grep -q '"filter_speedup":' BENCH_exec_micro.json
grep -Eq '"projection_phase":\{[^}]*"pass":true' BENCH_exec_micro.json
grep -q '"eqsql_vector_wall_ms":' BENCH_fig8.json
# Cost-based selection phase: the artifact must carry the per-app
# chosen strategies, the chosen-strategy tally (with at least one
# non-extraction pick), and the in-binary gate's verdict that the
# cost-chosen run never lost to always-extract.
grep -q '"selection_phase":{' BENCH_fig8.json
grep -q '"chosen_counts":' BENCH_fig8.json
grep -q '"chosen":"batching"' BENCH_fig8.json
grep -Eq '"selection_phase":\{.*"pass":true' BENCH_fig8.json
grep -q '"indexed_phase":{' BENCH_fig9.json
grep -q '"pass":true' BENCH_fig9.json
grep -Eq '"after_write":\{[^}]*"pass":true' BENCH_fig9.json
# The artifact must embed a live registry snapshot: a busy server that
# reports zero scanned rows means the metrics wiring fell off.
grep -q '"storage.scan.rows":[1-9]' BENCH_fig8.json
# Every bench artifact embeds build provenance (git SHA, CMake preset,
# engine name, shard count) so a stray number can be traced to a build.
for f in BENCH_fig8.json BENCH_fig9.json BENCH_exec_micro.json; do
  grep -q '"provenance":{"git_sha":' "$f"
done

echo "verify.sh: all green"
