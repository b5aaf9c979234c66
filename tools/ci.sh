#!/usr/bin/env bash
# Tier-1 verify plus a bench smoke run, exiting nonzero on any failure.
#
#   tools/ci.sh [build-dir]
#
# Mirrors ROADMAP.md's tier-1 command (configure, build, ctest) and then
# exercises one figure harness end to end — including the --schedule and
# --json plumbing — on a tensor small enough to finish in seconds.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc)"

echo "== sptd_lint: self-test + tree =="
# First its own fixtures (a linter that stopped finding its seeded
# violations gates nothing), then the repo contracts on the real tree.
# Runs before the build: a contract violation should fail in seconds.
python3 tools/sptd_lint.py --self-test
python3 tools/sptd_lint.py

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build (-j$JOBS) =="
cmake --build "$BUILD_DIR" -j"$JOBS"

echo "== clang-tidy gate =="
# Zero-findings gate over the curated .clang-tidy profile, using the
# compile database the configure step just exported. On machines with no
# clang-tidy (this repo's usual gcc-only container) the runner skips
# loudly and green; where LLVM is installed, any finding fails CI.
tools/run_tidy.sh "$BUILD_DIR"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

echo "== ctest under the pool backend =="
# The whole suite again with SPTD_BACKEND=pool: every parallel_region in
# every test runs on the persistent std::thread pool instead of libgomp.
# Tests that pin a backend themselves (test_backend, the pool stress
# section) are unaffected; everything else proves backend-independence.
SPTD_BACKEND=pool ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j"$JOBS"

echo "== resilience smoke: kill mid-run, resume, bitwise-equal model =="
# A SIGKILLed single-thread f64 run, resumed from its newest checkpoint,
# must produce a model file byte-identical to the uninterrupted run's.
RES_DIR="$BUILD_DIR/resilience_smoke"
rm -rf "$RES_DIR"
mkdir -p "$RES_DIR"
"$BUILD_DIR/sptd" generate --preset yelp --scale 0.01 \
  "$RES_DIR/smoke.tns" > /dev/null
"$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 12 \
  --tolerance 0 --threads 1 --output "$RES_DIR/ref.model" > /dev/null
"$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 12 \
  --tolerance 0 --threads 1 --checkpoint-dir "$RES_DIR/ckpt" \
  --checkpoint-every 2 --output "$RES_DIR/killed.model" > /dev/null &
CPD_PID=$!
# Kill as soon as the first checkpoint lands (or let a fast box finish:
# the resume below then replays from the last mid-run checkpoint, which
# proves the same bitwise property).
for _ in $(seq 1 600); do
  if ls "$RES_DIR/ckpt"/*.ckpt > /dev/null 2>&1; then break; fi
  if ! kill -0 "$CPD_PID" 2> /dev/null; then break; fi
  sleep 0.01
done
kill -9 "$CPD_PID" 2> /dev/null || true
wait "$CPD_PID" 2> /dev/null || true
if ! ls "$RES_DIR/ckpt"/*.ckpt > /dev/null 2>&1; then
  echo "ci: checkpointed run wrote no checkpoint before exiting" >&2
  exit 1
fi
RESUME_OUT="$("$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
  --iters 12 --tolerance 0 --threads 1 \
  --checkpoint-dir "$RES_DIR/ckpt" --resume \
  --output "$RES_DIR/resumed.model")"
grep -q "resumed from iteration" <<< "$RESUME_OUT"
cmp "$RES_DIR/ref.model" "$RES_DIR/resumed.model"
echo "ci: kill-and-resume model is bitwise identical"

echo "== resilience smoke: fault-injection matrix =="
# Every --inject fault class detects and recovers (or fails structurally)
# through the CLI, matching the ctest coverage end to end.
CPD_FAULT_OUT="$("$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
  --iters 6 --tolerance 0 --threads 1 --inject corrupt-factor:3)"
grep -q "1 retries, 1 rollbacks" <<< "$CPD_FAULT_OUT" \
  || { echo "ci: cpd corrupt-factor recovery missing" >&2; exit 1; }
TUCKER_FAULT_OUT="$("$BUILD_DIR/sptd" tucker "$RES_DIR/smoke.tns" \
  --core 4x4x4 --iters 5 --tolerance 0 --threads 1 \
  --inject corrupt-factor:2)"
grep -q "1 retries, 1 rollbacks" <<< "$TUCKER_FAULT_OUT" \
  || { echo "ci: tucker corrupt-factor recovery missing" >&2; exit 1; }
# complete has no --tolerance flag, so inject at iteration 1 — before
# validation-based early stopping can end the run.
COMPLETE_FAULT_OUT="$("$BUILD_DIR/sptd" complete "$RES_DIR/smoke.tns" \
  --rank 6 --iters 5 --threads 1 --inject corrupt-factor:1)"
grep -q "1 retries, 1 rollbacks" <<< "$COMPLETE_FAULT_OUT" \
  || { echo "ci: complete corrupt-factor recovery missing" >&2; exit 1; }
# Exhausting the retry budget must fail the run (structured, nonzero exit).
if "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 6 \
  --tolerance 0 --threads 1 --inject nan-values:1 --max-retries 2 \
  > /dev/null 2>&1; then
  echo "ci: retry exhaustion did not fail the run" >&2
  exit 1
fi
# A torn checkpoint write (injected IO failure) is counted, later writes
# succeed, and a resume skips the torn file for the newest valid one.
rm -rf "$RES_DIR/ckpt_iofail"
IOFAIL_OUT="$("$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
  --iters 8 --tolerance 0 --threads 1 \
  --checkpoint-dir "$RES_DIR/ckpt_iofail" --checkpoint-every 2 \
  --inject io-fail:1)"
grep -q "1 failed writes" <<< "$IOFAIL_OUT" \
  || { echo "ci: io-fail injection not reported" >&2; exit 1; }
IOFAIL_RESUME_OUT="$("$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
  --iters 8 --tolerance 0 --threads 1 \
  --checkpoint-dir "$RES_DIR/ckpt_iofail" --resume)"
grep -q "resumed from iteration" <<< "$IOFAIL_RESUME_OUT" \
  || { echo "ci: resume after torn checkpoint failed" >&2; exit 1; }
echo "ci: fault-injection matrix recovered on every class"

echo "== sync determinism gate: a 4-thread privatized run repeats bitwise =="
# SPLATT's 0.02 * nnz rule locked the smoke tensor's level-1 mode at 4
# threads; the fiber-count rule privatizes it. Privatized deposits reduce
# in fixed thread order, so two identical 4-thread runs must write
# byte-identical models. A mode that fell back to the mutex pool would
# make the deposit order, and so the bits, timing-dependent.
for RUN in a b; do
  "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 12 \
    --tolerance 0 --threads 4 --output "$RES_DIR/t4_$RUN.model" > /dev/null
done
cmp "$RES_DIR/t4_a.model" "$RES_DIR/t4_b.model" \
  || { echo "ci: two 4-thread runs wrote different models" >&2; exit 1; }
echo "ci: 4-thread privatized models are bitwise identical"

echo "== index-view gate: compressed-layout models equal the wide layout's =="
# The compressed layout runs the MTTKRP kernel table's narrower typed views
# (or the erased fallback); the wide layout runs the (u32, u64) view where
# the bundle has one and the erased view otherwise. On
# one thread with a fixed iteration count every view must reproduce the
# wide view's bits: f64 exact and padded widths, mixed, f32, the generic
# tier (rank 17 pads to an uninstantiated width) and forced generic loops.
VIEW_DIR="$BUILD_DIR/view_gate"
rm -rf "$VIEW_DIR"
mkdir -p "$VIEW_DIR"
VIEW_CONFIG=0
while read -r -a VIEW_FLAGS; do
  VIEW_CONFIG=$((VIEW_CONFIG + 1))
  for LAYOUT in compressed wide; do
    "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --threads 1 --iters 5 \
      --tolerance 0 "${VIEW_FLAGS[@]}" --csf-layout "$LAYOUT" \
      --output "$VIEW_DIR/$VIEW_CONFIG.$LAYOUT.model" > /dev/null
  done
  cmp "$VIEW_DIR/$VIEW_CONFIG.compressed.model" \
    "$VIEW_DIR/$VIEW_CONFIG.wide.model" \
    || { echo "ci: compressed != wide for ${VIEW_FLAGS[*]}" >&2; exit 1; }
done <<'VIEWS'
--rank 35
--rank 16 --precision mixed
--rank 35 --precision f32
--rank 17
--rank 64 --kernels generic
VIEWS
echo "ci: every index view reproduces the wide view bitwise"

echo "== ingest smoke: .tns parse independent of team size and backend =="
# A ~22 MB .tns spans several 4 MiB parser blocks. The parse team comes
# from OMP_NUM_THREADS (omp) or the pool's width; the decomposition runs
# on one thread, so any difference in the model files is an ingest bug or
# a model-writer bug (its row chunks come from the same team, and 3 does
# not divide mode 2's 290 rows).
ING_DIR="$BUILD_DIR/ingest_smoke"
rm -rf "$ING_DIR"
mkdir -p "$ING_DIR"
"$BUILD_DIR/sptd" generate --preset nell-2 --scale 0.01 \
  "$ING_DIR/multi.tns" > /dev/null
ING_BYTES="$(stat -c %s "$ING_DIR/multi.tns")"
if [ "$ING_BYTES" -le $((2 * 4 * 1024 * 1024)) ]; then
  echo "ci: ingest smoke input does not span three parser blocks" >&2
  exit 1
fi
OMP_NUM_THREADS=1 "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 1 --output "$ING_DIR/t1.model" > /dev/null
OMP_NUM_THREADS=4 "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 1 --output "$ING_DIR/t4.model" > /dev/null
OMP_NUM_THREADS=3 "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 1 --output "$ING_DIR/t3.model" > /dev/null
SPTD_BACKEND=pool "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 1 --output "$ING_DIR/pool.model" \
  > /dev/null
cmp "$ING_DIR/t1.model" "$ING_DIR/t4.model"
cmp "$ING_DIR/t1.model" "$ING_DIR/t3.model"
cmp "$ING_DIR/t1.model" "$ING_DIR/pool.model"
echo "ci: ingest models are bitwise identical across team sizes and backends"
# The same input decomposed on 4 threads, so the sort passes and the CSF
# builds run in parallel blocks. At 4 threads no mode of this tensor
# locks (mode 0 privatizes, the others run root kernels), so the models
# are deterministic and must not depend on the parse team or the backend.
OMP_NUM_THREADS=1 "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 4 --output "$ING_DIR/p1.model" > /dev/null
OMP_NUM_THREADS=3 "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 4 --output "$ING_DIR/p3.model" > /dev/null
SPTD_BACKEND=pool "$BUILD_DIR/sptd" cpd "$ING_DIR/multi.tns" --rank 8 \
  --iters 3 --tolerance 0 --threads 4 --output "$ING_DIR/ppool.model" \
  > /dev/null
cmp "$ING_DIR/p1.model" "$ING_DIR/p3.model"
cmp "$ING_DIR/p1.model" "$ING_DIR/ppool.model"
echo "ci: 4-thread ingest models are bitwise identical across parse teams and backends"

# `sptd validate` counts duplicate coordinates after a stable sort: the
# generator writes none, so the count must equal the lines re-appended.
cp "$ING_DIR/multi.tns" "$ING_DIR/dup.tns"
awk 'NR % 500 == 7' "$ING_DIR/multi.tns" >> "$ING_DIR/dup.tns"
DUP_WANT="$(awk 'NR % 500 == 7' "$ING_DIR/multi.tns" | wc -l)"
DUP_GOT="$("$BUILD_DIR/sptd" validate "$ING_DIR/dup.tns" |
  sed -n 's/^duplicate coordinates: \([0-9]*\).*/\1/p')"
if [ "$DUP_GOT" != "$DUP_WANT" ]; then
  echo "ci: validate counted $DUP_GOT duplicates, expected $DUP_WANT" >&2
  exit 1
fi
echo "ci: validate counts $DUP_GOT injected duplicate coordinates"

echo "== dist smoke: shm transport matches sim bitwise =="
# The fork-per-locale shared-memory transport must reproduce the
# in-process simulation exactly (both sum partials in locale order, one
# thread per locale, f64).
"$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 6 \
  --dist-grid 2,2,1 --transport sim \
  --output "$RES_DIR/dist_sim.model" > /dev/null
"$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 6 \
  --dist-grid 2,2,1 --transport shm \
  --output "$RES_DIR/dist_shm.model" > /dev/null
cmp "$RES_DIR/dist_sim.model" "$RES_DIR/dist_shm.model"
echo "ci: shm transport model is bitwise identical to sim"

echo "== dist smoke: one ALS loop, a 1x1x1 grid reproduces cp_als bitwise =="
# The distributed driver runs cp_als_csf's iteration core, so one locale
# must write the model of a one-thread, fixed-iteration cp_als at every
# precision (f32 included: both drivers round each factor through fp32).
for P in f64 f32; do
  "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 6 \
    --tolerance 0 --threads 1 --precision "$P" \
    --output "$RES_DIR/cpals_$P.model" > /dev/null
  "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 6 \
    --dist-grid 1,1,1 --precision "$P" \
    --output "$RES_DIR/dist111_$P.model" > /dev/null
  cmp "$RES_DIR/cpals_$P.model" "$RES_DIR/dist111_$P.model" \
    || { echo "ci: --dist-grid 1,1,1 model differs from cp_als at $P" >&2
         exit 1; }
done
# Flags the distributed driver cannot honour are refused, not ignored.
if "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 2 \
  --dist-grid 1,1,1 --nonneg > /dev/null 2>&1; then
  echo "ci: --dist-grid silently accepted --nonneg" >&2
  exit 1
fi
if "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 2 \
  --dist-grid 1,1,1 --kernels fxed > /dev/null 2>&1; then
  echo "ci: --dist-grid silently accepted --kernels fxed" >&2
  exit 1
fi
echo "ci: single-locale dist models equal cp_als; ignored flags refused"
# Integer flags past int's range are refused naming the flag, never
# narrowed. Each value wraps to 1..5 when narrowed to 32 bits, so a build
# that wraps runs a tiny job instead of failing here. The refusal is the
# message alone: no checked expression, no source location.
expect_flag_refused() {  # <flag> <sptd command> <args...>
  local flag="$1" cmd="$2" err
  shift 2
  if err="$("$BUILD_DIR/sptd" "$cmd" "$RES_DIR/smoke.tns" --iters 1 "$@" \
      2>&1 > /dev/null)"; then
    echo "ci: sptd $cmd $* accepted a bad --$flag value" >&2
    exit 1
  fi
  grep -q -- "--$flag" <<< "$err" \
    || { echo "ci: sptd $cmd $* failed without naming --$flag: $err" >&2
         exit 1; }
  if grep -q -e "check failed" -e "\.cpp:" <<< "$err"; then
    echo "ci: sptd $cmd $* refused with a source location: $err" >&2
    exit 1
  fi
}
expect_flag_refused chunk cpd --chunk 4294967297
expect_flag_refused threads cpd --threads 4294967298
expect_flag_refused chunk cpd --dist-grid 1,1,1 --chunk 4294967297
expect_flag_refused dist-grid cpd --dist-grid 4294967297,1,1
expect_flag_refused threads tucker --threads 4294967298
expect_flag_refused threads complete --threads 4294967298
expect_flag_refused chunk complete --chunk 4294967297
expect_flag_refused rank cpd --rank 4294967301
expect_flag_refused rank cpd --dist-grid 1,1,1 --rank 4294967301
expect_flag_refused rank complete --rank 4294967301
expect_flag_refused checkpoint-every cpd --checkpoint-every 4294967297
expect_flag_refused core tucker --core 4294967298x2x2
# An empty list entry is refused too, never skipped into a shorter list.
expect_flag_refused core tucker --core 4xx4x4
expect_flag_refused dist-grid cpd --dist-grid 1,,1,1
expect_flag_refused dist-grid cpd --dist-grid 1,1,1,
# The helper passes --iters 1 before the arguments, so this one wins.
expect_flag_refused iters cpd --iters 4294967298
# Equal-count `static` is not a schedule policy; it is refused like any
# unknown name.
expect_flag_refused schedule cpd --schedule static
expect_flag_refused schedule tucker --schedule static
expect_flag_refused schedule complete --schedule static
echo "ci: out-of-range --chunk/--threads/--dist-grid/--rank/--iters/"\
"--checkpoint-every/--core, empty --core/--dist-grid entries and"\
" --schedule static refused"

echo "== dist recovery smoke: SIGKILL a real rank, recover, bitwise =="
# rank-kill:1@3 makes the rank-1 child SIGKILL itself mid-iteration; the
# launcher must detect the death, roll every rank back to the newest
# per-rank checkpoint, respawn the locale, and still produce a model
# byte-identical to the uninjected shm run.
rm -rf "$RES_DIR/dist_ckpt"
DIST_KILL_OUT="$("$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
  --iters 6 --dist-grid 2,2,1 --transport shm \
  --inject rank-kill:1@3 --checkpoint-dir "$RES_DIR/dist_ckpt" \
  --checkpoint-every 2 --output "$RES_DIR/dist_killed.model")"
grep -q "locale restarts" <<< "$DIST_KILL_OUT" \
  || { echo "ci: rank-kill recovery not reported" >&2; exit 1; }
grep -q "resumed from iteration" <<< "$DIST_KILL_OUT" \
  || { echo "ci: rank-kill rollback did not restore a checkpoint" >&2
       exit 1; }
cmp "$RES_DIR/dist_shm.model" "$RES_DIR/dist_killed.model"
echo "ci: rank-kill recovery model is bitwise identical"

echo "== bench smoke: bench_fig5_routines + bench_fig4_locks =="
SMOKE_JSON="$BUILD_DIR/bench_smoke.json"
rm -f "$SMOKE_JSON"
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule weighted --json "$SMOKE_JSON"
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --rank 16 --iters 2 --trials 1 \
  --threads-list 1,2 --schedule weighted --json "$SMOKE_JSON"
# The same fig5 smoke on the wide (u32/u64) CSF layout: the ablation
# reference for the compressed index streams.
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule weighted --csf-layout wide --json "$SMOKE_JSON"
# The same smokes under the work-stealing policy (weighted seed +
# per-thread deques), exercising the steals JSON plumbing end to end.
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule workstealing --json "$SMOKE_JSON"
# The same fig5 smoke under the narrow value streams: mixed (fp32
# streams, fp64 accumulation — the production mode) and f32 (the
# pure-fp32 ablation endpoint).
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule weighted --precision mixed --json "$SMOKE_JSON"
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule weighted --precision f32 --json "$SMOKE_JSON"
"$BUILD_DIR/bench_fig4_locks" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 2 \
  --schedule workstealing --json "$SMOKE_JSON"
# The same fig5 smoke on the pool backend: identical decompositions, the
# persistent std::thread pool running every region.
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.002 --iters 2 --trials 1 --threads-list 1,2 \
  --schedule weighted --backend pool --json "$SMOKE_JSON"
# The same fig5 smoke with mid-run checkpointing on: records carry
# checkpoint_time/checkpoint_bytes, and the overhead gate below bounds the
# cost at 5% of total_seconds. Single-threaded and 10 iterations so the
# --checkpoint-every 5 snapshot actually fires mid-run (a checkpoint at
# the final iteration is skipped as pointless). Scale 0.02, not 0.002:
# one fsync is a fixed ~1.5 ms floor, so the run must be big enough for
# the 5% bound to measure the real serialization cost, not the syscall.
# Three trials because checkpoint_time reports the best trial: a single
# fsync colliding with an unrelated journal commit costs ~0.3 s, and a
# one-trial measurement would fail the gate on that noise alone.
rm -rf "$BUILD_DIR/bench_ckpt"
"$BUILD_DIR/bench_fig5_routines" \
  --preset yelp --scale 0.02 --iters 10 --trials 3 --threads-list 1 \
  --schedule weighted --checkpoint-every 5 \
  --checkpoint-dir "$BUILD_DIR/bench_ckpt" --json "$SMOKE_JSON"

echo "== completion smoke: bench_completion (als, sgd, ccd) =="
# One record per (solver, thread count), carrying train_rmse/val_rmse.
"$BUILD_DIR/bench_completion" \
  --preset yelp --scale 0.005 --rank 8 --iters 5 --trials 1 \
  --threads-list 1,2 --alg-list als,sgd,ccd --json "$SMOKE_JSON"

echo "== precision smoke: bench_ablation_precision (f64, f32, mixed) =="
# One record per precision carrying value_bytes and fit_gap_vs_f64.
"$BUILD_DIR/bench_ablation_precision" \
  --preset yelp --scale 0.002 --rank 8 --iters 5 \
  --threads-list 2 --json "$SMOKE_JSON"

echo "== oversubscribe smoke: composition scenario (omp vs pool) =="
# Phase rows plus one concurrent-decompositions row per backend: two
# whole CP-ALS runs sharing the process, each asking for the sweep's
# largest team. The >= 1.3x composition gate below runs on dedicated
# probe files.
for BK in omp pool; do
  "$BUILD_DIR/bench_ablation_oversubscribe" \
    --preset yelp --scale 0.002 --iters 40 --threads-list 2,8 \
    --concurrent 2 --backend "$BK" --json "$SMOKE_JSON"
done

echo "== dist smoke: bench_ablation_distgrid (sim + shm transports) =="
# Five grid shapes per transport. The sim rows carry the modeled halo
# volume only; the shm rows fork one real process per locale over the
# shared-memory ring and carry comm_bytes_measured /
# comm_seconds_measured next to the model (test_dist pins both byte
# counts).
for TR in sim shm; do
  "$BUILD_DIR/bench_ablation_distgrid" \
    --preset yelp --scale 0.002 --rank 8 --iters 3 \
    --transport "$TR" --json "$SMOKE_JSON"
done

# Every smoke configuration must have run exactly once: an exact record
# count per bench, so a missing or a duplicated configuration fails.
#   Figure 5: 8 weighted (ranks 35 and 16) + 4 wide layout + 4
#     workstealing + 8 narrow precision (mixed, f32) + 4 pool backend +
#     2 checkpointed = 30
#   Figure 4: 4 lock kinds; completion: 3 solvers x 2 thread counts;
#   precision ablation: f64, f32, mixed; oversubscribe: 2 backends x
#   (2 phase rows + 1 concurrent); distgrid: 5 grids x 2 transports.
python3 - "$SMOKE_JSON" <<'EOF'
import collections, json, sys
want = {"Figure 5": 30, "Figure 4": 4, "completion": 6,
        "ablation_precision": 3, "ablation_oversubscribe": 6,
        "ablation_distgrid": 10}
with open(sys.argv[1]) as f:
    got = collections.Counter(json.loads(line)["bench"] for line in f)
if got != want:
    raise SystemExit(f"ci: bench records per bench {dict(got)}, "
                     f"expected {want}")
EOF
RECORDS="$(wc -l < "$SMOKE_JSON")"

# Wall-clock threshold gates (checkpoint overhead, pool composition and
# parity, the self-relative timings below) compare short probe runs, so
# on shared, throttled, or low-core runners they are load-sensitive:
# there they only warn. Structural gates (record counts, steals) stay
# hard everywhere; the smoke's deterministic fields are ctest assertions.
# SPTD_CI_PERF_GATES=hard|advisory overrides the autodetect (default:
# hard on >= 8 cores, advisory below).
PERF_GATES="${SPTD_CI_PERF_GATES:-}"
if [ -z "$PERF_GATES" ]; then
  if [ "$(nproc)" -ge 8 ]; then PERF_GATES=hard; else PERF_GATES=advisory; fi
fi
perf_gate_fail() {
  if [ "$PERF_GATES" = hard ]; then
    echo "ci: $*" >&2
    exit 1
  fi
  echo "ci: WARNING (advisory perf gate on non-dedicated runner): $*" >&2
}

# Checkpointing must stay cheap. Every checkpointed fig5 record carries
# the per-trial serialization + fsync cost in checkpoint_time; gate it at
# 5% of that record's total_seconds rather than ratio-checking against an
# aging baseline (the cost is wall-clock-noisy, the bound is the
# contract). Exit 10 marks an overhead violation — a wall-clock gate that
# perf_gate_fail demotes to a warning on non-dedicated runners; a missing
# record stays a hard structural failure.
CKPT_RC=0
python3 - "$SMOKE_JSON" <<'EOF' || CKPT_RC=$?
import json, sys
checked = 0
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if rec.get("bench") != "Figure 5":
            continue
        if int(rec.get("checkpoint_every", 0)) != 5:
            continue
        checked += 1
        ct = float(rec["checkpoint_time"])
        total = float(rec["total_seconds"])
        if ct > 0.05 * total:
            print(f"ci: checkpoint overhead {ct:.4f}s exceeds 5% of "
                  f"{total:.4f}s total for impl={rec.get('impl')}",
                  file=sys.stderr)
            sys.exit(10)
        print(f"ci: checkpoint overhead impl={rec.get('impl')}: "
              f"{ct:.4f}s of {total:.4f}s "
              f"({100 * ct / total:.1f}%, {rec['checkpoint_bytes']} bytes)")
if checked == 0:
    raise SystemExit("ci: no checkpointed fig5 records found")
EOF
if [ "$CKPT_RC" = 10 ]; then
  perf_gate_fail "checkpoint overhead exceeded its 5% bound (see above)"
elif [ "$CKPT_RC" != 0 ]; then
  exit "$CKPT_RC"
fi

# Work stealing must engage and flow into the JSON records. Zero steals
# on one balanced smoke run is legitimate timing luck (threads can drain
# their weighted-seeded deques in lockstep), so before declaring the
# plumbing broken, retry with an oversubscribed team, where preemption
# forces imbalance.
sum_steals() {
  python3 - "$1" <<'EOF'
import json, sys
total = 0
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if rec.get("schedule") == "workstealing":
            total += int(rec.get("steals", 0))
print(total)
EOF
}
WS_STEALS="$(sum_steals "$SMOKE_JSON")"
if [ "$WS_STEALS" -lt 1 ]; then
  PROBE_JSON="$BUILD_DIR/ws_steal_probe.json"
  for attempt in 1 2 3 4 5; do
    rm -f "$PROBE_JSON"
    "$BUILD_DIR/bench_fig4_locks" \
      --preset yelp --scale 0.002 --iters 2 --trials 1 \
      --threads-list "$(( $(nproc) * 4 ))" \
      --schedule workstealing --json "$PROBE_JSON" > /dev/null
    WS_STEALS="$(sum_steals "$PROBE_JSON")"
    if [ "$WS_STEALS" -ge 1 ]; then
      break
    fi
  done
fi
if [ "$WS_STEALS" -lt 1 ]; then
  echo "ci: workstealing recorded zero steals even oversubscribed" >&2
  exit 1
fi
echo "ci: workstealing smoke recorded $WS_STEALS steals"

# Pool-backend contracts, measured on dedicated probe runs (the smoke
# rows are single runs; wall-clock gates need retries or best-of-N):
#  * Composition: two concurrent CP-ALS runs sharing the process must be
#    >= 1.3x faster wall-clock under pool than under omp — omp wakes a
#    private libgomp team per run (oversubscription), pool multiplexes
#    both onto one worker set.
#  * Parity: a single-run MTTKRP sweep at 2 threads under pool must be
#    within 10% of omp (min over attempts on both sides — the shared box
#    makes any single timing noisy).
# Retried like the steal gate: one noisy attempt is timing luck, five
# failures is a regression. Both are wall-clock gates, so perf_gate_fail
# (defined with the PERF_GATES autodetect above) demotes them to
# warnings on non-dedicated runners.
echo "== pool backend gates: composition (>= 1.3x) + parity (<= 1.10x)" \
  "[$PERF_GATES] =="
PROBE_OMP="$BUILD_DIR/backend_probe_omp.json"
PROBE_POOL="$BUILD_DIR/backend_probe_pool.json"
COMP_OK=0
PAR_OK=0
OMP_MTTKRP_MIN=inf
POOL_MTTKRP_MIN=inf
for attempt in 1 2 3 4 5; do
  rm -f "$PROBE_OMP" "$PROBE_POOL"
  "$BUILD_DIR/bench_ablation_oversubscribe" \
    --preset yelp --scale 0.002 --iters 40 --threads-list 2,8 \
    --concurrent 2 --backend omp --json "$PROBE_OMP" > /dev/null
  "$BUILD_DIR/bench_ablation_oversubscribe" \
    --preset yelp --scale 0.002 --iters 40 --threads-list 2,8 \
    --concurrent 2 --backend pool --json "$PROBE_POOL" > /dev/null
  GATE_EVAL="$(python3 - "$PROBE_OMP" "$PROBE_POOL" \
      "$OMP_MTTKRP_MIN" "$POOL_MTTKRP_MIN" <<'EOF'
import json, sys

def load(path):
    comp, mttkrp = None, None
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("config") == "concurrent-2":
                comp = float(rec["seconds"])
            if rec.get("config") == "phases" and rec.get("threads") == 2:
                mttkrp = float(rec["MTTKRP"])
    if comp is None or mttkrp is None:
        raise SystemExit("ci: backend probe missing expected records")
    return comp, mttkrp

omp_comp, omp_mttkrp = load(sys.argv[1])
pool_comp, pool_mttkrp = load(sys.argv[2])
omp_min = min(float(sys.argv[3]), omp_mttkrp)
pool_min = min(float(sys.argv[4]), pool_mttkrp)
comp_ok = int(pool_comp * 1.3 <= omp_comp)
par_ok = int(pool_min <= 1.10 * omp_min)
print(f"COMP_OK={comp_ok} PAR_OK={par_ok} "
      f"OMP_MTTKRP_MIN={omp_min} POOL_MTTKRP_MIN={pool_min} "
      f"COMP_RATIO={omp_comp / pool_comp:.2f} "
      f"PAR_RATIO={pool_min / omp_min:.2f}")
EOF
)"
  eval "$GATE_EVAL"
  if [ "$COMP_OK" = 1 ] && [ "$PAR_OK" = 1 ]; then
    break
  fi
done
if [ "$COMP_OK" != 1 ]; then
  perf_gate_fail "pool composition gate failed: concurrent runs only" \
    "${COMP_RATIO}x faster under pool (need >= 1.3x)"
fi
if [ "$PAR_OK" != 1 ]; then
  perf_gate_fail "pool MTTKRP parity gate failed: pool/omp ratio" \
    "${PAR_RATIO} (need <= 1.10)"
fi
echo "ci: pool composition ${COMP_RATIO}x faster, MTTKRP parity ratio" \
  "${PAR_RATIO}"

# Self-relative timing gate for the smoke timings that neither perfbench
# (the f64 and mixed CP-ALS path) nor a gate above (pool parity and
# composition, checkpoint overhead) covers: the wide-layout, workstealing
# and f32 fig5 rows, the fig4 lock kinds, the precision ablation and the
# completion solvers. Three rounds; each configuration's best time must
# stay within 4x of the best time of the same rounds' f64/c/weighted/
# compressed fig5 row at its thread count (that row's MTTKRP time for
# the MTTKRP-only harnesses). Comparing within one run keeps the box's
# speed out of the ratio, and the best of three keeps one preempted run
# out of it. Completion runs at the fig5 scale with two iterations, so
# its work is of the reference's order. Exit 10 marks a ratio violation
# (perf_gate_fail demotes it on non-dedicated runners); a missing
# reference stays a hard failure.
echo "== self-relative timing gate: best of 3 within 4x of f64 fig5" \
  "[$PERF_GATES] =="
REL_JSON="$BUILD_DIR/relative_probe.json"
rm -f "$REL_JSON"
for _ in 1 2 3; do
  while read -r -a PROBE; do
    "$BUILD_DIR/${PROBE[0]}" "${PROBE[@]:1}" --preset yelp --scale 0.002 \
      --json "$REL_JSON" > /dev/null
  done <<'PROBES'
bench_fig5_routines --iters 2 --threads-list 1,2 --schedule weighted
bench_fig5_routines --iters 2 --threads-list 1,2 --csf-layout wide
bench_fig5_routines --iters 2 --threads-list 1,2 --schedule workstealing
bench_fig5_routines --iters 2 --threads-list 1,2 --precision f32
bench_fig4_locks --iters 2 --threads-list 2 --schedule workstealing
bench_ablation_precision --rank 8 --iters 5 --threads-list 2
bench_completion --rank 8 --iters 2 --threads-list 1,2
PROBES
done
REL_RC=0
python3 - "$REL_JSON" <<'EOF' || REL_RC=$?
import json, sys
best, ref = {}, {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        fig5 = rec["bench"] == "Figure 5"
        if fig5 and (rec["precision"], rec["schedule"],
                     rec["csf_layout"]) == ("f64", "weighted", "compressed"):
            # The reference configuration; perfbench covers its timings.
            if rec["impl"] == "c":
                for field in ("total_seconds", "MTTKRP"):
                    key = (rec["threads"], field)
                    ref[key] = min(ref.get(key, float("inf")),
                                   float(rec[field]))
            continue
        whole_run = fig5 or rec["bench"] == "completion"
        variant = rec.get("impl") or rec.get("lock") or rec.get("alg", "")
        key = (f"{rec['bench']} {variant} {rec['schedule']} "
               f"{rec['csf_layout']} {rec['precision']}", rec["threads"],
               "total_seconds" if whole_run else "MTTKRP")
        secs = float(rec["total_seconds" if fig5 else "seconds"])
        best[key] = min(best.get(key, float("inf")), secs)
over = []
for (label, threads, field), secs in sorted(best.items()):
    if (threads, field) not in ref:
        raise SystemExit(f"ci: no f64 fig5 reference at {threads} threads")
    ratio = secs / ref[(threads, field)]
    if ratio > 4.0:
        over.append(f"{label} x{threads}: {secs * 1e3:.2f} ms, "
                    f"{ratio:.1f}x the reference {field}")
print(f"ci: {len(best)} timing configurations checked against the f64 "
      f"fig5 reference, {len(over)} over 4x")
for line in over:
    print(f"ci:   {line}", file=sys.stderr)
sys.exit(10 if over else 0)
EOF
if [ "$REL_RC" = 10 ]; then
  perf_gate_fail "a smoke timing exceeded 4x its f64 reference (see above)"
elif [ "$REL_RC" != 0 ]; then
  exit "$REL_RC"
fi

# Sanitized tier-1: the whole gtest suite under ASan + UBSan. Bench and
# examples are skipped (the suite covers the library; sanitized bench
# timings are meaningless anyway). Set SPTD_CI_SKIP_ASAN=1 for a quick
# local loop.
if [ "${SPTD_CI_SKIP_ASAN:-0}" != "1" ]; then
  echo "== sanitizer build + ctest (address,undefined) =="
  ASAN_BUILD="${BUILD_DIR}-asan"
  cmake -B "$ASAN_BUILD" -S . -DSPTD_SANITIZE=address,undefined \
    -DSPTD_BUILD_BENCH=OFF -DSPTD_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_BUILD" -j"$JOBS"
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j"$JOBS"
fi

# ThreadSanitizer over the std::thread concurrency stress harness. Only
# stress_concurrency is built and run: TSan cannot model libgomp's
# barriers (gcc ships no instrumented OpenMP runtime), so the OpenMP
# suites would drown real races in false positives — the harness drives
# the same deques, lock pools, reduction buffers and checkpoint overlap
# with raw std::thread instead (see tools/tsan.supp for the policy).
# Set SPTD_CI_SKIP_TSAN=1 for a quick local loop.
if [ "${SPTD_CI_SKIP_TSAN:-0}" != "1" ]; then
  echo "== sanitizer build + stress harness (thread) =="
  TSAN_BUILD="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_BUILD" -S . -DSPTD_SANITIZE=thread \
    -DSPTD_BUILD_BENCH=OFF -DSPTD_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_BUILD" --target stress_concurrency -j"$JOBS"
  TSAN_OPTIONS="suppressions=$PWD/tools/tsan.supp" \
    "$TSAN_BUILD/stress_concurrency"
fi

# MPI transport job, gated on an MPI toolchain actually being installed
# (this repo's usual container has none — the build then compiles the
# stubs and `--transport mpi` is rejected upfront, which ctest covers).
if command -v mpicxx > /dev/null 2>&1 && command -v mpirun > /dev/null 2>&1
then
  echo "== MPI build + dist smoke (one rank per locale) =="
  MPI_BUILD="${BUILD_DIR}-mpi"
  cmake -B "$MPI_BUILD" -S . -DSPTD_BUILD_BENCH=OFF \
    -DSPTD_BUILD_EXAMPLES=OFF
  cmake --build "$MPI_BUILD" -j"$JOBS"
  ctest --test-dir "$MPI_BUILD" --output-on-failure -j"$JOBS"
  mpirun -n 4 "$MPI_BUILD/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 \
    --iters 4 --dist-grid 2,2,1 --transport mpi \
    --output "$RES_DIR/dist_mpi.model"
  # Same contract as shm: bitwise-identical to the sim run (4 iters of
  # the sim reference would differ from the 6-iter model above, so
  # regenerate the sim side at the same length).
  "$BUILD_DIR/sptd" cpd "$RES_DIR/smoke.tns" --rank 8 --iters 4 \
    --dist-grid 2,2,1 --transport sim \
    --output "$RES_DIR/dist_sim4.model" > /dev/null
  cmp "$RES_DIR/dist_sim4.model" "$RES_DIR/dist_mpi.model"
  echo "ci: mpi transport model is bitwise identical to sim"
else
  echo "== MPI toolchain not installed; skipping the MPI transport job =="
fi

echo "== ok ($RECORDS bench records) =="
