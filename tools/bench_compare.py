#!/usr/bin/env python3
"""Compare two bench --json files and fail on regressions.

Every bench harness appends one JSON object per measurement (JSON Lines)
when run with --json. This tool pairs records between a baseline file and
a candidate file on their identity fields (everything except the measured
seconds) and exits nonzero when any shared metric regressed by more than
the threshold.

Usage:
    tools/bench_compare.py baseline.json candidate.json [--threshold 0.25]
        [--metrics seconds,total_seconds,MTTKRP] [--require-pairs]

Records present in only one file are reported but are not failures unless
--require-pairs is given (machines differ; baselines age). The default
threshold is generous (25%) because bench boxes are noisy; CI smoke runs
care about order-of-magnitude regressions, not jitter.
"""

import argparse
import json
import sys

# Fields that are measurements (candidate/baseline ratios are checked),
# not identity. Everything else, minus the counters below, identifies the
# measurement. The completion RMSE fields are quality metrics: they are
# deterministic at fixed seed/threads, so a blowup past the threshold
# flags a solver regression the same way a timing blowup flags a perf
# one. The `alg` field a completion record carries is NOT listed here, so
# it stays part of record identity and solvers gate independently.
# csf_bytes is the CSF memory footprint (deterministic at fixed
# preset/scale/layout): gated lower-is-better exactly like a timing, so a
# change that silently re-widens the compressed index streams fails CI.
# The `csf_layout` identity field keeps compressed and wide records
# paired separately, and the `precision` identity field does the same for
# the value-stream precision (f64/f32/mixed): value_bytes and
# fit_gap_vs_f64 are then plain lower-is-better metrics within each
# precision, so re-widening the fp32 value stream or drifting further
# from the f64 fit both fail CI.
DEFAULT_METRICS = [
    "seconds",
    "total_seconds",
    "MTTKRP",
    "INVERSE",
    "MAT A^TA",
    "MAT NORM",
    "CPD FIT",
    "SORT",
    "train_rmse",
    "val_rmse",
    "csf_bytes",
    "value_bytes",
    "fit_gap_vs_f64",
    # Phase timings of the TTMc ablation (COO walk vs CSF walk) and the
    # deterministic halo volume of the dist-grid ablation. These are
    # measurements: leaving them unregistered would silently fold them
    # into record identity, where a wall-clock timing never matches its
    # baseline and the records pair with nothing.
    "coo_seconds",
    "csf_seconds",
    "comm_bytes",
    # Bytes the shm/mpi transports physically moved through their rings
    # (zero under sim, deterministic for a clean run — replay after an
    # injected kill adds to it, but bench runs never inject).
    "comm_bytes_measured",
]

# Higher-is-better quality metrics, gated on their deficit from the ideal
# value (1.0): the ratio check runs on (1 - fit), so a fit that moves
# from 0.998 to 0.990 is a 5x residual blowup and fails, while a fit
# improvement can never read as a regression.
DEFAULT_DEFICIT_METRICS = [
    "fit",
]

# Run-varying counters: excluded from identity (two runs of the same
# configuration report different values) but not ratio-checked either —
# a steal count is diagnostic, not a regression signal, and completion
# iteration counts may legitimately shift when a solver changes. The
# resilience counters ride here too: retries/rollbacks are recovery
# events, and checkpoint_bytes/checkpoint_time are wall-clock-noisy costs
# that ci.sh gates directly (<= 5% of total_seconds on the fig5 smoke)
# instead of ratio-checking against an aging baseline. checkpoint_every,
# by contrast, is identity: checkpointed and plain runs pair separately.
DEFAULT_COUNTERS = [
    "steals",
    "iterations",
    "best_iteration",
    "retries",
    "rollbacks",
    "checkpoint_bytes",
    "checkpoint_time",
    # Wall seconds inside transport collectives: diagnostic, noisy.
    "comm_seconds_measured",
]

# Identity fields: everything a bench may emit that is neither a metric
# nor a counter. This list changes nothing about how records pair — the
# identity key is still "every field not excluded above" — it exists so
# the pairing contract is EXPLICIT: tools/sptd_lint.py (rule
# bench-field-registry) fails CI when a bench emits a field that appears
# in none of the four lists, which is how an unregistered measurement
# would otherwise silently become identity and never pair (see
# coo_seconds above for the failure mode). Adding a bench field means
# deciding, here, whether it identifies the measurement or is one.
KNOWN_IDENTITY_FIELDS = [
    "alg",
    "backend",
    "bench",
    "checkpoint_every",
    "chunk",
    "config",
    "core",
    "csf",
    "csf_layout",
    "grid",
    "impl",
    "kernel_width",
    "kernels",
    "lock",
    "precision",
    "preset",
    "rank",
    "reorder",
    "row_access",
    "scale",
    "schedule",
    "strategies",
    "threads",
    "transport",
]


def load_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{lineno}: bad JSON line: {e}")
    return records


def identity(record, excluded):
    # Values are stringified so the key is type-stable: mixed value types
    # for one field across records (an int next to a bool or a string)
    # must produce distinct-but-sortable keys, not a TypeError from
    # comparing unlike types inside sorted().
    return tuple(sorted(
        (k, f"{type(v).__name__}:{v}")
        for k, v in record.items() if k not in excluded))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline bench --json file")
    ap.add_argument("candidate", help="candidate bench --json file")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown (default 0.25)")
    ap.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                    help="comma-separated measurement fields")
    ap.add_argument("--deficit-metrics",
                    default=",".join(DEFAULT_DEFICIT_METRICS),
                    help="comma-separated higher-is-better quality fields "
                         "gated on their deficit from 1.0")
    ap.add_argument("--counters", default=",".join(DEFAULT_COUNTERS),
                    help="comma-separated run-varying counter fields "
                         "(excluded from identity, never ratio-checked)")
    ap.add_argument("--min-seconds", type=float, default=1e-4,
                    help="noise floor: skip ratio checks when both sides "
                         "of a timing are below this (default 1e-4 — "
                         "scheduler jitter alone is tens of microseconds, "
                         "so ratios of such timings are meaningless)")
    ap.add_argument("--require-pairs", action="store_true",
                    help="fail if any record lacks a counterpart")
    args = ap.parse_args()

    metrics = [m for m in args.metrics.split(",") if m]
    deficits = [m for m in args.deficit_metrics.split(",") if m]
    counters = [c for c in args.counters.split(",") if c]
    excluded = set(metrics) | set(deficits) | set(counters)
    base = {}
    for rec in load_records(args.baseline):
        base.setdefault(identity(rec, excluded), []).append(rec)

    regressions = []
    unmatched = 0
    compared = 0
    for rec in load_records(args.candidate):
        key = identity(rec, excluded)
        if not base.get(key):
            unmatched += 1
            continue
        ref = base[key].pop(0)
        label = " ".join(f"{k}={v.split(':', 1)[1]}" for k, v in key
                         if k in ("bench", "impl", "alg", "threads",
                                  "row_access", "kernels", "kernel_width",
                                  "schedule", "precision"))
        for m in metrics:
            if m not in rec or m not in ref:
                continue
            compared += 1
            old, new = float(ref[m]), float(rec[m])
            if old <= 0.0:
                continue
            if max(old, new) < args.min_seconds:
                continue
            ratio = new / old
            if ratio > 1.0 + args.threshold:
                regressions.append(
                    f"{label}: {m} {old:.6f}s -> {new:.6f}s "
                    f"({ratio:.2f}x, threshold {1.0 + args.threshold:.2f}x)")
        for m in deficits:
            if m not in rec or m not in ref:
                continue
            compared += 1
            old, new = 1.0 - float(ref[m]), 1.0 - float(rec[m])
            if old <= 0.0:
                continue
            ratio = new / old
            if ratio > 1.0 + args.threshold:
                regressions.append(
                    f"{label}: 1-{m} {old:.6f} -> {new:.6f} "
                    f"({ratio:.2f}x, threshold {1.0 + args.threshold:.2f}x)")

    leftover = sum(len(v) for v in base.values())
    print(f"bench_compare: {compared} metric(s) compared, "
          f"{len(regressions)} regression(s), "
          f"{unmatched} candidate / {leftover} baseline record(s) unpaired")
    for r in regressions:
        print(f"  REGRESSION {r}")

    if regressions:
        return 1
    if args.require_pairs and (unmatched or leftover):
        print("bench_compare: --require-pairs set and records were unpaired")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
