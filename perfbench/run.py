#!/usr/bin/env python3
"""End-to-end CP-ALS benchmark: load -> sort/CSF -> ALS -> model write.

    python3 perfbench/run.py --workload yelp-serial --seed 1 --seconds 22 \
        --trace 0

Run from the repository root. Builds perfbench/ (and libsptd with it) into
.bench_build/, generates the workload's input from --seed in a separate
process (cached per seed), records the reference fit and model by running
`sptd cpd` with the same flags, then repeats the measured run
(perfbench_cpd, one fresh process per repetition) for --seconds seconds.

--trace 0 reports the end-to-end metrics (the fastest repetition for the
times, the median for the fit and the peak RSS).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics; it also runs the STREAM-triad probe.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A repetition counts as failed if any correctness check fails.
Human-readable detail goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"

# Each workload: how its input is generated and the CP-ALS flags both the
# measured program and the `sptd cpd` reference run with.
WORKLOADS = {
    "yelp-serial": {
        "gen": ["--preset", "yelp", "--scale", "0.3"],
        "ext": ".bin",
        "rank": 35, "iters": 10, "threads": 1, "precision": "f64",
    },
    "nell2-tns": {
        "gen": ["--preset", "nell-2", "--scale", "0.05"],
        "ext": ".tns",
        "rank": 35, "iters": 30, "threads": 2, "precision": "f64",
    },
    "yelp-lock-mixed": {
        # yelp@0.3's mode lengths at 1.0M nnz: dims[0]*2 > 0.02*nnz, so the
        # planner locks mode 0 at 2 threads.
        "gen": ["--dims", "12300,3300,22500", "--nnz", "1000000",
                "--zipf", "0.6"],
        "ext": ".bin",
        "rank": 16, "iters": 20, "threads": 2, "precision": "mixed",
    },
}

# Fit agreement with the reference, by precision (the precision ladder):
# f64 at one thread must match bit for bit (model file bytes too); f64 with
# more threads only up to summation order; fp32 streams up to rounding.
FIT_TOL = {"f64": 1e-9, "mixed": 1e-6, "f32": 1e-3}
PRINTED_FIT_HALF_ULP = 5e-7  # `sptd cpd` prints the fit with 6 decimals

# End-to-end metrics with the statistic taken over a run's repetitions.
# Wall times drift on a shared box for tens of seconds at a time (other
# tenants slow every repetition of a run alike), so the fastest repetition
# is the steadiest estimate of each time; the fit and the peak RSS, which
# do not drift, report the median.
END_TO_END = [
    ("total_s", "s", min), ("setup_s", "s", min), ("als_iter_s", "s", min),
    ("fit", "fraction", statistics.median),
    ("peak_rss_mb", "MiB", statistics.median),
]

# Per-layer metrics reported from the traced repetitions (median).
TRACED = [
    ("tensor.read_s", "s"), ("tensor.read_mb_per_s", "MB/s"),
    ("sort.s", "s"), ("sort.mnnz_per_s", "Mnnz/s"), ("csf.build_s", "s"),
    ("csf.bytes", "B"), ("csf.index_bytes", "B"), ("csf.value_bytes", "B"),
    ("mttkrp.plan_s", "s"), ("mttkrp.mode0_s", "s"), ("mttkrp.mode1_s", "s"),
    ("mttkrp.mode2_s", "s"), ("mttkrp.sweep_s", "s"),
    ("mttkrp.bytes_computed", "B"), ("mttkrp.gbps_computed", "GB/s"),
    ("mttkrp.allocs_per_sweep", "count"),
    ("mttkrp.planning_calls_per_sweep", "count"),
    ("mttkrp.lock_modes", "count"), ("mttkrp.privatized_modes", "count"),
    ("la.inverse_s", "s"), ("la.ata_s", "s"), ("la.gram_hadamard_s", "s"),
    ("la.normalize_s", "s"), ("cpd.fit_s", "s"),
    ("model_io.write_s", "s"), ("model_io.write_mb_per_s", "MB/s"),
    ("model_io.bytes", "B"), ("parallel.region_launch_us", "us"),
]
# Counts that must repeat exactly between traced repetitions of one input.
EXACT = ["mttkrp.allocs_per_sweep", "mttkrp.planning_calls_per_sweep",
         "mttkrp.bytes_computed", "csf.bytes", "csf.index_bytes",
         "csf.value_bytes"]

# Everything after the build must finish within this many seconds, so a run
# ends well inside three minutes even if a child hangs.
RUN_BUDGET_S = 170
MIN_REPS = 3
_deadline = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env.pop("SPTD_BACKEND", None)  # the default (omp) backend, as users run
    env.pop("OMP_NUM_THREADS", None)
    return env


def run_checked(cmd):
    timeout = max(1.0, _deadline - time.monotonic())
    return subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=timeout, env=child_env())


def build():
    """Configures and builds perfbench/ (with libsptd) into .bench_build."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "sptd.hpp").is_file():
        log("run.py: the sptd sources are not next to perfbench/; "
            "run from a full checkout")
        sys.exit(2)
    logf = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench_gen",
                  "perfbench_cpd", "perfbench_triad", "sptd_cli"])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                log(f"run.py: build failed; see {logf}")
                sys.exit(1)


def binary(name):
    return str(CMAKE_DIR / ("sptd/sptd" if name == "sptd" else name))


def cpd_flags(w):
    return ["--rank", str(w["rank"]), "--iters", str(w["iters"]),
            "--threads", str(w["threads"]), "--precision", w["precision"]]


def prepare_inputs(name, w, seed):
    """Generates the seeded input and the `sptd cpd` reference, cached."""
    inputs = BUILD / "inputs"
    d = inputs / f"{name}-seed{seed}"
    meta = d / "reference.json"
    if meta.is_file():
        return d / ("input" + w["ext"]), json.loads(meta.read_text())
    # Keep one seed per workload on disk.
    for old in inputs.glob(f"{name}-seed*"):
        shutil.rmtree(old)
    d.mkdir(parents=True)
    tensor = d / ("input" + w["ext"])
    run_checked([binary("perfbench_gen"), "--out", str(tensor),
                 "--seed", str(seed)] + w["gen"])
    ref = run_checked([binary("sptd"), "cpd", str(tensor), "--tolerance", "0",
                       "--output", str(d / "reference.model")] + cpd_flags(w))
    m = re.search(r"^fit (\S+) after (\d+) iterations", ref.stdout, re.M)
    if not m:
        raise RuntimeError("sptd cpd printed no fit:\n" + ref.stdout)
    info = {"fit": m.group(1), "iterations": int(m.group(2))}
    meta.write_text(json.dumps(info))
    return tensor, info


def measured_run(name, w, tensor, trace, seed):
    out = BUILD / "out"
    out.mkdir(exist_ok=True)
    cmd = [binary("perfbench_cpd"), "--input", str(tensor),
           "--model", str(out / f"{name}.model")] + cpd_flags(w)
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(traces / f"{name}-seed{seed}.json")]
    res = run_checked(cmd)
    return json.loads(res.stdout.strip().splitlines()[-1]), out / f"{name}.model"


def gate(w, rec, model_path, ref_dir, ref):
    """Returns the list of failed correctness checks for one repetition."""
    failed = []
    if not rec.get("check.readback_ok"):
        failed.append("model readback/checksum")
    if rec["iterations"] != ref["iterations"] or rec["iterations"] != w["iters"]:
        failed.append("iteration count")
    fit, ref_fit = rec["fit"], float(ref["fit"])
    exact = w["precision"] == "f64" and w["threads"] == 1
    if exact:
        if f"{fit:.6f}" != ref["fit"]:
            failed.append(f"fit {fit:.6f} != reference {ref['fit']}")
        if model_path.read_bytes() != (ref_dir / "reference.model").read_bytes():
            failed.append("model file differs from `sptd cpd` output")
    elif abs(fit - ref_fit) > FIT_TOL[w["precision"]] + PRINTED_FIT_HALF_ULP:
        failed.append(f"fit {fit!r} vs reference {ref['fit']}")
    if "check.oracle_ok" in rec:
        if not rec["check.oracle_ok"]:
            failed.append(f"MTTKRP vs mttkrp_coo oracle "
                          f"(rel err {rec['check.oracle_rel_err']:.3g})")
        if rec["mttkrp.planning_calls_per_sweep"] != 0:
            failed.append("planning calls inside the replayed sweeps")
    return failed


def llc_mib():
    """Largest cache size lscpu reports, in MiB (0 when unknown)."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return 0
    best = 0.0
    for m in re.finditer(r"^L\d\S* cache:\s+([\d.]+)\s*([KMG])i?B", text, re.M):
        size = float(m.group(1)) * {"K": 1 / 1024, "M": 1, "G": 1024}[m.group(2)]
        best = max(best, size)
    return best


def triad(threads):
    llc = llc_mib()
    array_mib = max(256, int(4 * llc))  # >= 4x the last-level cache
    res = run_checked([binary("perfbench_triad"), "--threads", str(threads),
                       "--array-mib", str(array_mib)])
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    log(f"triad: {rec['triad_gbps']:.2f} GB/s at {threads} thread(s), "
        f"3 arrays of {array_mib} MiB each (lscpu LLC {llc:g} MiB)")
    return rec["triad_gbps"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    build()
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S
    tensor, ref = prepare_inputs(args.workload, w, args.seed)
    ref_dir = tensor.parent
    log(f"{args.workload} seed {args.seed}: input {tensor.stat().st_size} B, "
        f"reference fit {ref['fit']}")

    plain, traced, failures = [], [], []
    attempted = 0
    start = time.monotonic()
    rep_walls = []
    # Untraced repetitions only with --trace 0; with --trace 1 they alternate
    # with traced ones (the untraced ones are the overhead/coverage base).
    # A repetition starts only if it should end within --seconds.
    while attempted < MIN_REPS or (time.monotonic() - start +
                                   statistics.median(rep_walls) <= args.seconds):
        do_trace = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        rep_start = time.monotonic()
        try:
            rec, model = measured_run(args.workload, w, tensor, do_trace,
                                      args.seed)
            bad = gate(w, rec, model, ref_dir, ref)
        except (subprocess.SubprocessError, ValueError, KeyError,
                IndexError) as e:
            rec, bad = None, [f"run error: {e}"]
        rep_walls.append(time.monotonic() - rep_start)
        if bad:
            failures.append(bad)
            log(f"rep {attempted}: FAILED {'; '.join(bad)}")
            continue
        (traced if do_trace else plain).append(rec)
        log(f"rep {attempted}{' (traced)' if do_trace else ''}: "
            f"total {rec['total_s']:.3f}s setup {rec['setup_s']:.3f}s "
            f"iter {rec['als_iter_s'] * 1e3:.2f}ms fit {rec['fit']:.6f} "
            f"rss {rec['peak_rss_mb']:.1f}MiB")

    metrics = {}
    if args.trace == 0 and plain:
        for key, unit, stat in END_TO_END:
            metrics[key] = metric(stat(r[key] for r in plain), unit)
    elif args.trace == 1 and plain and traced:
        for key in EXACT:
            if len({r[key] for r in traced}) != 1:
                failures.append([f"count {key} differs between traced reps"])
                log(f"FAILED: count {key} differs between traced reps")
        for key, unit in TRACED:
            value = traced[0][key] if key in EXACT else \
                statistics.median(r[key] for r in traced)
            metrics[key] = metric(value, unit)
        base_iter = min(r["als_iter_s"] for r in plain)
        metrics["replay.coverage"] = metric(
            statistics.median(r["replay.sweep_s"] for r in traced) / base_iter,
            "ratio")
        metrics["trace.overhead_frac"] = metric(
            min(r["total_s"] for r in traced) /
            min(r["total_s"] for r in plain) - 1, "fraction")
        gbps = triad(w["threads"])
        metrics["machine.triad_gbps"] = metric(gbps, "GB/s")
        metrics["mttkrp.roofline_frac"] = metric(
            metrics["mttkrp.gbps_computed"]["value"] / gbps, "fraction")
        log("sync per mode: " + traced[0]["mttkrp.sync"] +
            f"; kernel width {traced[0]['mttkrp.kernel_width']}")
    else:
        failures.append(["no successful repetition of the needed kind"])

    for key, m in metrics.items():
        log(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    failed = min(attempted, len(failures))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
