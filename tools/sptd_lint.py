#!/usr/bin/env python3
"""Repo-contract linter: greppable rules CI enforces on every commit.

The contracts in ROADMAP.md that can be stated as "this pattern must not
appear outside that directory" are checked here, so violating one fails
CI instead of waiting for a reviewer to remember it. The rules:

  omp-outside-parallel  omp_* runtime calls, `#pragma omp`, or direct
                        std::thread/std::jthread construction outside
                        src/parallel/. The parallel/ layer owns team
                        shape and schedule state; a stray
                        `#pragma omp parallel` elsewhere bypasses the
                        backend choice and the reset() contract, and a
                        hand-rolled std::thread elsewhere bypasses the
                        backend seam (parallel/backend.hpp) — the pool
                        backend's whole point is that library code
                        never spawns its own threads. `#pragma omp simd` is exempt:
                        it is a vectorization hint with no runtime
                        interaction. (Benches and tests may use raw
                        threads; the rule scans src/ only.)
  std-function-hot-path std::function in src/la/, src/mttkrp/, or
                        src/parallel/. A type-erased call in the kernel
                        hot path defeats inlining and allocates;
                        dispatch there is by template, function
                        pointer, or TeamBodyRef. No sanctioned use is
                        left in src/.
  omp-env-setenv        setenv/putenv of an OMP_* or GOMP_* variable
                        anywhere in src/. libgomp parses those variables
                        once, in its load-time constructor, so a write
                        from library code is silently inert (the wait
                        policy belongs in the launch environment).
  unaligned-value-array std::vector<val_t> / std::vector<float> in the
                        hot directories (src/csf, src/la, src/mttkrp,
                        src/parallel, src/completion). Value streams and
                        accumulators there must be aligned_vector<> so
                        rows start on the 64-byte line the SIMD kernels
                        and first-touch policy assume.
  resilience-protocol   calls to try_resume, fail_or_retry,
                        note_healthy, checkpoint_due, save_checkpoint,
                        seed_trend or perturb_factors in src/ outside
                        src/resilience/. The resume → guard → rollback
                        → checkpoint protocol lives once, in the
                        iteration core (resilience/iteration.hpp); a
                        driver that sequences these calls itself is a
                        copy of it that will drift.

A violation a human has judged acceptable is waived at the site with a
marker comment on the same line or the line above:

    // sptd-lint: allow(rule-id) <reason>

Usage:
    tools/sptd_lint.py [--root DIR]   lint the tree (exit 1 on findings)
    tools/sptd_lint.py --self-test    run against tools/lint_fixtures/
                                      and verify every rule both fires
                                      and honors its allow marker
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

HOT_DIRS = ("src/csf", "src/la", "src/mttkrp", "src/parallel",
            "src/completion")

ALLOW_RE = re.compile(r"sptd-lint:\s*allow\(([a-z0-9-]+)\)")


class Finding:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def iter_source_files(root, top):
    base = os.path.join(root, top)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(CXX_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root)


def read_lines(root, rel):
    with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
        return f.read().splitlines()


def allowed(rule, lines, idx):
    """True when line idx or the line above carries an allow marker."""
    for probe in (idx, idx - 1):
        if probe >= 0:
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def scan_pattern(root, rel, lines, rule, pattern, message, findings,
                 exempt=None):
    for idx, line in enumerate(lines):
        m = pattern.search(line)
        if not m:
            continue
        if exempt is not None and exempt.search(line):
            continue
        if allowed(rule, lines, idx):
            continue
        findings.append(Finding(rule, rel, idx + 1, message))


OMP_RE = re.compile(r"\bomp_[a-z_]+\s*\(|#\s*pragma\s+omp\b")
OMP_SIMD_RE = re.compile(r"#\s*pragma\s+omp\s+simd\b")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
# std::this_thread does not match: after "std::" the pattern requires
# "thread" or "jthread" immediately.
STD_THREAD_RE = re.compile(r"\bstd::j?thread\b")
UNALIGNED_RE = re.compile(r"\bstd::vector<\s*(val_t|float)\s*>")
OMP_ENV_RE = re.compile(r"\b(setenv|putenv)\s*\(.*\"G?OMP_")
PROTOCOL_RE = re.compile(
    r"\b(try_resume|fail_or_retry|note_healthy|checkpoint_due|"
    r"save_checkpoint|seed_trend|perturb_factors)\s*\(")


def in_dir(rel, top):
    return rel == top or rel.startswith(top.rstrip("/") + "/")


def lint(root):
    findings = []
    for rel in iter_source_files(root, "src"):
        lines = read_lines(root, rel)
        if not in_dir(rel, "src/parallel"):
            scan_pattern(
                root, rel, lines, "omp-outside-parallel", OMP_RE,
                "OpenMP runtime use outside src/parallel: route team "
                "shape and scheduling through the parallel/ layer",
                findings, exempt=OMP_SIMD_RE)
            scan_pattern(
                root, rel, lines, "omp-outside-parallel", STD_THREAD_RE,
                "raw std::thread outside src/parallel: spawn teams "
                "through parallel_region so the backend seam "
                "(parallel/backend.hpp) stays in charge",
                findings)
        if (in_dir(rel, "src/la") or in_dir(rel, "src/mttkrp")
                or in_dir(rel, "src/parallel")):
            scan_pattern(
                root, rel, lines, "std-function-hot-path",
                STD_FUNCTION_RE,
                "std::function in a kernel hot path: dispatch by "
                "template or function pointer",
                findings)
        scan_pattern(
            root, rel, lines, "omp-env-setenv", OMP_ENV_RE,
            "OMP_*/GOMP_* written from library code: libgomp reads "
            "them only when it loads, so set them in the launch "
            "environment",
            findings)
        if not in_dir(rel, "src/resilience"):
            scan_pattern(
                root, rel, lines, "resilience-protocol", PROTOCOL_RE,
                "resilience protocol call outside src/resilience: run "
                "the driver on the iteration core "
                "(resilience/iteration.hpp) instead of sequencing "
                "resume/rollback/checkpoint itself",
                findings)
        if any(in_dir(rel, d) for d in HOT_DIRS):
            scan_pattern(
                root, rel, lines, "unaligned-value-array", UNALIGNED_RE,
                "hot-path value array is std::vector: use "
                "aligned_vector<> so rows start on a cache line",
                findings)
    return findings


# --self-test: every (rule, relative-path) pair that MUST be reported
# when linting tools/lint_fixtures/, with the count of findings expected
# in that file. The fixtures also seed allow-marked and exempt sites
# (omp simd) that must NOT be reported; the
# exact-match check below catches both missed violations and false
# positives.
EXPECTED_FIXTURE_FINDINGS = {
    ("omp-outside-parallel", "src/la/fixture_hot_path.cpp"): 3,
    ("std-function-hot-path", "src/la/fixture_hot_path.cpp"): 1,
    ("std-function-hot-path", "src/parallel/fixture_context.cpp"): 1,
    ("omp-env-setenv", "src/parallel/fixture_runtime.cpp"): 2,
    ("unaligned-value-array", "src/csf/fixture_storage.cpp"): 2,
    ("resilience-protocol", "src/cpd/fixture_driver.cpp"): 3,
}


def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_root = os.path.join(here, "lint_fixtures")
    findings = lint(fixture_root)
    got = {}
    for f in findings:
        key = (f.rule, f.path.replace(os.sep, "/"))
        got[key] = got.get(key, 0) + 1
    ok = True
    for key, want in sorted(EXPECTED_FIXTURE_FINDINGS.items()):
        have = got.pop(key, 0)
        if have != want:
            ok = False
            print(f"self-test: {key[1]} [{key[0]}]: expected {want} "
                  f"finding(s), got {have}", file=sys.stderr)
    for key, have in sorted(got.items()):
        ok = False
        print(f"self-test: unexpected finding {key[1]} [{key[0]}] "
              f"x{have} (false positive or stale fixture)",
              file=sys.stderr)
    if ok:
        print(f"self-test: ok ({len(findings)} seeded violations "
              "reported, allow markers and exemptions honored)")
        return 0
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="tree to lint (default: the repo containing "
                         "this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint tools/lint_fixtures/ and verify the "
                         "seeded violations are found")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"sptd_lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("sptd_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
