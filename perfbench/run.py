#!/usr/bin/env python3
"""Builds perfbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload measure_loop --seed 1 --seconds 10 \
        --trace 0

Workloads: measure_loop, slot_rush, city_campaign (see perfbench/README.md).
The program is configured and built (Release, with CMake) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, on first use. The
run prints its build stamp, every output check, every metric with its
unit and sample count, and — as the last line of standard output — one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced mode. The exit code is 0 when every check
passed, 1 when one failed (the result line is still printed), and 2 or 3,
with no result line, when the program cannot be built or run or its build
is not an optimised, unsanitized one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("measure_loop", "slot_rush", "city_campaign")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

BENCH = {}  # BENCHMARK.json, loaded by main()

# The names the workload-specific end-to-end figures go by, printed next to
# the generic metric they are.
ALIASES = {
    "measure_loop": {"ops_per_s": "measure_per_s",
                     "op_p50_ms": "measure_p50_ms",
                     "op_tail_ms": "measure_tail_ms"},
    "slot_rush": {"ops_per_s": "rush_tx_per_s"},
    "city_campaign": {"ops_per_s": "campaign_probes_per_s"},
}


def die(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (first time) and builds perfbench; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(2, "build step %s failed: %s" % (step[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(2, "build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def source_stamp():
    """Git revision when the tree is a git checkout, else 'none', plus a
    digest of every source file the benchmark builds from."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def fmt(value):
    return "%.6g" % value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Knobs for the smoke test's tiny runs and its workers=1 replay; the
    # benchmark itself runs with the defaults.
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--workers", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die(2, "--seed must be >= 0 and --seconds > 0")

    global BENCH
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        BENCH = json.load(f)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(2, "no Debuglet sources next to perfbench/ (expected %s)"
            % os.path.join(ROOT, "src"))

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(base, "perfbench-release"))

    out_dir = os.path.join(base, "perfbench-runs")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--max-ops", str(args.max_ops), "--workers", str(args.workers)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, tag + ".spans.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(2, "run failed: %s" % e)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(2, "perfbench exited %d without a report" % proc.returncode)
    if proc.returncode not in (0, 1):
        die(2, "perfbench exited %d" % proc.returncode)

    rev, digest = source_stamp()
    stamp = report["stamp"]
    report["stamp"].update({"git_rev": rev, "source_digest": digest})
    report_path = os.path.join(out_dir, tag + ".report.json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    print("perfbench %s seed=%d seconds=%s trace=%d" % (
        args.workload, args.seed, fmt(args.seconds), args.trace))
    print("stamp: rev=%s source=%s nproc=%d build=%s sanitizer=%s "
          "optimized=%s" % (rev, digest, stamp["nproc"], stamp["build_type"],
                            stamp["sanitizer"] or "none",
                            stamp["optimized"]))
    if not stamp["reportable"]:
        die(3, "refusing to report timings from a %s build%s" % (
            stamp["build_type"],
            " with sanitizer " + stamp["sanitizer"]
            if stamp["sanitizer"] else ""))
    for key, value in sorted(report["facts"].items()):
        print("fact: %s = %s" % (key, value))
    for check in report["checks"]:
        print("check: [%s] %s" % ("PASS" if check["ok"] else "FAIL",
                                  check["name"]))

    # The result line carries exactly the metrics BENCHMARK.json names for
    # the mode. A layer the workload does not exercise reads 0 with 0
    # samples; an end-to-end metric the program did not report is an error.
    measured = {m["name"]: m for m in
                (report["per_layer"] if args.trace else report["end_to_end"])}
    metrics = []
    for spec in BENCH["per_layer" if args.trace else "end_to_end"]:
        m = measured.pop(spec["name"], None)
        if m is None and not args.trace:
            die(2, "perfbench did not report %s" % spec["name"])
        metrics.append(m or {"name": spec["name"], "value": 0.0,
                             "unit": spec["unit"], "samples": 0,
                             "note": "layer not exercised by this workload"})
    aliases = {} if args.trace else ALIASES[args.workload]
    for m in metrics + list(measured.values()):
        alias = aliases.get(m["name"])
        print("%s: %s = %s %s (n=%d%s)%s" % (
            "metric" if m in metrics else "extra", m["name"],
            fmt(m["value"]), m["unit"], m["samples"],
            "; " + m["note"] if m["note"] else "",
            "  [%s]" % alias if alias else ""))
    print("attempted %d, failed %d; full report: %s" % (
        report["attempted"], report["failed"], report_path))

    correct = (proc.returncode == 0 and report["failed"] == 0
               and all(c["ok"] for c in report["checks"]))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
