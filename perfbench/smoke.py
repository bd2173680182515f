#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size.

    python3 perfbench/smoke.py

Runs each workload untraced and traced through run.py and asserts that
every metric BENCHMARK.json names is printed with a unit and that every
output check passes. In traced runs those checks include that spans nest
inside their parents and that the layer spans cover at least 90% of each
operation's wall time. It replays a slot_rush run at workers=1 and checks that the
final block root equals the multi-worker run's, and checks that run.py
fails without printing a result in a directory holding only the benchmark.
Exit code 0 = all assertions held.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Tiny sizes: a couple of operations each. city_campaign always runs its
# minimum of six sessions, which the 0.5-s limit does not extend.
TINY = {
    "measure_loop": ["--max-ops", "3"],
    "slot_rush": ["--max-ops", "3"],
    "city_campaign": [],
}

failures = []


def expect(ok, what):
    print("  [%s] %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace)] + TINY[workload] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def parse(proc):
    """The result line, the printed metric lines and the full report."""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    printed = {}
    report = {}
    for line in lines:
        if line.startswith("metric: "):
            name, rest = line[len("metric: "):].split(" = ", 1)
            printed[name] = rest.split(" ")[1] if " " in rest else ""
        if "full report: " in line:
            with open(line.split("full report: ", 1)[1]) as f:
                report = json.load(f)
    return result, printed, report


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]

    for workload in TINY:
        for trace, names in ((0, e2e), (1, layers)):
            print("%s, trace=%d" % (workload, trace))
            proc = run(workload, trace)
            result, printed, report = parse(proc)
            expect(proc.returncode == 0, "exit code 0 (got %d)"
                   % proc.returncode)
            expect(set(result) == RESULT_KEYS and result.get("correct")
                   is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   "result line: correct, nothing failed")
            metrics = result.get("metrics", {})
            missing = [n for n in names if n not in metrics
                       or not metrics[n].get("unit") or not printed.get(n)]
            expect(not missing and set(metrics) == set(names),
                   "every metric printed with a unit%s"
                   % (" (missing: %s)" % missing if missing else ""))
            failed_checks = [c["name"] for c in report.get("checks", [])
                             if not c["ok"]]
            expect(report.get("checks") and not failed_checks,
                   "%d output checks pass%s" % (
                       len(report.get("checks", [])),
                       " (failed: %s)" % failed_checks if failed_checks
                       else ""))
            if trace:
                # Span nesting and, on measure_loop, >= 90% layer coverage
                # are output checks of the traced run, asserted above.
                expect(any(c["name"].startswith("trace: every span nests")
                           for c in report.get("checks", [])),
                       "the traced run checks its spans")

    print("slot_rush replay at workers=1")
    roots = []
    for workers in ("1", "4"):
        # A generous time limit, so both runs stop at --max-ops batches.
        _, _, report = parse(run("slot_rush", 0, ["--workers", workers,
                                                  "--seconds", "600"]))
        facts = report.get("facts", {})
        roots.append((facts.get("final_block_root"),
                      facts.get("receipt_digest_hash")))
    expect(roots[0][0] and roots[0] == roots[1],
           "final block root and receipts equal at workers=1 and 4 (%s)"
           % roots[0][0])

    print("benchmark files alone, without the sources")
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("measure_loop", 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py exits %d without a result" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("\nsmoke: %s" % ("all assertions held" if not failures
                           else "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
