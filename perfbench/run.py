#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 5 --trace 0

It builds the perfbench program and the library beneath it from source
into .bench_build/perfbench (first run only), runs the workload, checks the
registry-case outputs against perfbench/reference.json, prints one line
per metric, and prints the result object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the same seed
twice, untraced and then traced, each with half of --seconds; the traced
process also runs the serial field suite. It reports the per-layer
metrics plus trace.overhead_share (how much slower the traced run's
end-to-end figures are); its spans go to .bench_build/perfbench/traces/.
--threads T sets the stagnation pass's width (default: all CPUs; more
than nproc is refused).
"""

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("serve_mix", "stag_batch")
DEADLINE_S = 170  # for all the perfbench processes of one run


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "data/shuttle_stag_point.surrogate.bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_program(args, seconds, deadline, trace, trace_out=None):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data", os.path.join(ROOT, "data")]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % DEADLINE_S)
    if done.returncode != 0:
        fail("perfbench exited with code %d" % done.returncode)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def check_reference(record):
    """Compare every registry case's headline outputs with the stored
    reference; each mismatch is a failed, incorrect operation."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    rel_tol = ref["rel_tol"]
    problems = []
    for case, outputs in sorted(record["outputs"].items()):
        expected = ref["cases"].get(case)
        if expected is None:
            problems.append("%s: no reference outputs" % case)
            continue
        for name, want in expected.items():
            got = outputs.get(name)
            if got is None or abs(got - want) > rel_tol * max(abs(want), 1e-300):
                problems.append("%s.%s = %r, reference %r" % (case, name, got, want))
    return problems


def trace_overhead(untraced, traced):
    """Median relative slowdown of the traced run's timing figures."""
    shares = []
    for name, fig in untraced["metrics"].items():
        if name in ("setup_s", "peak_rss_mb") or name not in traced["metrics"]:
            continue
        a, b = fig["value"], traced["metrics"][name]["value"]
        shares.append(a / b - 1.0 if name == "serve.req_per_s" else b / a - 1.0)
    return stats.median(shares)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=0)
    args = p.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    seconds = args.seconds / 2 if args.trace else args.seconds
    record = run_program(args, seconds, deadline, trace=False)
    problems = check_reference(record)

    metrics = record["metrics"]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        out = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
        traced = run_program(args, seconds, deadline, trace=True, trace_out=out)
        problems += check_reference(traced)
        overhead = trace_overhead(record, traced)
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "1",
                                           "samples": len(record["metrics"]) - 2}
        record["correct"] = record["correct"] and traced["correct"]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["failures"] += traced["failures"]
        # The traced process runs every case the untraced one does, and
        # the field suite too.
        record["known_defects"] = traced["known_defects"]
        print("spans written to %s" % out)

    correct = record["correct"] and not problems
    failed = record["failed"] + len(problems)
    host = record["host"]
    print("workload %s  seed %d  inputs %s" % (args.workload, args.seed,
                                                 " ".join(record["inputs"])))
    print("host %s" % json.dumps(host, sort_keys=True))
    if not host["threaded_claims_valid"]:
        print("NOTE: fewer than 4 CPUs; this record does not count for "
              "threaded claims")
    for reason in record["failures"] + ["WRONG: " + p for p in problems]:
        print("failed: %s" % reason)
    for reason in record["known_defects"]:
        print("known defect (pinned by reference.json): %s" % reason)
    for name, fig in sorted(metrics.items()):
        print("%-44s %16.6g %-6s (%d samples)" % (name, fig["value"], fig["unit"],
                                                 fig["samples"]))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
