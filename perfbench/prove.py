#!/usr/bin/env python3
"""Prove the benchmark steady: run each workload with several seeds and
check every end-to-end metric's run-to-run spread against its bound.

    python3 perfbench/prove.py --seeds 10
    python3 perfbench/prove.py --workloads serve_mix --seeds 5 --first-seed 11
    python3 perfbench/prove.py --seeds 10 --compare .bench_build/perfbench/prove-A.json

The spread is (q3 - q1) / median over the runs (stats.spread). A metric
passes when its spread is within its bound, except setup_s, which is held
only to the median comparison. The target for a steady benchmark is a
spread below a third of the bound. With --compare, the medians are also
checked against an earlier proof: none may be worse by more than its bound.
Each proof is saved under .bench_build/perfbench/.
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
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=200)
    wall = time.monotonic() - t0
    if done.returncode != 0:
        raise SystemExit("%s seed %d: exit code %d" % (workload, seed,
                                                       done.returncode))
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    return result, wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    proof = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(bench, workload, seed)
            walls.append(wall)
            if not result["correct"]:
                print("%s seed %d: outputs incorrect" % (workload, seed))
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print("%s seed %d: %.1f s wall, %d attempted, %d failed"
                  % (workload, seed, wall, result["attempted"], result["failed"]),
                  flush=True)
        proof[workload] = values
        print("\n%s  (mean wall %.1f s per run)" % (workload, sum(walls) / len(walls)))
        print("%-22s %12s %8s %8s %8s  %s" % ("metric", "median", "spread",
                                              "bound", "drift", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            v = values[name]
            s, within, steady = stats.check_spread(v, bound)
            drift = ""
            verdict = "steady" if steady else ("within" if within else "TOO WIDE")
            if name == "setup_s":
                verdict = "(median only)"
            elif not within:
                ok = False
            if earlier and workload in earlier:
                d = stats.worse_by(stats.median(earlier[workload][name]),
                                   stats.median(v), m["better"])
                drift = "%+.3f" % d
                if d > bound:
                    verdict += " MEDIAN WORSE"
                    ok = False
            print("%-22s %12.6g %8.3f %8.3f %8s  %s" % (name, stats.median(v), s,
                                                       bound, drift, verdict))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "prove-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(proof, f)
    print("\nsaved %s; %s" % (path, "all spreads within bounds" if ok
                             else "SOME CHECKS FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
