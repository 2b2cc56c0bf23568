#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks the run-to-run statistics in stats.py (medians, quartiles, the
spread used to prove the benchmark steady, the median comparison), then
builds the perfbench program and runs its --self-test: the same seed gives
the same input stream and another seed a different one, and the in-run
percentiles follow the tail rule (at least 10 samples beyond, count
printed).
"""

import statistics
import subprocess
import sys

import run
import stats

failures = 0


def check(ok, what):
    global failures
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures += 1


def close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_stats():
    ten = [float(v) for v in range(1, 11)]
    check(stats.median(ten) == 5.5 and stats.median([3.0, 1.0, 2.0]) == 2.0,
          "median of even and odd counts")
    q1, q2, q3 = stats.quartiles(ten)
    check((q1, q2, q3) == tuple(statistics.quantiles(ten, n=4)),
          "quartiles match statistics.quantiles(n=4): %g %g %g" % (q1, q2, q3))
    check(close(q1, 2.75) and close(q3, 8.25), "exclusive-method quartiles of 1..10")
    check(close(stats.spread(ten), (8.25 - 2.75) / 5.5), "spread = IQR / median")
    check(stats.spread([7.0] * 10) == 0.0, "constant values have no spread")
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    s, within, target = stats.check_spread(steady, 0.1)
    check(within and target, "a 1%% spread passes a 0.1 bound (spread %.4f)" % s)
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    s, within, _ = stats.check_spread(noisy, 0.1)
    check(not within, "a %.2f spread fails a 0.1 bound" % s)
    check(close(stats.worse_by(10.0, 11.0, "lower"), 0.1),
          "a 10% slower median is 0.1 worse (lower is better)")
    check(close(stats.worse_by(10.0, 9.0, "higher"), 0.1),
          "a 10% lower throughput is 0.1 worse (higher is better)")
    check(stats.worse_by(10.0, 9.0, "lower") < 0, "an improvement is negative")


def test_program():
    run.build()
    done = subprocess.run([run.BINARY, "--self-test"])
    check(done.returncode == 0, "perfbench --self-test")


if __name__ == "__main__":
    test_stats()
    test_program()
    print("%d failure(s)" % failures)
    sys.exit(1 if failures else 0)
