#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the library's current outputs.

    python3 perfbench/make_reference.py

Runs one traced perfbench process (which runs every registry case the
benchmark checks, the field suite included) and stores each case's
headline outputs as the new reference. Use it only when a change is
meant to move those outputs, and say so in the change's description;
run.py never writes the reference.
"""

import json
import os
import subprocess
import sys

import run


def main():
    run.build()
    cmd = [run.BINARY, "--workload", "stag_batch", "--seed", "1",
           "--seconds", "0", "--trace", "1", "--data",
           os.path.join(run.ROOT, "data")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE)
    if done.returncode != 0:
        sys.exit("perfbench exited with code %d" % done.returncode)
    record = json.loads(done.stdout.decode().strip().splitlines()[-1])
    with open(run.REFERENCE) as f:
        ref = json.load(f)
    ref["cases"] = record["outputs"]
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %d cases to %s" % (len(ref["cases"]), run.REFERENCE))


if __name__ == "__main__":
    main()
