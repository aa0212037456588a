#!/usr/bin/env python3
"""Run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-15k|churn-epochs|serve-ingest \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build of a fresh checkout
compiles the whole library stack), then runs it as a fresh process.  The
last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  The exit code is the
executable's: 0 on success, 1 when the workload's correctness gate
fails, 2 on a usage error; a checkout without the sources exits 2
before building.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"run.py: {need} not found; run from the root of a full checkout",
                  file=sys.stderr)
            return 2
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
