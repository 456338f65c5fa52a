#!/usr/bin/env python3
"""Build and run the BMX benchmark (perfbench/bmxbench.ml).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the benchmark executable with dune (the first build
compiles the libraries under lib/ from source), then runs it with the
same arguments.  Build output goes to standard error; the benchmark's
standard output (summary lines, then one JSON result line) and its exit
code are passed through unchanged.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/bmxbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bmxbench.exe")


def main():
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        sys.stderr.write("run.py: cannot run dune: %s\n" % e)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("run.py: build failed\n")
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
