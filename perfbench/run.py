#!/usr/bin/env python3
"""Build and run the live benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/run_bench.exe with dune from the sources in this
checkout (nothing outside it is read or written: the dune cache is
off), then replaces itself with the driver, whose last stdout line is
the JSON result.  Build output goes to stderr.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "run_bench.exe")


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(
                "perfbench: %s not found under %s; the benchmark builds the "
                "program from this checkout's sources\n" % (need, ROOT))
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/run_bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
