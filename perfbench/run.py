#!/usr/bin/env python3
"""Build the benchmark from source and run it, from the root of a checkout.

    python3 perfbench/run.py --workload zipf-miss --seed 1 --seconds 10 --trace 0

Arguments are passed through to perfbench/main.exe (see main.ml).  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  The exit code is the build's when the build
fails, else the benchmark's.
"""

import os
import shutil
import subprocess
import sys


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
