#!/usr/bin/env python3
"""Build the benchmark in the release profile and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root.  Workloads: spanner-churn, sparsify1p,
forest-par, serve-zipf (see perfbench/README.md).  The build goes to
.bench_build/ with dune's shared cache off, so nothing is read from or
written outside the checkout.  The last line of standard output is the
result as one JSON object; build output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD = ".bench_build"
NEEDED = ["dune-project", "lib", "bin/dynospan.ml", "perfbench/dune"]
# The benchmark itself stops within this; the margin covers the build.
RUN_TIMEOUT_S = 170


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root (missing: %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    tool = dune()
    if tool is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        tool + ["build", "--profile", "release", "--build-dir", BUILD, "--cache=disabled",
                "perfbench/main.exe", "bin/dynospan.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(BUILD, "perfbench")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "default", "perfbench", "main.exe")] + sys.argv[1:] + [
        "--dynospan", os.path.join(BUILD, "default", "bin", "dynospan.exe"),
        "--scratch", scratch]
    # Own process group, so a timeout also takes down a server child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
