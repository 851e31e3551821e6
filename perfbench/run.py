#!/usr/bin/env python3
"""Build the opdw benchmark from source and run one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compile|report|elastic \
        --seed N --seconds S --trace 0|1

The benchmark executable is built with dune into the checkout's _build
directory; build output goes to stderr. The executable runs in its own
process (one process per workload run) and its standard output is passed
through: its last line is the JSON result. See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "pdwbench.exe")
WORKLOADS = ("compile", "report", "elastic")
# a run must end within 180 s; leave room for the build check and exit
RUN_TIMEOUT_S = 170


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no opdw source tree here (dune-project and lib/ are "
              "needed to build the benchmark)", file=sys.stderr)
        return 2

    # dune comes from the OCaml toolchain; without it on PATH, ask opam
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release",
                "--display", "quiet", "./perfbench/pdwbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(usable_cores()), "--commit", source_commit()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
