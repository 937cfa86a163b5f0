#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results DIR] [--tiny]

NAME is one of the workloads, or "all" to run the three in turn. Run from
the root of a checkout. The build goes to .bench_build/perfbench
(Release), the detailed result file (metrics, workload detail, provenance,
failed checks) to DIR/NAME/seed<N>-trace<T>.json with DIR defaulting to
.bench_results; traced runs also write the spans next to it. The last line
on stdout is the run's JSON result; nothing is printed there when the build
or the run fails, and the exit code is then non-zero.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("openfoam-static", "lulesh-adapt", "fleet-stream")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns the binary's path or None."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=os.path.join(ROOT, ".bench_results"))
    parser.add_argument("--tiny", action="store_true", help="smoke size, not a measurement")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        return run_one(binary, args.workload, args)
    codes = [run_one(binary, workload, args) for workload in WORKLOADS]
    return max(codes)


def run_one(binary, workload, args):
    out_dir = os.path.join(args.results, workload)
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, "seed%d-trace%d.json" % (args.seed, args.trace))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--result", result]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: run failed with exit code %d\n" % done.returncode)
        return 1
    # Exit code 1 means a failed output check: the result line still shows it.
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
