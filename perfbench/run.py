#!/usr/bin/env python3
"""Builds and runs the benchtemp end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call in a checkout configures and builds the library and the
driver into .bench_build/ (later calls rebuild incrementally). With
--trace 0 the driver's result JSON is passed through. With --trace 1 an
untraced one-job run of the same seed comes first: its job time is the
base of obs.trace_overhead and its result digest must match the traced
job's. The last stdout line is always the result JSON; build output and
diagnostics go to stderr.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: the benchmark "
             "builds the library from the repo checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("cmake configure failed", 2)
        cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("build failed", 2)


def run_driver(args, started):
    """Runs the driver; returns (stdout lines, parsed result JSON)."""
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        fail("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("driver exited with %d" % proc.returncode, proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("driver printed no result JSON")
    return lines, result


def digests(lines):
    return [word.split("=", 1)[1] for line in lines for word in line.split()
            if word.startswith("result_digest=")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    started = time.monotonic()

    if opts.selftest:
        build("perfbench_selftest")
        sys.exit(subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                                 cwd=ROOT))
    if not opts.workload:
        fail("--workload is required", 2)
    build("perfbench")
    # The build is not part of the run's time budget.
    started = time.monotonic()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    if opts.trace == 0:
        lines, result = run_driver(
            common + ["--seconds", str(opts.seconds), "--trace", "0"],
            started)
        print("\n".join(lines))
        return

    base_lines, base = run_driver(
        common + ["--seconds", "0", "--trace", "0", "--jobs", "1"], started)
    base_digest = digests(base_lines)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    traced_args = common + [
        "--seconds", str(opts.seconds), "--trace", "1",
        "--untraced-job-s", repr(base["metrics"]["job_s"]["value"]),
        "--trace-dir", trace_dir]
    if base_digest:
        traced_args += ["--expect-digest", base_digest[0]]
    lines, traced = run_driver(traced_args, started)
    print("\n".join(base_lines[:-1] + lines[:-1]))
    print(json.dumps({
        "correct": bool(base["correct"] and traced["correct"]),
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "metrics": traced["metrics"],
    }))


if __name__ == "__main__":
    main()
