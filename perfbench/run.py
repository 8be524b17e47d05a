#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload stamp-htm --seed 1 --seconds 15 \
        --trace 0

The driver and the ufotm library it links are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), so every
file the run writes stays inside the checkout.  Build output goes to
stderr; the driver's stdout is passed through, and its last line is the
result object.  Exits non-zero, printing no result, when the sources
are missing, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build; incremental when nothing changed."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"ufotm sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    exe = build_dir / "perfbench"
    if not exe.is_file():
        fail(f"no driver binary at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    exe = build(target / "perfbench")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = target / "perfbench" / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("driver printed no result line")
    print(proc.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
