#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload upc_read --seed 1 --seconds 10 --trace 0

The benchmark binary is configured and built with CMake under the directory
named by CARGO_TARGET_DIR (default ``.bench_build``), resolved against the
repository root. Build output goes to stderr; the binary's own stdout is
relayed unchanged, so its last line is the JSON result. The exit code is
the binary's (non-zero on any wrong result, a traced run that differs
from the untraced one, or a dropped trace span), or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("upc_read", "tc_scan", "upc_rw_skew")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    """Configure (once) and build the binary; return its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "pulse_perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "pulse_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (ROOT / target / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
