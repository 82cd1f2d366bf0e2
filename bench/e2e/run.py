#!/usr/bin/env python3
"""Builds bench_e2e from the checkout it is run in and runs one workload.

Usage, from the root of the repository:

    python3 bench/e2e/run.py --workload mutex_hot --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and is
reused by later runs. Build output goes to stderr; the benchmark's own
output goes to stdout and ends with one JSON line. With --trace 1 the run
is the traced one: it prints the per-layer metrics and writes a Chrome
trace-event file next to the build. The exit code is the benchmark's.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mutex_hot", "mutex_light", "rw_phases", "barrier_phases")
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> Path:
    src = root / "bench" / "e2e"
    if not (root / "src").is_dir():
        sys.exit("run.py: no src/ directory here; run from the repository root")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(src), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "2"],
                   check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2e"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--trace={build_dir / (args.workload + '.trace.json')}")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
