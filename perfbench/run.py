#!/usr/bin/env python3
"""Runs one workload of the hsrtcp end-to-end benchmark.

    python3 perfbench/run.py --workload campaign|reanalyze|bottleneck \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test    # build and run the benchmark's own tests

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
hsrtcp libraries from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload with a scratch
directory under .bench_work/ that is removed afterwards. A traced run also
writes its spans to .bench_out/ as Chrome trace-event JSON. The last line of
standard output is the JSON result. The exit status is non-zero when the
build or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "reanalyze", "bottleneck")
# A run must finish within 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170


def build(target):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return build_dir


def run_tests():
    build_dir = build("perfbench_tests")
    if build_dir is None:
        return 1
    return subprocess.run([os.path.join(build_dir, "perfbench_tests")], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload is required; --seed must be >= 0 and --seconds > 0")

    build_dir = build("hsrbench")
    if build_dir is None:
        return 1
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [os.path.join(build_dir, "hsrbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    os.makedirs(work_dir, exist_ok=True)
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
