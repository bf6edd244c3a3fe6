#!/usr/bin/env python3
"""Builds bench_pipeline from this checkout and runs one workload.

    python3 bench_pipeline/run.py --workload advise_cold --seed 1 \
        --seconds 25 --trace 0

Build output goes to .bench_build/ at the checkout root, as do snapshot
scratch files and, with --trace 1, the Chrome trace of the run
(.bench_build/traces/<workload>-s<seed>.json). The benchmark's last
line of standard output is its JSON result; the exit status is the
benchmark's (non-zero when the build fails or a check fails).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "bench_pipeline")
BINARY = os.path.join(BUILD_DIR, "bench_pipeline")
# One run measures --seconds plus set-up; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no source tree at %s" % ROOT, file=sys.stderr)
        return False
    steps = [["cmake", "--build", BUILD_DIR, "--target", "bench_pipeline",
              "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--workdir", os.path.join(BUILD_ROOT, "work")]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace", os.path.join(
            traces, "%s-s%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
