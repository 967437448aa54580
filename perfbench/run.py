#!/usr/bin/env python3
"""Replay benchmark entry point (see README.md in this directory).

Builds the replay binary against the repository's sources into .bench_build/
at the repository root, then runs one workload:

    python3 perfbench/run.py --workload agg_hash --seed 20080609 \
        --seconds 50 --trace 0

The binary's report goes to stdout and its last line is the JSON result.
Build output goes to stderr. The exit code is the binary's: 0 when every
output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
# Set-up, the warm-up and anchor replays and the checks come on top of
# --seconds (about 10 s at 50 s runs).
RUN_SLACK_S = 120


def build():
    """Configures and brings the binary up to date (a no-op when it is)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "replay_bench", "-j", jobs],
    ]
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "replay_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20080609)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, f"spans-{args.workload}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: replay timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
