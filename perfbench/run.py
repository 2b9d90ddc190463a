#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `perfbench` in release mode
(into `CARGO_TARGET_DIR`, or `perfbench/target` when that is unset),
synthesises the serve-budget input file once, then runs the workload. The
benchmark's JSON result is the last line of standard output; build output goes
to standard error. The exit code is the benchmark's, or 1 when the build or
the set-up fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
DATA_DIR = os.path.join(HERE, "data")
TRACE_DIR = os.path.join(HERE, "traces")
# The first build of a checkout compiles the whole workspace; a run itself
# ends within a few passes of `--seconds`.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    # Every learner is serial; a shell that exports the worker count must
    # not turn a measured run threaded.
    env.pop("DMT_PARALLELISM", None)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    steps = [
        [exe, "prepare", "--data-dir", DATA_DIR],
        [exe, "run", *sys.argv[1:], "--data-dir", DATA_DIR, "--trace-dir", TRACE_DIR],
    ]
    code = 0
    for argv in steps:
        try:
            code = subprocess.run(argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {argv[1]} failed: {e}", file=sys.stderr)
            return 1
        if code != 0:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
