#!/usr/bin/env python3
"""Build the flashsim benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fft16-w2 --seed 1 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates by path, offline, in release mode. Build
output goes to stderr so that the benchmark's last stdout line is its
JSON result. Any build or run failure exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.path.dirname(HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(os.path.join(root, target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=root, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "flashsim-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
