#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <study|serve_stream|serve_bulk> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `dox-serve` daemon from the repository's workspace and the
`perfbench` package next to this file, both in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then replaces itself with
the benchmark binary. Build output goes to standard error; the last line
of standard output is the benchmark's JSON record.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "dox-serve", "--bin", "dox-serve")
    build(os.path.join(HERE, "Cargo.toml"))
    exe = os.path.join(target, "release", "perfbench")
    serve = os.path.join(target, "release", "dox-serve")
    os.execv(exe, [exe, "--serve-bin", serve, *sys.argv[1:]])


if __name__ == "__main__":
    main()
