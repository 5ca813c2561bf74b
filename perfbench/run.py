#!/usr/bin/env python3
"""Builds the Faro control-loop benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper10-sim, fleet1k-sharded, classed-sim, live-chaos.

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR, or .bench_build at the repository root when
that is unset. A traced run (--trace 1) also writes its spans to
<target>/perfbench-spans/<workload>-seed<n>.tsv.

The benchmark's own output passes through unchanged: human-readable
lines, then one JSON line. The exit code is the benchmark's; a failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def flag(args, name):
    """The value following `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    command = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        name = "%s-seed%s.tsv" % (flag(args, "--workload"), flag(args, "--seed"))
        command += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
