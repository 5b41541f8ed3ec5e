#!/usr/bin/env python3
"""Builds and runs the repository benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Builds this directory's Cargo package in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory) and
runs it with the given arguments. With --trace 1 the spans are written to
perfbench/out/. The last line of standard output is the result object.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """The value after `name` in `args`, or None."""
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if flag(args, "--trace") == "1" and flag(args, "--spans") is None:
        name = "spans-{}-seed{}.jsonl".format(flag(args, "--workload"), flag(args, "--seed") or 1)
        args += ["--spans", os.path.join(HERE, "out", name)]
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", "perfbench")] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
