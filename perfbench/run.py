#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5-precon --seed 1 --seconds 20 --trace 0

The script builds the Go benchmark in perfbench/ (a module of its own that
replaces `tracepre` with the checkout) into .bench_build/, with the Go
build cache kept there as well, and then replaces itself with the built
binary, passing every argument through. The last line the binary prints
on standard output is the JSON result. A build failure exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "go-cache"),
        GOTMPDIR=os.path.join(out, "go-tmp"),
        GOPATH=os.path.join(out, "go-path"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    for d in ("go-cache", "go-tmp", "go-path", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    env["PERFBENCH_OUT"] = out
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
