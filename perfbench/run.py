#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload topk-uniform --seed 1 --seconds 12 --trace 0

Builds perfbench (a Go module inside the repository's `tpa` module tree, so
it can import tpa/internal/...) from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) and then replaces itself with the
built program, which prints the result JSON as its last line of output.
Every file the build and the run write stays under the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(built.returncode or 1)
    os.execve(binary, [binary] + sys.argv[1:] + ["--out", out], env)


if __name__ == "__main__":
    main()
