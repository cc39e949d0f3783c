#!/usr/bin/env python3
"""Build and run the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload block-hot --seed 1 --seconds 20 --trace 0

The Go program is built from this checkout with every Go cache, the
binary, the stores' data directories and trace dumps under
<checkout>/.bench_build. The program's standard output passes through:
its last line is the result object.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOENV="off",
        GOTELEMETRY="off",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    data = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-data", data,
    ]
    if args.trace:
        cmd += ["-trace-out", os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
