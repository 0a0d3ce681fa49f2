#!/usr/bin/env python3
"""Build the auditherm benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 20 --trace 0

The harness in this directory is its own Go module that replaces
`auditherm` with the checkout root, so it builds from the repository's
sources. Build outputs, Go caches and the harness's stores and traces all
live under .bench_build/ in the checkout. The last line of standard
output is the harness's JSON result, checked here against the metric
names BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOMODCACHE=os.path.join(BUILD, "go-path", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if proc.returncode != 0:
        fail("build failed (exit %d)" % proc.returncode)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"] for m in bench[key]}


def main(argv):
    trace = "0"
    if "--trace" in argv and argv.index("--trace") + 1 < len(argv):
        trace = argv[argv.index("--trace") + 1]
    build()
    try:
        proc = subprocess.run(
            [BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("harness exited %d" % proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("no JSON result on the last line")
    want = declared_metrics(trace)
    got = set(result.get("metrics", {}))
    if got != want:
        fail("metrics %s differ from BENCHMARK.json %s" % (sorted(got ^ want), sorted(want)))
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])
