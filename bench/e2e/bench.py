#!/usr/bin/env python3
"""Entry point of the repository benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 bench/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_e2e from this checkout's sources into .bench_build/e2e (the
first call configures and builds; later calls are incremental), runs one
workload, checks that the printed metrics are exactly the ones
BENCHMARK.json declares, and passes the result through: the last line
of standard output is the JSON result object. Every file it writes is
under .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "e2e")
RUN_DIR = os.path.join(".bench_build", "e2e-run")


def fail(message):
    print("bench.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root (src/ not found)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join("bench", "e2e"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--tmp", os.path.join(RUN_DIR, "tmp")]
    if args.trace:
        command += ["--trace", os.path.join(
            RUN_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("bench_e2e printed no result (exit code %d)" % proc.returncode)

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
