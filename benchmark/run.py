#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 benchmark/run.py --workload wire_paced|wire_closed|sim_fuzz \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the co_bench driver (optimized) into .bench_build/; later calls
only re-check the build. Build output goes to stderr, so the last line of
stdout is the result JSON (see benchmark/NOTES.md). The result's metric
names are checked against BENCHMARK.json before it is printed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "co_bench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "co_bench", "-j", "4"]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_timeout_s(argv):
    """A run takes --seconds plus set-up, drain and probes; allow 3x + 60 s."""
    try:
        seconds = int(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 10  # co_bench's default; it rejects a malformed value itself
    return 3 * seconds + 60


def main(argv):
    build()
    timeout = run_timeout_s(argv)
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: co_bench did not finish in %d s" % timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(done.returncode)

    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    # co_bench validated the flags; --trace defaults to 0.
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
