#!/usr/bin/env python3
"""Builds priod_server and the load generator from this checkout, then runs
one workload of the benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload miss-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Build outputs and traces go under
.bench_build/ (or $CARGO_TARGET_DIR). The last line of stdout is the JSON
result; the exit status is nonzero when the build fails, a reply differs
from its reference, or the run does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; the benchmark builds "
                 "priod_server from the repository's sources")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the input self-checks instead")
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if not args.selftest and args.workload not in config["workloads"]:
        parser.error("--workload must be one of " +
                     ", ".join(config["workloads"]))

    out_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    build(build_dir)
    loadgen = os.path.join(build_dir, "perfbench_loadgen")
    if args.selftest:
        sys.exit(subprocess.run([loadgen, "--selftest", "1"],
                                timeout=RUN_TIMEOUT_S).returncode)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    wl = config["workloads"][args.workload]
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "priod_server"),
           "--out-dir", trace_dir]
    for arg in config["server_args"]:
        cmd += ["--server-arg", arg]
    for key in ("rate", "limit_ms"):
        if key in wl:
            cmd += ["--" + key.replace("_", "-"), str(wl[key])]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
