#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload search_mix --seed 1 --seconds 26 --trace 0

Run from the repository root. Builds the uots libraries, uots_server and
the benchmark runner from source into $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, builds the served dataset snapshot once,
then starts the runner. Its last line of standard output is the
result object; this script forwards all output and the exit code.
Workloads, metrics and the frozen settings are described in
perfbench/README.md and BENCHMARK.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_mix", "hot_cache")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, env=None):
    """Runs a build step, sending its output to stderr."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, env=env)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no uots source tree next to perfbench/; nothing to measure")
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build = os.path.join(target, "perfbench")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)

    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", build,
                       "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        run_quiet(["cmake", "--build", build, "-j4", "--target",
                   "uots_perfbench", "uots_server"], timeout=800)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    runner = os.path.join(build, "uots_perfbench")
    server = os.path.join(build, "uots_server")
    snapshot = os.path.join(work, "brn15k-oracle.snap")
    env = dict(os.environ, UOTS_BENCH_CACHE_DIR=os.path.join(work, "cache"))
    if not os.path.isfile(snapshot):
        try:
            run_quiet([runner, "prepare", "--snapshot=" + snapshot],
                      timeout=300, env=env)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            log(f"dataset preparation failed: {e}")
            return 1

    cmd = [runner, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server=" + server,
           "--snapshot=" + snapshot, "--workdir=" + work]
    # Own process group, so whatever happens to the runner, the server
    # child goes down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
