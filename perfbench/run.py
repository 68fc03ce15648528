#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload dense-20k --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`). Inputs are generated from the
seed into `.bench_work/<run>/` by a separate process, so their generation
neither counts in any time nor in the measured process's peak memory, and
are deleted afterwards. Traced runs also write a chrome-trace file to
`.bench_work/traces/`. The last line of standard output is the result
JSON object.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense-20k", "dense-400k", "sparse-onehot")
BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 120
RUN_SLACK_S = 100


def run_group(cmd, timeout):
    """Runs `cmd` in its own process group, so that on a timeout the passes
    it started are killed with it, and waits for all of them."""
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed (run from the repository root)")
    binary = os.path.join(target, "release", "harp-perfbench")

    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        subprocess.run(
            [binary, "gen", *common], stdout=sys.stderr, check=True, timeout=GEN_TIMEOUT_S
        )
        cmd = [binary, "run", *common, "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(work_root, "traces")
            os.makedirs(traces, exist_ok=True)
            name = f"{args.workload}-seed{args.seed}.trace.json"
            cmd += ["--trace-out", os.path.join(traces, name)]
        code = run_group(cmd, args.seconds + RUN_SLACK_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
