#!/usr/bin/env python3
"""Builds and runs the netsubspec benchmark.

    python3 nsbench/run.py --workload <paper-cold|family-scale|serve-warm>
                           --seed N --seconds S --trace <0|1>
    python3 nsbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark program and the `netsubspec` binary from the repository's sources into
$CARGO_TARGET_DIR (default `.bench_build`); later calls only re-check the
build. Build output goes to stderr; the result JSON is the last
line of stdout. Traces of `--trace 1` runs land in `.bench_out/`.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "nsbench", "netsubspec"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("nsbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    build(build_dir)
    program = os.path.join(build_dir, "nsbench")
    if args.self_test:
        command = [program, "--self-test"]
    else:
        out_dir = os.path.abspath(".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command = [program, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace,
                   "--netsubspec", os.path.join(build_dir, "netsubspec"),
                   "--out-dir", out_dir]
    sys.stdout.flush()
    # nsbench starts `netsubspec serve`; it runs in its own process
    # group so that whatever it leaves behind is stopped with it.
    bench_proc = subprocess.Popen(command, start_new_session=True)

    def stop_group():
        try:
            os.killpg(bench_proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        for _ in range(100):  # wait (up to 5 s) until every member ended
            time.sleep(0.05)
            try:
                os.killpg(bench_proc.pid, 0)
            except ProcessLookupError:
                return

    def on_signal(signum, frame):
        stop_group()
        bench_proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    code = bench_proc.wait()
    stop_group()
    return code

if __name__ == "__main__":
    sys.exit(main())
