#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_asg --seed 1 --seconds 50 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), a
Release build of perfbench/CMakeLists.txt, which compiles the library from
src/. Each run gets a fresh work directory under the build root, removed
afterwards; a traced run keeps its spans in <build root>/traces/. The last
line of stdout is the JSON result; the exit code is non-zero when the build
fails, the program fails, or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_asg", "live")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "rp_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="D1 preset and a short series (smoke tests)")
    parser.add_argument("--corrupt", default=None,
                        help="corrupt one output on purpose (check tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_root, "perfbench"))

    work_dir = os.path.join(
        build_root, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--trace={args.trace}",
               f"--work-dir={work_dir}"]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append(f"--corrupt={args.corrupt}")
    # Thread counts are pinned by the workload itself; the library's
    # environment overrides must not leak in.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RP_THREADS", "RP_RUNS")}
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S}s")
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.exists(spans):
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        print(f"perfbench/run.py: workload exited with {done.returncode}",
              file=sys.stderr)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
