#!/usr/bin/env python3
"""End-to-end benchmark of the HDMM library's request path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload taxi-cold --seed 1 --seconds 15 --trace 0

Builds the library from ./src together with the benchmark program (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
benchmark's unit checks, then runs the workload and prints, as the last line
of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). setup_s is measured from outside: the time from
spawning a fresh benchmark process until it reports ready to serve, taken as
the median over several processes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("taxi-cold", "sf1-release", "taxi-outofcore")
# setup_s is the median over this many fresh processes (the measured run
# included), so slow starts cannot move it. With 3, sf1-release's setup_s
# spread by 16% (quartile distance over median) across ten seeds.
SETUP_PROCESSES = 5
# Every benchmark process must finish well inside the run's time limit.
PROCESS_TIMEOUT_S = 150
# The library pool runs 2 threads; the benchmark process is pinned to the
# last 2 CPUs it may use, so they do not migrate. On a shared 4-core host
# this cut the spread of taxi-cold request medians across five seeds from
# 7.5% to 3.0% (quartile distance over median).
PINNED_CPUS = 2


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def keep_temp_files_inside():
    """Points TMPDIR (the compiler's scratch files) into the build tree."""
    tmp = os.path.join(os.path.dirname(build_dir()), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("library sources (src/) not found; run from a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", "4"]):
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    test = subprocess.run([os.path.join(out, "perfbench_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        fail("perfbench_test failed")
    return os.path.join(out, "hdmm_e2e")


def run_process(binary, args, workdir, setup_only):
    """Runs one benchmark process; returns (setup seconds, output lines).

    A watchdog kills the process if it outlives PROCESS_TIMEOUT_S; the
    process's work directory is removed afterwards either way.
    """
    cmd = [binary] + args + ["--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    cpus = sorted(os.sched_getaffinity(0))[-PINNED_CPUS:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        if not line.startswith("RESULT "):
            print("  " + line)
    if setup_s is None or (code != 0 and (setup_only or not any(
            l.startswith("RESULT ") for l in lines))):
        fail("benchmark process failed (exit %s): %s" % (code, " ".join(cmd)))
    return setup_s, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    keep_temp_files_inside()
    binary = build()
    work = os.path.join(os.path.dirname(build_dir()), "work")
    traces = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    def workdir(k):
        return os.path.join(work, "%s-%d-%d" % (args.workload, os.getpid(), k))

    setups = []
    if not args.trace:
        for k in range(SETUP_PROCESSES - 1):
            setups.append(run_process(binary, common, workdir(k), True)[0])
    trace_file = os.path.join(
        traces, "%s-seed%d.json" % (args.workload, args.seed))
    extra = ["--trace-out", trace_file] if args.trace else []
    setup_s, lines = run_process(binary, common + extra,
                                 workdir(SETUP_PROCESSES), False)
    setups.append(setup_s)

    results = [l for l in lines if l.startswith("RESULT ")]
    if len(results) != 1:
        fail("benchmark process printed no result")
    result = json.loads(results[0][len("RESULT "):])
    if not args.trace:
        print("  setup samples (s): " +
              ", ".join("%.4f" % s for s in setups))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    else:
        print("  trace written to " + os.path.relpath(trace_file, ROOT))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
