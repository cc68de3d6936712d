#!/usr/bin/env python3
"""Canon benchmark: build the program from source, then run one workload.

    python3 canonbench/run.py --workload model-serial|figures-cold|service-mixed
                              --seed N --seconds S --trace 0|1
    python3 canonbench/run.py --selftest    # the benchmark's own unit tests

Run from the root of a checkout. The program is built with its own
CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build), then the
benchmark program in canonbench/ is built against it. It prints a
human-readable report and, as the last line, one JSON object. See
canonbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("model-serial", "figures-cold", "service-mixed")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("canonbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build step failed: " + " ".join(cmd))


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources next to canonbench/ (expected "
             "CMakeLists.txt and src/ at %s)" % ROOT, 2)
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    prog = os.path.join(out, "canon")
    bench = os.path.join(out, "canonbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(prog, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", prog,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", prog, "-j", jobs, "--target",
                "canond", "canon_benchutil"], log)
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCANON_ROOT=" + ROOT, "-DCANON_BUILD=" + prog], log)
    run_logged(["cmake", "--build", bench, "-j", jobs], log)
    return prog, bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                          or os.path.join(ROOT, ".bench_build"))
    prog, bench = build(out)
    if args.selftest:
        sys.exit(subprocess.call([os.path.join(bench, "canonbench_test")]))

    cmd = [os.path.join(bench, "canonbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", os.path.join(out, "work", args.workload),
           "--canond", os.path.join(prog, "canond")]
    # Own process group, so a timeout also stops the canond child.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
