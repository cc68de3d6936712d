#!/usr/bin/env python3
"""Steadiness report: run each workload under several seeds and report,
per metric, the median, the quartiles and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.

    python3 canonbench/steadiness.py [--runs 10] [--sets 2] [--first-seed 101]
        [--workloads model-serial,figures-cold,service-mixed]
        [--out canonbench/STEADINESS.md]

Quartiles are statistics.quantiles(values, n=4), as the acceptance rule
uses them. With --sets 2 every workload is measured twice (the second
set after the first has finished on every workload, with other seeds)
and the report adds how much the second median is worse than the first,
against the same bound. Besides the bounded end-to-end metrics, the
workload-specific figures each run prints by name (svc_hit_p50_ms,
model_pass_s, ...) are reported for the first set, without a bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMED = re.compile(r"^  (\S+) = (\S+) (\S+)(?:  \((.*)\))?$")
HIT_SHARE = re.compile(r"hit share ([0-9.]+)")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    named, notes = {}, []
    for line in lines[:-1]:
        m = NAMED.match(line)
        if m:
            named[m.group(1)] = (float(m.group(2)), m.group(3))
        elif line.startswith("# load generator"):
            notes.append(line[2:])
    return result, named, notes


def host():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d CPUs, %s" % (os.cpu_count() or 0, model)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def measure(workload, seeds, seconds):
    s = {"values": {}, "named": {}, "notes": [], "correct": True,
         "failed": 0, "attempted": 0}
    for seed in seeds:
        result, named, notes = run_once(workload, seed, seconds)
        s["correct"] &= result["correct"]
        s["failed"] += result["failed"]
        s["attempted"] += result["attempted"]
        for k, v in result["metrics"].items():
            s["values"].setdefault(k, []).append(v["value"])
        for k, v in named.items():
            s["named"].setdefault(k, []).append(v)
        s["notes"] += notes
        print("%s seed %d: %s" % (workload, seed, json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})),
            file=sys.stderr)
    return s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    sets = []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = range(first, first + args.runs)
        sets.append({w: measure(w, seeds, seconds) for w in workloads})

    report = ["# Steadiness report", "", "Host: %s." % host(), "",
              "%d run(s) per workload and set, %d set(s), seeds from %d, "
              "--seconds %d. Spread = (q3 - q1) / median. The acceptance "
              "rule wants every spread but setup_s within its bound and "
              "no second-set median worse than the first by more than "
              "the bound." % (args.runs, args.sets, args.first_seed,
                              seconds), ""]
    worst = 0.0
    for w in workloads:
        first = sets[0][w]
        report += ["## %s" % w, ""]
        for k, s in enumerate(sets):
            report.append("Set %d: correct in every run: %s; failed %d of "
                          "%d attempted." % (k + 1, s[w]["correct"],
                                             s[w]["failed"],
                                             s[w]["attempted"]))
        report += ["", "| metric | unit | bound | set | q1 | median | q3 "
                   "| spread | spread / bound | median change |",
                   "|---|---|---|---|---|---|---|---|---|---|"]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = None
            for k, s in enumerate(sets):
                q1, q2, q3, spread = summarize(s[w]["values"][name])
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                change = "" if base is None else "%+.3f" % (q2 / base - 1)
                base = q2 if base is None else base
                report.append("| %s | %s | %.2f | %d | %.6g | %.6g | %.6g "
                              "| %.4f | %.2f | %s |" %
                              (name, m["unit"], bound, k + 1, q1, q2, q3,
                               spread, spread / bound, change))
        report += ["", "Named figures, set 1 (not bounded):", "",
                   "| figure | unit | q1 | median | q3 | spread |",
                   "|---|---|---|---|---|---|"]
        for k, vs in first["named"].items():
            q1, q2, q3, spread = summarize([v for v, _ in vs])
            report.append("| %s | %s | %.6g | %.6g | %.6g | %.4f |" %
                          (k, vs[0][1], q1, q2, q3, spread))
        shares = [float(m.group(1)) for n in first["notes"]
                  for m in [HIT_SHARE.search(n)] if m]
        if shares:
            report += ["", "Measured hit share, set 1: median %.3f "
                       "(min %.3f, max %.3f)." %
                       (statistics.median(shares), min(shares), max(shares)),
                       "Load generator: " +
                       first["notes"][-1].split(";")[0].split(": ", 1)[1]
                       + "."]
        report.append("")
    report.append("Largest spread / bound (setup_s excluded): %.2f" % worst)
    text = "\n".join(report) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)


if __name__ == "__main__":
    main()
