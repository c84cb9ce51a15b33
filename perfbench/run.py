#!/usr/bin/env python3
"""Build the volume benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, one run: the last stdout line is the JSON result of
perfbench/volbench.cpp. Without it, every workload in BENCHMARK.json runs
in turn and a table of every metric, by name and unit, is printed.

Run from the repository root. The build goes to .bench_build/perfbench and
the persistent workload's store to .bench_build/perfbench-store, both
inside the checkout. Build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STORE = os.path.join(ROOT, ".bench_build", "perfbench-store")
BINARY = os.path.join(BUILD, "volbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the benchmark target; False on failure."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "volbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    shutil.rmtree(STORE, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--store-dir", STORE]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(STORE, ignore_errors=True)
    return p.returncode, p.stdout.splitlines()


def report(spec, seed, seconds, trace):
    """Every workload in turn, one table row per metric."""
    rc_all = 0
    print(f"{'workload':18} {'metric':42} {'value':>14} unit")
    for wl in (w["name"] for w in spec["workloads"]):
        rc, lines = run_one(wl, seed, seconds, trace)
        if rc or not lines:
            print(f"{wl:18} FAILED (exit {rc})")
            rc_all = rc_all or rc or 1
            continue
        for line in lines:
            if line.startswith("info "):
                line = line[len("info "):]
            r = json.loads(line)
            for name, m in r["metrics"].items():
                print(f"{wl:18} {name:42} {m['value']:14.6g} {m['unit']}")
        print(f"{wl:18} {'correct':42} {str(r['correct']):>14} "
              f"({r['failed']} failed of {r['attempted']})")
    return rc_all


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    seconds = a.seconds or spec["run_seconds"]
    if a.workload and a.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {a.workload}", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if not a.workload:
        return report(spec, a.seed, seconds, a.trace)
    rc, lines = run_one(a.workload, a.seed, seconds, a.trace)
    for line in lines:
        print(line)
    return rc if lines or rc else 1


if __name__ == "__main__":
    sys.exit(main())
