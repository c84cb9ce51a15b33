#!/usr/bin/env python3
"""Self-test of the benchmark: same seed, same counts.

    python3 perfbench/test_counts.py [--seconds S]

Runs every workload twice untraced and twice traced with one seed, and
fails unless
  * each result names exactly the metrics BENCHMARK.json lists for its
    mode, and reports correct = true with no failed op;
  * every count metric below repeats exactly between the two runs.
Count metrics are read over a fixed prefix of the op stream (or replay a
fixed op list), so the time budget does not change them.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNTS = {
    0: ["write_amp"],
    1: [
        "persist.superblock_writes_per_host_write",
        "persist.superblock_bytes_per_host_byte",
        "core.encode_xors_per_stripe",
        "core.decode_xors_per_stripe",
        "core.update_xors_per_small_write",
        "raid.parity_elements_per_small_write",
        "raid.device_ios_per_op",
        "raid.device_read_bytes_per_host_byte",
        "raid.device_write_bytes_per_host_byte",
        "volume.staged_bytes_per_host_byte",
        "volume.multi_shard_op_share",
    ],
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}")
    return json.loads(p.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, second = (run(wl, a.seed, a.seconds, trace) for _ in range(2))
            for r in (first, second):
                if set(r["metrics"]) != expected[trace]:
                    failures.append(f"{wl} trace={trace}: metric names differ "
                                    f"from BENCHMARK.json: "
                                    f"{sorted(set(r['metrics']) ^ expected[trace])}")
                if not r["correct"] or r["failed"]:
                    failures.append(f"{wl} trace={trace}: correct={r['correct']} "
                                    f"failed={r['failed']}")
            for name in COUNTS[trace]:
                x = first["metrics"][name]["value"]
                y = second["metrics"][name]["value"]
                status = "ok" if x == y else "DIFFERS"
                print(f"{wl:18} {name:42} {x!r:>22} {y!r:>22} {status}")
                if x != y:
                    failures.append(f"{wl}: {name} {x!r} != {y!r}")
    for f in failures:
        print("FAIL:", f)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
