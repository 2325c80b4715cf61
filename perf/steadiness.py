#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload once per seed and
reports, for every metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)).

    python3 perf/steadiness.py --seeds 1-10 [--out perf/results/x.json]

Run from the root of a checkout. The workloads and the run length come from
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    result["elapsed_s"] = time.time() - start
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [run(w, s, bench["run_seconds"])
                for s in seed_list(args.seeds)]
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            share = stats["iqr_share"]
            print(f"{w:12s} {name:24s} median {stats['median']:12.6g} "
                  f"IQR/median {share if share is None else round(share, 4)}"
                  f" bound {stats['bound']}", flush=True)
        report["workloads"][w] = {
            "metrics": metrics,
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "context": runs[0]["context"].get("context", {}),
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
