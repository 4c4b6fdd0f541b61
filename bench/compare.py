"""Collect sets of benchmark runs and compare two sets.

    python3 bench/compare.py collect OUT.jsonl [--seeds 1-10] [--trace 1]
    python3 bench/compare.py A.jsonl [B.jsonl]

`collect` runs bench/run.py once per workload of BENCHMARK.json and seed, one
after another, and appends one JSON line per run.  Given one file, the report shows each
metric's median, quartiles and spread (quartile distance over the median)
per workload.  Given two, it adds B's change against A and whether it stays
within the bound in BENCHMARK.json, and whether the share of failed queries
is identical.  Any failed query puts the sets outside bounds.  Counts from traced runs must repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args):
    spec = load_spec()
    for seed in parse_seeds(args.seeds):
        for name in (w["name"] for w in spec["workloads"]):
            cmd = list(spec["command"]) + ["--workload", name, "--seed", str(seed),
                                           "--seconds", str(spec["run_seconds"]),
                                           "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            record = {"workload": name, "seed": seed, "trace": args.trace,
                      **json.loads(lines[-1])}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: attempted {record['attempted']} "
                  f"failed {record['failed']}", flush=True)


def read(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [read(p) for p in args.files]
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        runs = [[r for r in s if r["workload"] == name and r["trace"] == 0] for s in sets]
        traced = [[r for r in s if r["workload"] == name and r["trace"] == 1] for s in sets]
        if not any(runs) and not any(traced):
            continue
        print(f"\n== {name}")
        shares = []
        for label, rs in zip("AB", runs):
            if rs:
                att = sum(r["attempted"] for r in rs)
                fail = sum(r["failed"] for r in rs)
                shares.append((fail, att))
                correct = all(r["correct"] for r in rs)
                print(f"   {label}: {len(rs)} runs, failed {fail}/{att}, correct {correct}")
                ok &= correct and fail == 0
        if len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("   failed share differs between A and B")
            ok = False
        for metric, m in bounds.items():
            cols = [[r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]]
                    for rs in runs]
            if not any(cols):
                continue
            line = f"   {metric:<14}"
            stats = []
            for vals in cols:
                if vals:
                    med, q1, q3, spread = summary(vals)
                    stats.append(med)
                    wide = spread > m["bound"]
                    ok &= not wide
                    line += f" {med:10.4f} [{q1:.4f}, {q3:.4f}] spread {spread:6.1%}" \
                            f"{' WIDE' if wide else '     '}"
            if len(stats) == 2:
                change = (stats[1] - stats[0]) / stats[0]
                worse = change if m["better"] == "lower" else -change
                within = worse <= m["bound"]
                ok &= within
                line += f"  B vs A {change:+6.1%} (bound {m['bound']:.0%}) " \
                        f"{'ok' if within else 'WORSE'}"
            print(line)
        for label, rs in zip("AB", traced):
            if rs:
                print(f"   traced {label}: {len(rs)} runs")
                keys = sorted(rs[0]["metrics"])
                for key in keys:
                    vals = [r["metrics"][key]["value"] for r in rs]
                    print(f"     {key:<32} median {statistics.median(vals):.6g} "
                          f"{rs[0]['metrics'][key]['unit']}")
        counts = {}
        for rs in traced:
            for r in rs:
                c = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                if r["seed"] in counts and counts[r["seed"]] != c:
                    print(f"   counts differ between runs of seed {r['seed']}")
                    ok = False
                counts.setdefault(r["seed"], c)
    print("\nwithin bounds" if ok else "\nOUTSIDE BOUNDS")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        ap = argparse.ArgumentParser(prog="compare.py collect")
        ap.add_argument("out")
        ap.add_argument("--seeds", default="1-10")
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        collect(ap.parse_args(sys.argv[2:]))
        return 0
    ap = argparse.ArgumentParser(prog="compare.py")
    ap.add_argument("files", nargs="+", help="one or two result files from `collect`")
    args = ap.parse_args()
    if len(args.files) > 2:
        ap.error("give one or two result files")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
