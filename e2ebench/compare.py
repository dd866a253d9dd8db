#!/usr/bin/env python3
"""Collect and compare sets of e2ebench runs.

Collect a set (one run per seed and workload, workloads alternating
within each seed; each result line saved as JSON):

    python3 e2ebench/compare.py collect --out runs/a --seeds 1-10
    python3 e2ebench/compare.py collect --out runs/a --seeds 1-3 --trace 1

Compare two sets: per workload and end-to-end metric, the median, the
quartiles and their spread (Q3 - Q1 as a share of the median, quartiles
as Python's statistics.quantiles(values, n=4) gives them), and whether
the sets agree within the metric's bound from BENCHMARK.json: each
spread (except setup_s) within the bound, and the second median not
worse than the first by more than the bound. The share of failed
operations must be identical. For traced results, every work counter
must be identical between runs with the same seed, in and across sets:

    python3 e2ebench/compare.py compare runs/a runs/b

Summarise one set the same way (spreads only):

    python3 e2ebench/compare.py compare runs/a
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are timings; every other per-layer metric is a
# count of the program's work (or a ratio of such counts) and must repeat
# exactly for a given seed.
TIMINGS = {
    "server.open_us",
    "integrity.hash_gib_s",
    "integrity.hash_share_write",
    "flush.close_ms",
    "trace.overhead",
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        # Alternate the workload order from seed to seed.
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"run failed: {' '.join(cmd)}")
            last = out.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            path = os.path.join(args.out, f"{w}-seed{seed}-trace{args.trace}.json")
            with open(path, "w") as f:
                f.write(last + "\n")
            print(f"{w} seed {seed} trace {args.trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)


def load_set(directory):
    """{(workload, trace): {seed: result}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        stem = name[:-len(".json")]
        workload, seed, trace = stem.rsplit("-", 2)
        with open(os.path.join(directory, name)) as f:
            result = json.loads(f.read())
        runs.setdefault((workload, int(trace[len("trace"):])), {})[int(seed[len("seed"):])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def compare(args):
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_set(d) for d in args.sets]
    ok = True
    workloads = sorted({w for s in sets for (w, t) in s if t == 0})
    for w in workloads:
        print(f"== {w}")
        failed_shares = []
        for s in sets:
            runs = s.get((w, 0), {})
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            if not all(r["correct"] for r in runs.values()):
                print("  some runs report correct=false")
                ok = False
            shares = {r["failed"] / r["attempted"] for r in runs.values()}
            failed_shares.append(shares)
            print(f"  set: {len(runs)} runs, attempted {att}, failed {fail}, failed share(s) {sorted(shares)}")
        if len({frozenset(x) for x in failed_shares}) > 1 or any(len(x) > 1 for x in failed_shares):
            print("  failed share differs")
            ok = False
        header = f"  {'metric':<14} {'unit':<6} {'bound':>6}"
        for i in range(len(sets)):
            header += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
        print(header + ("  verdict" if len(sets) > 1 else ""))
        for name, m in bounds.items():
            bound = m["bound"]
            line = f"  {name:<14} {m['unit']:<6} {bound:>6.2f}"
            medians = []
            verdict = "ok"
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s.get((w, 0), {}).values()]
                if not vals:
                    line += f" | {'-':>11} {'-':>11} {'-':>11} {'-':>7}"
                    medians.append(None)
                    continue
                q1, med, q3 = quartiles(vals)
                sp = spread(vals)
                medians.append(med)
                line += f" | {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {sp:>7.3f}"
                if name != "setup_s" and sp > bound:
                    verdict = "SPREAD"
                elif name != "setup_s" and sp > bound / 3 and verdict == "ok":
                    verdict = "ok (spread > bound/3)"
            if len(sets) > 1 and None not in medians[:2]:
                a, b = medians[0], medians[1]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > bound:
                    verdict = f"WORSE by {worse:.3f}"
                else:
                    verdict += f" (change {worse:+.3f})"
            if verdict.startswith(("SPREAD", "WORSE")):
                ok = False
            print(line + "  " + verdict)
    # Work counters of traced runs repeat exactly per seed.
    traced = {}
    for s in sets:
        for (w, t), runs in s.items():
            if t != 1:
                continue
            for seed, r in runs.items():
                counts = {k: v["value"] for k, v in r["metrics"].items() if k not in TIMINGS}
                traced.setdefault((w, seed), []).append(counts)
    for (w, seed), all_counts in sorted(traced.items()):
        same = all(c == all_counts[0] for c in all_counts)
        repeat = all(c.get("trace.counters_repeat") == 1 for c in all_counts)
        status = "repeat exactly" if same and repeat else "DIFFER"
        print(f"traced {w} seed {seed}: {len(all_counts)} run(s), work counters {status}")
        if not (same and repeat):
            ok = False
            for k in all_counts[0]:
                vals = [c[k] for c in all_counts]
                if len(set(vals)) > 1:
                    print(f"    {k}: {vals}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark for a set of seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    m = sub.add_parser("compare", help="compare one or two sets of results")
    m.add_argument("sets", nargs="+")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
