#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload N times with distinct seeds and prints, for each
end-to-end metric, its median, quartiles and spread (interquartile range
over median) against the metric's bound. With --against it also compares
this set's medians with an earlier set's, the way a regression check does.
With --trace it adds one traced run per workload and prints the tracing
overhead: the traced figure over the untraced median, per metric.

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 --out .bench_out/set1.json
    python3 e2ebench/steady.py --runs 10 --seed0 1000 --against .bench_out/set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    began = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - began
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    traced_e2e = None
    for line in p.stderr.splitlines():
        if line.startswith("end-to-end (traced): "):
            traced_e2e = json.loads(line[len("end-to-end (traced): "):])
    return {"workload": workload, "seed": seed, "trace": trace, "exit": p.returncode,
            "wall_s": wall, "result": result, "traced_e2e": traced_e2e,
            "stderr_tail": p.stderr.splitlines()[-4:]}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(better, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="", help="write every run's result here (JSON)")
    ap.add_argument("--against", default="", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for w in workloads:
        for i in range(args.runs):
            r = run_once(bench, w, args.seed0 + i, False)
            runs.append(r)
            ok = r["exit"] == 0 and r["result"] and r["result"]["correct"]
            print(f"{w} seed {r['seed']}: exit {r['exit']} {'ok' if ok else 'FAILED'} "
                  f"{r['wall_s']:.1f} s", file=sys.stderr, flush=True)
            if not ok:
                print("\n".join(r["stderr_tail"]), file=sys.stderr)
        if args.trace:
            runs.append(run_once(bench, w, args.seed0 + args.runs, True))
    if args.out:
        json.dump({"runs": runs}, open(args.out, "w"), indent=1)

    previous = json.load(open(args.against))["runs"] if args.against else []
    verdict = True
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w and not r["trace"] and r["result"]]
        if not mine:
            print(f"\n{w}: no results")
            verdict = False
            continue
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in mine}
        failed_share = {f / a for f, a in shares}
        walls = [r["wall_s"] for r in mine]
        print(f"\n{w}: {len(mine)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(failed_share)}")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}{'bound':>7}  verdict")
        old = [r for r in previous if r["workload"] == w and not r["trace"] and r["result"]]
        traced = [r for r in runs if r["workload"] == w and r["trace"] and r["traced_e2e"]]
        for name, m in metrics.items():
            vals = [r["result"]["metrics"][name]["value"] for r in mine
                    if name in r["result"]["metrics"]]
            if len(vals) < 2:
                print(f"  {name:<24} missing")
                verdict = False
                continue
            med, q1, q3, sp = spread(vals)
            note = "steady" if sp <= m.get("bound", 1) / 3 else (
                "ok" if sp <= m.get("bound", 1) else "WIDE")
            if name == "setup_s":
                note += " (spread not gated)"
            elif note == "WIDE":
                verdict = False
            if old:
                ovals = [r["result"]["metrics"][name]["value"] for r in old]
                d = worse_by(m["better"], statistics.median(ovals), med)
                note += f"; vs earlier {d:+.3f}"
                if d > m["bound"]:
                    note += " REGRESSED"
                    verdict = False
            if traced:
                t = traced[0]["traced_e2e"].get(name, {}).get("value")
                if t is not None and med:
                    note += f"; traced/untraced {t / med:.3f}"
            print(f"  {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>8.3f}{m['bound']:>7}  {note}")
        if old:
            oshares = {r["result"]["failed"] / r["result"]["attempted"] for r in old}
            if oshares != failed_share:
                print(f"  failed share differs from earlier set: {sorted(oshares)}")
                verdict = False
    print("\nverdict:", "steady" if verdict else "NOT steady")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
