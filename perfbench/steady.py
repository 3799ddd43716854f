#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload in two interleaved sets (A, B, A, B, ...), each run with
its own seed, and prints for every end-to-end metric each set's median and
quartiles, its spread (interquartile range over the median) and the
set-to-set difference of the medians, both against the metric's bound in
BENCHMARK.json. It also compares the share of failed operations, and reports
the share of the host's busy CPU time the hypervisor stole during each run's
timed phase.

    python3 perfbench/steady.py --workload lookup-zipf --runs 10

Run it from the root of the checkout. Every run's JSON result is appended to
perfbench/out/steady-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {out.returncode}): {' '.join(cmd)}\n{out.stdout}{out.stderr}")
    res = json.loads(lines[-1])
    steal = [ln.split("host steal ")[1].split("%")[0] for ln in lines if "host steal " in ln]
    return res, float(steal[0]) if steal else float("nan")


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run; each run adds one")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = open(os.path.join("perfbench", "out", f"steady-{args.workload}.jsonl"), "a")

    sets = {"A": [], "B": []}
    steals = []
    for i in range(2 * args.runs):
        name = "AB"[i % 2]
        seed = args.seed + i
        res, steal = run_once(args.workload, seed, seconds)
        if not res["correct"]:
            sys.exit(f"run with seed {seed} reported correct=false")
        sets[name].append(res)
        steals.append(steal)
        log.write(json.dumps({"set": name, "seed": seed, "steal_pct": steal, "result": res}) + "\n")
        log.flush()
        print(f"run {i + 1}/{2 * args.runs} set {name} seed {seed} steal {steal:.1f}%: "
              + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics),
              flush=True)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each; "
          f"host steal {min(steals):.1f}-{max(steals):.1f}% of busy CPU (median {statistics.median(steals):.1f}%)")
    print(f"{'metric':22} {'bound':>6} {'A median':>12} {'A q1..q3':>25} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'B vs A':>8}  verdict")
    for m in metrics:
        a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
        am, aq1, aq3, asp = describe(a)
        bm, _, _, bsp = describe(b)
        diff = bm / am - 1 if am else float("inf")
        worse = diff if m["better"] == "lower" else -diff
        verdict = []
        if m["name"] != "setup_s" and max(asp, bsp) > m["bound"] / 3:
            verdict.append("spread above bound/3")
        if worse > m["bound"]:
            verdict.append("B worse than A beyond bound")
        ok = ok and not verdict
        print(f"{m['name']:22} {m['bound']:6.2f} {am:12.6g} {aq1:12.6g}..{aq3:<12.6g} {asp:8.2%} "
              f"{bm:12.6g} {bsp:8.2%} {diff:+8.2%}  {'ok' if not verdict else '; '.join(verdict)}")
    shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
    same = len(shares["A"] | shares["B"]) == 1
    print(f"failed share: A {sorted(shares['A'])} B {sorted(shares['B'])} -> {'same' if same else 'DIFFERENT'}")
    sys.exit(0 if ok and same else 1)


if __name__ == "__main__":
    main()
