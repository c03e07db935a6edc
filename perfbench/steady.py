"""Steadiness check: two interleaved sets of runs of the same code.

From the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--runs 5] [--first-seed 1]

For each workload it makes --runs runs in set A (seeds first..) and in
set B (the next --runs seeds), alternating A/B and which of the pair goes
first. Per end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) of each set and of
all runs together, and whether the sets agree: B's median no worse than
A's by more than the bound in BENCHMARK.json, and every spread but
set-up's, the all-runs spread included, within the bound. The share of
failed operations must match exactly. Exit status 0 when everything
agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["run_s"] = time.monotonic() - t0
    return out


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the driver computes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    seconds = spec["run_seconds"]

    verdict = True
    report = {}
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = args.first_seed + i + (args.runs if label == "B" else 0)
                sets[label].append(run_once(workload, seed, seconds))
        report[workload] = sets
        print(f"\n{workload}  ({args.runs} runs per set, run_seconds {seconds}, "
              f"mean run {statistics.mean(r['run_s'] for s in sets.values() for r in s):.1f} s)")
        print(f"  {'metric':<12} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = {k: [r["metrics"][name]["value"] for r in v] for k, v in sets.items()}
            stats = {k: spread(v) for k, v in vals.items()}
            for k, (med, q1, q3, sp) in stats.items():
                print(f"  {name:<12} {k:<3} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{sp:>7.3f}")
            med_all, q1, q3, sp_all = spread(vals["A"] + vals["B"])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            shift = sign * (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            ok = shift <= bound
            if name != "setup_s":
                ok = ok and sp_all <= bound and all(
                    s[3] <= bound for s in stats.values())
            verdict = verdict and ok
            print(f"  {name:<12} all {med_all:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{sp_all:>7.3f}  B vs A {shift:+.3f} (bound {bound}): "
                  f"{'agree' if ok else 'DISAGREE'}")
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for v in sets.values() for r in v)
        verdict = verdict and same_share and correct
        print(f"  failed share {sorted(shares['A'] | shares['B'])}, all correct: {correct}")

    out = ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'all sets agree' if verdict else 'sets DISAGREE'}; "
          f"runs in {out.relative_to(ROOT)}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
