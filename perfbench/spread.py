"""Run each workload several times on one commit and print how far its figures spread.

    python3 perfbench/spread.py                          # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads inequality_sweep --seeds 1-5
    python3 perfbench/spread.py --sets 2                 # two sets, and how their medians differ

Each run is ``run.py --seed <n> --seconds <run_seconds> --trace 0`` from the
root of the checkout, one after the other.  For every end-to-end metric and
workload the table gives the median, the quartiles (``statistics.quantiles``,
n=4), the spread (q3 - q1) / median and that spread as a share of the
metric's bound in BENCHMARK.json, plus the share of failed operations.  With
``--sets 2`` the seeds are run twice over, every workload in turn, and a
second table gives, for each metric, how much worse the second set's median
is than the first's, as a share of the first and of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}",
        file=sys.stderr, flush=True)
    return result


def _medians(bench: dict, results: list[dict]) -> dict[str, float]:
    return {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in results)
            for m in bench["end_to_end"]}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--sets", type=int, default=1, help="times over the seeds (2 compares medians)")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    sets: list[dict[str, list[dict]]] = []
    try:
        for _ in range(args.sets):
            sets.append({w: [_run(w, seed, bench["run_seconds"]) for seed in _seeds(args.seeds)]
                         for w in workloads})
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    for i, runs in enumerate(sets, 1):
        print(f"set {i}\n{'workload':22s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'/bound':>7s}")
        for workload, results in runs.items():
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                print(f"{workload:22s} {m['name']:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {m['bound']:6.2f} {spread / m['bound']:7.3f}")
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            correct = all(r["correct"] for r in results)
            print(f"{workload:22s} failed share {shares}, correct in every run: {correct}")

    for i, runs in enumerate(sets[1:], 2):
        print(f"set {i} against set 1: how much worse the median is (negative: better)\n"
              f"{'workload':22s} {'metric':12s} {'median 1':>12s} {f'median {i}':>12s} "
              f"{'worse':>8s} {'bound':>6s} {'/bound':>7s}")
        for workload in workloads:
            first, this = _medians(bench, sets[0][workload]), _medians(bench, runs[workload])
            for m in bench["end_to_end"]:
                a, b = first[m["name"]], this[m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"{workload:22s} {m['name']:12s} {a:12.6g} {b:12.6g} "
                      f"{worse:8.4f} {m['bound']:6.2f} {worse / m['bound']:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
