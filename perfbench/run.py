"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package under test is ``src/almgren_lab``
of that checkout.  With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5          # fresh interpreters timed to "ready"; the last runs the list
DEADLINE_S = 170.0         # the whole run, set-up samples included


def _spawn(plan_path: str, src: str, mode: str, trace: int, out: str, cwd: str,
           deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return (seconds until it printed ``ready``, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", plan_path, "--src", src,
           "--mode", mode, "--trace", str(trace), "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    # a worker that hangs is killed at the deadline, so the run always ends
    proc.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    proc.watchdog.daemon = True
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc)
        raise RuntimeError("worker did not get ready")
    return ready, proc


def _finish(proc: subprocess.Popen) -> None:
    proc.wait()
    proc.watchdog.cancel()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _round_times(res: dict) -> dict[int, float]:
    rounds: dict[int, float] = {}
    for r, dt in zip(res["round"], res["latency_s"]):
        rounds[r] = rounds.get(r, 0.0) + dt
    return rounds


def end_to_end(res: dict, setup: list[float]) -> dict:
    rounds = _round_times(res)
    ok_per_round: dict[int, int] = {}
    ok_latency = []
    for r, dt, why in zip(res["round"], res["latency_s"], res["failed"]):
        if why is None:
            ok_per_round[r] = ok_per_round.get(r, 0) + 1
            ok_latency.append(dt)
    # Every round has the same make-up; the median round is robust to a burst
    # of load from outside the process.
    ok_ops = statistics.median(ok_per_round.values())
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(ok_ops / statistics.median(rounds.values()), "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(ok_latency), "ms"),
        "digits": _metric(reference.digits(res["worst_error"]), "digits"),
        "peak_rss_mb": _metric(res["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(res: dict, spans_path: str, src: str, cwd: str) -> dict:
    with open(spans_path) as fh:
        spans = json.load(fh)
    layers = tracing.layer_metrics(spans, {"cli.output_bytes": res["output_bytes"]})
    layers.update(tracing.import_times(src, cwd))
    return {k: _metric(v, unit) for k, (v, unit) in sorted(layers.items())}


def _print_diagnostics(res: dict) -> None:
    """Per-kind latencies, round times and the kinds around the median, on stderr."""
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(res["kind"], res["latency_s"]):
        by_kind.setdefault(kind, []).append(dt)
    for kind, dts in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        ms = [1e3 * x for x in sorted(dts)]
        print(f"  {kind:16s} n={len(ms):4d} min {ms[0]:7.1f} median {statistics.median(ms):7.1f}"
              f" max {ms[-1]:7.1f} ms", file=sys.stderr)
    ok = sorted((dt, kind) for kind, dt, why in zip(res["kind"], res["latency_s"], res["failed"])
                if why is None)
    rounds = _round_times(res)
    print(f"  list {sum(rounds.values()):.2f} s; rounds (s): "
          + " ".join(f"{rounds[r]:.2f}" for r in sorted(rounds)), file=sys.stderr)
    mid = len(ok) // 2
    print("  around the median: " + " ".join(k for _, k in ok[mid - 3:mid + 4]), file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = HERE.parent
    src = root / "src"
    if not (src / "almgren_lab" / "__init__.py").is_file():
        print(f"no package at {src / 'almgren_lab'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, args.seconds, str(work))
        plan_path = str(work / "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        out = str(work / "result.json")
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready, proc = _spawn(plan_path, str(src), "setup", 0, out, str(root), deadline)
                _finish(proc)
                setup.append(ready)
        ready, proc = _spawn(plan_path, str(src), "run", args.trace, out, str(root), deadline)
        setup.append(ready)
        _finish(proc)
        with open(out) as fh:
            res = json.load(fh)
        for why in sorted({w for w in res["failed"] if w}):
            print(f"failed: {why}", file=sys.stderr)
        for msg in res["check_failures"][:20]:
            print(f"check: {msg}", file=sys.stderr)
        print(f"worst error {res['worst_error']:.3e} at {res['worst_what']}", file=sys.stderr)
        _print_diagnostics(res)
        if args.trace:
            metrics = per_layer(res, out + ".spans", str(src), str(root))
        else:
            metrics = end_to_end(res, setup)
        failed = sum(1 for w in res["failed"] if w)
        print(json.dumps({"correct": not res["check_failures"], "attempted": len(res["failed"]),
                          "failed": failed, "metrics": metrics}))
        return 0
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
