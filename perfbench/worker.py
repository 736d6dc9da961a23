"""One workload process: set up, print ``ready``, run the timed list, check it.

Started by ``run.py`` from a fresh interpreter.  ``--mode setup`` stops after
``ready`` (a set-up sample); ``--mode run`` goes on through the plan as a
closed loop, one request after the other returns, then reads its peak
resident set and only then imports `checks` and checks the outputs, so the
checks and their references cost neither time nor memory in the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import almgren_lab
    if not os.path.abspath(almgren_lab.__file__).startswith(os.path.abspath(args.src)):
        print(f"almgren_lab imported from {almgren_lab.__file__}, not {args.src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import runners
    with open(args.plan) as fh:
        plan = json.load(fh)
    runner = runners.RUNNERS[plan["workload"]](plan)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    records = []
    for r, ops in enumerate(plan["rounds"]):
        for op in ops:
            t0 = time.perf_counter()
            try:
                res = runner.run(op)
            except Exception as exc:  # recorded as a failed operation below
                res = exc
            t1 = time.perf_counter()
            records.append((r, op, res, t1 - t0))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(args.out + ".spans")   # before the checks, which call the package too

    import checks
    check = checks.CHECKS[plan["workload"]]
    ck = checks.Checks()
    out = {"latency_s": [], "round": [], "kind": [], "failed": [], "peak_rss_kib": peak_kib}
    for r, op, res, dt in records:
        if isinstance(res, Exception):
            why = f"raised {type(res).__name__}: {res}"
        else:
            why = runner.failed(op, res)
        if why is None:
            try:
                check(plan, op, res, ck)
            except Exception as exc:  # an unreadable output is a check failure
                ck.failures.append(f"{op['kind']}: check raised {type(exc).__name__}: {exc}")
        out["latency_s"].append(dt)
        out["round"].append(r)
        out["kind"].append(op["kind"])
        out["failed"].append(why)
    out["check_failures"] = ck.failures
    out["worst_error"] = ck.worst
    out["worst_what"] = ck.worst_what
    out["output_bytes"] = runner.output_bytes
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
