"""The benchmark's workloads, one round each, in-process: `perfbench/` still runs on `src/`.

Each workload's seed-1 plan runs its round 0 through `runners.RUNNERS` and
`checks.CHECKS`, as the worker does, so a rename or a changed result in the
package shows here rather than in a benchmark run.  The frequency workload's
set-up is the suite's only pass through `hemisphere_eigs` with its pools.
Its outputs are also recomputed call by call, each on a freshly synthesized
solution, so the tables a solution keeps between calls change no bit.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import checks
        import runners
        import workloads
        yield workloads, runners, checks


@pytest.mark.parametrize("workload", ["cli_session", "frequency_crosscheck", "inequality_sweep"])
def test_round_0_runs_with_no_failed_operation_and_no_check_failure(bench, workload, tmp_path):
    workloads, runners, checks = bench
    assert workload in workloads.WORKLOADS
    plan = workloads.make_plan(workload, 1, 1.0, str(tmp_path))
    runner = runners.RUNNERS[workload](plan)
    ck = checks.Checks()
    failed = []
    for op in plan["rounds"][0]:
        res = runner.run(op)
        why = runner.failed(op, res)
        if why is None:
            checks.CHECKS[workload](plan, op, res, ck)
        else:
            failed.append((op["kind"], why))
        if workload == "frequency_crosscheck":
            assert _bits(res) == _bits(_each_on_a_fresh_solution(runners, runner, op)), op["kind"]
    assert failed == []
    assert ck.failures == []


def _each_on_a_fresh_solution(runners, runner, op):
    """The frequency runner's outputs, every call made on a solution of its own."""
    from almgren_lab import almgren, synthesis

    params, modes, cands = runner.sets[op["pset"]]

    def fresh():
        return synthesis.synthesize(params, [tuple(t) for t in op["terms"]], modes=modes)

    target = modes[op["terms"][op["target"]][0]]
    samples = [(lam, *synthesis.fourier_coefficient(fresh(), target, lam))
               for lam in runners.FC_FIT_LAMBDAS]
    return {"closed": almgren.trace(fresh(), runner.closed_radii),
            "quad": almgren.trace(fresh(), runners.FC_QUAD_RADII, method="quadrature"),
            "limit": almgren.frequency_limit(fresh(), candidates=cands),
            "pohozaev": almgren.check_pohozaev(fresh(), runners.FC_POHOZAEV_R),
            "fit": synthesis.fit_blowup(samples, cands, params)}


def _bits(x):
    """Every number in x (dicts, arrays, floats, tuples, dataclass fields) as its exact bits."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x.hex() if isinstance(x, float) else x
