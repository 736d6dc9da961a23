"""The benchmark's workloads, one round each, in-process: `perfbench/` still runs on `src/`.

Each workload's seed-1 plan runs its round 0 through `runners.RUNNERS` and
`checks.CHECKS`, as the worker does, so a rename or a changed result in the
package shows here rather than in a benchmark run.  The frequency workload's
set-up is the suite's only pass through `hemisphere_eigs` with its pools.
"""

from pathlib import Path

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
    assert failed == []
    assert ck.failures == []
