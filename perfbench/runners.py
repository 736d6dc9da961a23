"""What the timed process runs: set-up and one operation of each workload.

This module is imported before the worker prints ``ready``, so it imports
nothing the program itself would not load: not `reference`, whose scipy
imports belong to the checks (see `checks`), which run after the timed list.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# frequency_crosscheck: radii, stencil and blow-up samples of every synthesis
FC_CENTERS = np.geomspace(0.45, 0.0045, 9)         # closed-path stencil centers
FC_QUAD_RADII = FC_CENTERS[::2]                    # short schedule for the quadrature path
FC_STENCIL = 1e-4                                  # relative step of the H' stencil
FC_FIT_LAMBDAS = np.geomspace(0.3, 0.02, 8)
FC_POHOZAEV_R = 0.3

INEQ_CUTOFF = 0.8           # also the cut-off `check-inequalities --which rellich` uses


def test_family(params, which: str, family: str, count: int, seed: int):
    """The TestFamily of a margin request; for bumps it is the one the CLI builds."""
    from almgren_lab import inequalities
    kw = {}
    if which == "rellich":
        kw = {"mirrored": family == "bumps", "cutoff_radius": INEQ_CUTOFF}
    elif family == "poly":
        kw = {"cutoff_radius": INEQ_CUTOFF}
    return inequalities.TestFamily(params=params, kind=family, count=count, seed=seed, **kw)


class CliRunner:
    """Calls ``almgren_lab.cli.run(argv)`` in-process with stdout and stderr captured."""

    def __init__(self, plan: dict):
        import almgren_lab.cli  # noqa: F401 - part of set-up
        self.output_bytes = 0
        if plan.get("warmup"):
            self.call(plan["warmup"])

    def call(self, argv):
        import almgren_lab.cli as cli
        out, err = io.StringIO(), io.StringIO()
        exc = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        except Exception as e:  # a raw exception escaping cli.run is a failed request
            code, exc = None, f"{type(e).__name__}: {e}"
        return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "exc": exc}

    def run(self, op):
        res = self.call(op["argv"])
        self.output_bytes += len(res["out"].encode())
        return res

    def failed(self, op, res) -> str | None:
        """Why the request failed, or None when it met its documented outcome."""
        if op.get("malformed"):
            if res["exc"]:
                return f"raised {res['exc']}"
            if res["code"] != 2 or res["out"] or not res["err"]:
                return f"exit {res['code']}, {len(res['out'])} bytes on stdout"
            return None
        if res["exc"]:
            return f"raised {res['exc']}"
        if res["code"] != 0:
            return f"exit {res['code']}: {res['err'][-200:]}"
        return None


class FrequencyRunner:
    """Synthesis, closed and quadrature traces, frequency limit, identities and blow-up fit."""

    def __init__(self, plan: dict):
        from almgren_lab import hemisphere
        from almgren_lab.core import WeightParams
        self.output_bytes = 0
        self.sets = []
        for ps in plan["psets"]:
            params = WeightParams(s=ps["s"], N=ps["N"])
            modes = hemisphere.hemisphere_eigs(params, k_max=ps["k_max"], per_k=ps["per_k"])
            self.sets.append((params, modes, sorted({m.sigma_plus for m in modes})))
        step = np.array([-2, -1, 0, 1, 2]) * FC_STENCIL
        self.closed_radii = (FC_CENTERS[:, None] * (1.0 + step[None, :])).ravel()

    def run(self, op):
        from almgren_lab import almgren, synthesis
        params, modes, cands = self.sets[op["pset"]]
        sol = synthesis.synthesize(params, [tuple(t) for t in op["terms"]], modes=modes)
        closed = almgren.trace(sol, self.closed_radii)
        quad = almgren.trace(sol, FC_QUAD_RADII, method="quadrature")
        limit = almgren.frequency_limit(sol, candidates=cands)
        pohozaev = almgren.check_pohozaev(sol, FC_POHOZAEV_R)
        target = modes[op["terms"][op["target"]][0]]
        samples = [(lam, *synthesis.fourier_coefficient(sol, target, lam)) for lam in FC_FIT_LAMBDAS]
        fit = synthesis.fit_blowup(samples, cands, params)
        return {"closed": closed, "quad": quad, "limit": limit, "pohozaev": pohozaev, "fit": fit}

    def failed(self, op, res):
        return None


class InequalityRunner:
    """Hardy, Hardy-Rellich and Sobolev-trace margins at the default resolutions."""

    def __init__(self, plan: dict):
        import almgren_lab.inequalities  # noqa: F401 - part of set-up
        self.output_bytes = 0

    def run(self, op):
        from almgren_lab import inequalities
        from almgren_lab.core import WeightParams
        params = WeightParams(s=op["s"], N=op["N"])
        family = test_family(params, op["which"], op["family"], 1, op["seed"])
        if op["which"] == "sobolev":
            return inequalities.estimate_sobolev_trace_constant(params, family, 1.0)
        field = next(iter(family.fields()))
        if op["which"] == "hardy":
            return inequalities.check_hardy_trace(params, field, 1.0)
        return inequalities.check_hardy_rellich(params, field, 1.0)

    def failed(self, op, res):
        return None


RUNNERS = {"cli_session": CliRunner, "frequency_crosscheck": FrequencyRunner,
           "inequality_sweep": InequalityRunner}
