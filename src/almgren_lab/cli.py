"""Command-line front end: spectra, profiles, syntheses and diagnostics.

Subcommands: spectrum {cylinder,hemisphere}, profile, extend, synthesize,
fit, almgren, check-inequalities, selftest.  JSON artifacts carry a top-level
"schema": "almgren-lab/1" field; CSV files use a header row and 17
significant digits.  A JSON config file can prefill options; explicit flags
win.  Exit codes: 0 success, 2 validation error, 3 numerical-failure report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import almgren as almgren_mod
from . import core, cylinder, hemisphere, inequalities, profile, synthesis
from .core import AlmgrenLabError, DomainError, InputError, WeightParams

SCHEMA = "almgren-lab/1"
_NUMERIC_FAILURES = (
    core.UnmatchedExponentError,
    core.ClassificationError,
    core.TraceProportionalityError,
    core.VanishingDenominatorError,
    core.DegenerateResonanceError,
)


@dataclass
class RunConfig:
    s: float = 1.5
    N: int = 1
    R: float = 1.0
    resolution: int | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def params(self) -> WeightParams:
        return WeightParams(s=self.s, N=self.N, R=self.R)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        for key, value in data.items():
            if hasattr(cfg, key):
                setattr(cfg, key, value)
    for key in ("s", "N", "R", "resolution", "seed", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "format", None):
        cfg.fmt = args.format
    if not (1.0 < cfg.s < 2.0):
        raise DomainError(f"--s must lie in (1, 2), got {cfg.s}")
    if cfg.N < 1:
        raise DomainError(f"--N must be >= 1, got {cfg.N}")
    if cfg.R <= 0:
        raise DomainError(f"--R must be positive, got {cfg.R}")
    return cfg


def _emit_json(cfg: RunConfig, name: str, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:   # NaN or Infinity: not valid JSON
        raise DomainError(f"{name} holds a non-finite value: {exc}") from exc
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, name + ".json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _emit_csv(cfg: RunConfig, name: str, header: list[str], rows: np.ndarray) -> None:
    """Write float rows under a header: 17 significant digits, CRLF line ends as csv.writer."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise DomainError(f"{name} holds a non-finite value")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    text = head.getvalue() + "".join(line % row for row in map(tuple, rows.tolist()))
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, name + ".csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _params_dict(params: WeightParams) -> dict:
    return {"s": params.s, "b": params.b, "N": params.N, "R": params.R,
            "paper_regime": params.paper_regime}


def _cmd_spectrum(args) -> int:
    cfg = _merge_config(args)
    params = cfg.params()
    if args.which == "hemisphere":
        modes = hemisphere.hemisphere_modes(params, args.count, k_max=args.k_max)
        payload = {
            "params": _params_dict(params),
            "modes": [
                {"l": m.ell, "k": m.k, "mu": m.mu, "sigma_plus": m.sigma_plus,
                 "sigma_minus": m.sigma_minus, "multiplicity": m.multiplicity}
                for m in modes
            ],
        }
        _emit_json(cfg, "hemisphere_spectrum", payload)
    else:
        modes = [{"n": mode.n, "m": mode.m, "mu_n": mode.mu_n, "bessel_zero": mode.zero_m,
                  "lambda": mode.eigenvalue}
                 for mode in cylinder.cylinder_spectrum(params, args.count)]
        payload = {"params": _params_dict(params), "modes": modes}
        _emit_json(cfg, "cylinder_spectrum", payload)
    return 0


def _cmd_profile(args) -> int:
    cfg = _merge_config(args)
    if args.b is not None:
        if not (-1.0 < args.b < 1.0):
            raise DomainError(f"--b must lie in (-1, 1), got {args.b}")
        cfg.s = (3.0 - args.b) / 2.0
    params = cfg.params()
    sol = profile.solve_profile(params.b, T_max=args.t_max,
                                resolution=cfg.resolution or 16384)
    stride = max(1, sol.t.size // args.samples)
    payload = {
        "b": sol.b,
        "J": sol.J,
        "ode_residual": sol.ode_residual,
        "phi_samples": [
            {"t": float(t), "phi": float(p)}
            for t, p in zip(sol.t[::stride], sol.phi[::stride])
        ],
    }
    _emit_json(cfg, "profile", payload)
    return 0


def _read_table(path: str) -> np.ndarray:
    """The numbers under a CSV header, one array row per data line; blank lines skipped."""
    try:
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), None)
            body = [line for line in fh.read().splitlines() if line.strip()]
        data = np.loadtxt(body, delimiter=",", quotechar='"', ndmin=2) if body else None
    except ValueError as exc:   # a cell that is not a number, a ragged row, bad bytes
        raise InputError(f"{path}: {str(exc).partition('; use `usecols`')[0]}") from None
    if not header:
        raise InputError(f"{path}: no header row")
    if data is None:
        raise InputError(f"{path}: no data rows under the header")
    if data.shape[1] != len(header):
        raise InputError(f"{path}: {data.shape[1]} columns under a header of {len(header)}")
    return data


def _number_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _read_field_csv(path: str):
    data = _read_table(path)
    if data.shape[1] < 2:
        raise InputError(f"{path}: need coordinate columns and a value column")
    coords = data[:, :-1]
    values = data[:, -1]
    dim = coords.shape[1]
    axes = [np.unique(coords[:, d]) for d in range(dim)]
    shape = tuple(len(a) for a in axes)
    if math.prod(shape) != values.size:
        raise DomainError("CSV sample is not a full tensor grid")
    if shape[0] < 2:
        raise InputError(f"{path}: need at least two samples along x1")
    order = np.lexsort([coords[:, d] for d in reversed(range(dim))])
    grid = values[order].reshape(shape)
    length = float(axes[0][1] - axes[0][0]) * shape[0]
    return grid, length, axes


def _cmd_extend(args) -> int:
    cfg = _merge_config(args)
    params = cfg.params()
    grid, length, axes = _read_field_csv(args.input)
    t_levels = _number_list(args.t_levels, "--t-levels")
    levels = profile.build_extension(params, grid, t_levels, box_length=length)
    # one row per (level, grid point): coordinates, t, value, levels outermost
    coords = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    rows = np.column_stack([np.tile(coords, (len(t_levels), 1)),
                            np.repeat(t_levels, grid.size), levels.ravel()])
    header = [f"x{d+1}" for d in range(len(axes))] + ["t", "value"]
    _emit_csv(cfg, "extension", header, rows)
    return 0


def _load_modes(params, cfg, need: int):
    """The first `need` closed-form modes: a spec's "l" is a position in this list."""
    return hemisphere.hemisphere_modes(params, need)


def _spec_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InputError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _read_spec(path: str, cfg: RunConfig):
    """Parameters and (l, c1, d1) terms of a JSON spec, checked before any eigensolve."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InputError("spec must be a JSON object")
    p = spec.get("params", {})
    if not isinstance(p, dict):
        raise InputError("spec params must be a JSON object")
    params = WeightParams(s=_spec_number(p.get("s", cfg.s), "params.s"),
                          N=_spec_number(p.get("N", cfg.N), "params.N"),
                          R=_spec_number(p.get("R", cfg.R), "params.R"))
    entries = spec.get("terms")
    if not isinstance(entries, list) or not entries:
        raise InputError("spec needs a non-empty list of terms")
    terms = []
    for i, t in enumerate(entries):
        if not isinstance(t, dict):
            raise InputError(f"term {i} must be a JSON object")
        ell = t.get("l")
        if isinstance(ell, bool) or not isinstance(ell, int) or ell < 0:
            raise InputError(f"term {i}: l must be a non-negative integer, got {ell!r}")
        if ell >= hemisphere.MAX_MODES:
            raise InputError(f"term {i}: l = {ell} is past the last mode position "
                             f"{hemisphere.MAX_MODES - 1}")
        terms.append((ell, _spec_number(t.get("c1", 0.0), f"term {i}: c1"),
                      _spec_number(t.get("d1", 0.0), f"term {i}: d1")))
    return params, terms


def _spec_solution(path: str, cfg: RunConfig):
    """The modes a checked spec indexes and the solution it synthesizes."""
    params, terms = _read_spec(path, cfg)
    modes = _load_modes(params, cfg, max(t[0] for t in terms) + 1)
    return modes, synthesis.synthesize(params, terms, modes=modes)


def _cmd_synthesize(args) -> int:
    cfg = _merge_config(args)
    _, sol = _spec_solution(args.spec, cfg)
    payload = {
        "params": _params_dict(sol.params),
        "terms": [
            {"l": t.mode.ell, "k": t.mode.k, "mu": t.mode.mu,
             "sigma_plus": t.sigma, "K": t.K if t.d1 else None,
             "c1": t.c1, "d1": t.d1}
            for t in sol.terms
        ],
    }
    _emit_json(cfg, "synthesis", payload)
    return 0


def _cmd_fit(args) -> int:
    cfg = _merge_config(args)
    params = cfg.params()
    samples = _read_table(args.input)
    candidates = _number_list(args.sigma_candidates, "--sigma-candidates")
    fit = synthesis.fit_blowup(samples, candidates, params)
    payload = {
        "sigma_used": fit.sigma_used, "c1_hat": fit.c1_hat, "d1_hat": fit.d1_hat,
        "residual": fit.residual, "delta1": fit.delta1, "delta2": fit.delta2,
        "branch": fit.branch,
    }
    _emit_json(cfg, "fit", payload)
    return 0


def _cmd_almgren(args) -> int:
    cfg = _merge_config(args)
    modes, sol = _spec_solution(args.spec, cfg)
    radii = almgren_mod.radius_schedule(sol.R)
    tr = almgren_mod.trace(sol, radii)
    rows = np.column_stack([tr.r, tr.D, tr.H, tr.N, tr.nu1, tr.nu2])
    _emit_csv(cfg, "almgren_trace", ["r", "D", "H", "N", "nu1", "nu2"], rows)
    # gamma is matched against the sigma+ of every degree up to 3 n - 2
    # (N >= 2) or n - 1 (N = 1), n = max(4, modes the spec indexes), so a
    # limit that misses the spec's own degrees still finds its nearest rival
    need = max(4, len(modes))
    top = need - 1 if sol.params.N == 1 else 3 * need - 2
    candidates = sorted({hemisphere.sigma_exponents(
        sol.params, hemisphere.exact_mu(sol.params, sigma))[0] for sigma in range(top + 1)})
    limit = almgren_mod.frequency_limit(tr, candidates=candidates)
    payload = {
        "params": _params_dict(sol.params),
        "gamma": limit.gamma,
        "matched_exponent": limit.matched.value,
        "matched_branch": limit.matched.kind,
        "H_limit": limit.h_limit,
    }
    _emit_json(cfg, "almgren_summary", payload)
    return 0


def _cmd_check_inequalities(args) -> int:
    cfg = _merge_config(args)
    params = cfg.params()
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    if args.which == "hardy":
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=cfg.seed)
        margins = [inequalities.check_hardy_trace(params, f, params.R)
                   for f in family.fields()]
    elif args.which == "rellich":
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=cfg.seed,
                                         mirrored=True, cutoff_radius=0.8 * params.R)
        margins = [inequalities.check_hardy_rellich(params, f, params.R)
                   for f in family.fields()]
    else:
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=cfg.seed)
        margins = [inequalities.estimate_sobolev_trace_constant(params, family, params.R)]
    payload = {
        "params": _params_dict(params),
        "which": args.which,
        "margins": margins,
        "min_margin": min(margins),
    }
    _emit_json(cfg, "inequalities", payload)
    return 0


def _cmd_selftest(args) -> int:
    cfg = _merge_config(args)
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")

    from .special_functions import bessel_zero

    params10 = WeightParams(s=1.5, N=1)
    area = core.integrate_halfball(lambda rho, a: np.ones_like(rho * a), params10, 1.0)
    record("halfdisk-area", abs(area - math.pi / 2) < 1e-12, f"{area:.14f}")
    z1 = bessel_zero(-0.5, 1)
    record("bessel-zero", abs(z1 - math.pi / 2) < 1e-10, f"{z1:.12f}")
    modes = hemisphere.hemisphere_eigs(params10, per_k=5, resolution=256, refinements=1)
    mus = [m.mu for m in modes[:5]]
    record("hemisphere-n1", max(abs(m - e) for m, e in zip(mus, [0, 1, 4, 9, 16])) < 1e-4,
           str([round(m, 6) for m in mus]))
    sol_p = profile.solve_profile(0.0, resolution=2048)
    record("profile-J", abs(sol_p.J - 2.0) < 1e-3, f"J = {sol_p.J:.6f}")
    params35 = WeightParams(s=1.25, N=3)
    mode = hemisphere.polynomial_mode(params35, 1)
    sol = synthesis.synthesize(params35, [(mode, 1.0, 0.0)])
    freq = almgren_mod.frequency(sol, 0.5)
    record("pure-mode-frequency", abs(freq - mode.sigma_plus) < 1e-9, f"N(0.5) = {freq:.10f}")
    fam = inequalities.TestFamily(params=params35, kind="bumps", count=5, seed=cfg.seed)
    margins = [inequalities.check_hardy_trace(params35, f, 1.0) for f in fam.fields()]
    record("hardy-margins", min(margins) > -1e-12, f"min = {min(margins):.3e}")
    ok = all(c["ok"] for c in checks)
    _emit_json(cfg, "selftest", {"checks": checks, "ok": ok})
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almgren-lab",
        description="numerical laboratory for weighted extension problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--s", type=float, default=None, help="order s in (1, 2)")
        p.add_argument("--N", type=int, default=None, help="spatial dimension")
        p.add_argument("--R", type=float, default=None, help="reference radius")
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")

    p = sub.add_parser("spectrum", help="eigenvalue listings")
    p.add_argument("which", choices=["cylinder", "hemisphere"])
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--k-max", type=int, default=None,
                   help="list only the sectors k <= K_MAX (hemisphere)")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("profile", help="extension profile and constant")
    p.add_argument("--b", type=float, default=None,
                   help="weight exponent b = 3 - 2s (alternative to --s)")
    p.add_argument("--t-max", type=float, default=24.0)
    p.add_argument("--samples", type=int, default=64)
    common(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("extend", help="extend a torus sample from CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--t-levels", default="0.0,0.5,1.0")
    common(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("synthesize", help="build an exact separable solution")
    p.add_argument("--spec", required=True, help="JSON file with params and terms")
    common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("fit", help="fit blow-up coefficients from CSV samples")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma-candidates", required=True)
    common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("almgren", help="frequency trace and vanishing order")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=_cmd_almgren)

    p = sub.add_parser("check-inequalities", help="verify weighted inequalities")
    p.add_argument("--which", choices=["hardy", "rellich", "sobolev"], required=True)
    p.add_argument("--count", type=int, default=20)
    common(p)
    p.set_defaults(func=_cmd_check_inequalities)

    p = sub.add_parser("selftest", help="run the quick invariant suite")
    common(p)
    p.set_defaults(func=_cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use; parse_args keeps no state in it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (AlmgrenLabError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
