"""Command-line front end: spectra, profiles, syntheses and diagnostics.

Subcommands: spectrum {cylinder,hemisphere}, profile, extend, synthesize,
fit, almgren, check-inequalities, selftest; each spectrum listing is a
subcommand of its own.  Each takes --out, --config and only the options it
reads.  JSON artifacts are one line with sorted keys and
carry a top-level "schema": "almgren-lab/1" field; CSV files use a header row
and 17 significant digits.  A JSON config file sets options of the
subcommand's own (among s, N, R, resolution, seed, out); its values are
parsed as the flags are, and explicit flags win.  Exit codes: 0 success, 2
validation error, 3 numerical-failure report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import almgren as almgren_mod
from . import core, cylinder, hemisphere, inequalities, profile, synthesis
from .core import AlmgrenLabError, DomainError, InputError, WeightParams, _count, _number

SCHEMA = "almgren-lab/1"
_NUMERIC_FAILURES = (
    core.UnmatchedExponentError,
    core.ClassificationError,
    core.TraceProportionalityError,
    core.VanishingDenominatorError,
)


# The options a config file may set, keyed by name; each is the flag --name.
_OPTIONS = {
    "s": {"type": float, "default": 1.5, "help": "order s in (1, 2)"},
    "N": {"type": int, "default": 1, "help": "spatial dimension"},
    "R": {"type": float, "default": 1.0, "help": "reference radius"},
    "resolution": {"type": int, "default": 16384, "help": "profile grid cells"},
    "seed": {"type": int, "default": 0, "help": "test-family seed"},
    "out": {"help": "output directory"},
}


def _add_options(p, *names, **spec) -> None:
    """Add the table's options `names` to a parser or group; `spec` overrides keywords."""
    for name in names:
        p.add_argument(f"--{name}", **{**_OPTIONS[name], **spec})


def _emit_json(args, name: str, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    try:   # compact, so json runs its C encoder (indent selects the Python one)
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:   # NaN or Infinity: not valid JSON
        raise DomainError(f"{name} holds a non-finite value: {exc}") from exc
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name + ".json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _emit_csv(args, name: str, header: list[str], rows: np.ndarray,
              axes=None, levels=None) -> None:
    """Write a float table under a header: 17 significant digits, CRLF line ends as csv.writer.

    A plain table passes one array row per line.  A table of levels over a
    grid passes the grid's `axes`, the `levels` and `rows` of shape
    (len(levels),) + grid shape: each line holds a point's coordinates, its
    level and the value, levels outermost and the points in
    meshgrid(indexing="ij") order.  Each axis value and level is formatted once.
    """
    rows = np.asarray(rows, dtype=float)
    numbers = [rows] if axes is None else [rows, *axes, levels]
    if not all(np.all(np.isfinite(a)) for a in numbers):
        raise DomainError(f"{name} holds a non-finite value")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    if axes is None:   # one % over the whole table
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        body = [line * rows.shape[0] % tuple(rows.ravel().tolist())]
    else:   # per level, one % over the values; coordinates and level are text already
        points = [",".join(p) for p in itertools.product(*map(_cells, axes))]
        body = []
        for t, level in zip(_cells(levels), rows):
            tail = f",{t},%.17g\r\n"
            body.append((tail.join(points) + tail) % tuple(level.ravel().tolist()))
    text = head.getvalue() + "".join(body)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name + ".csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cells(values) -> list[str]:
    """Each number as the text of a CSV cell, 17 significant digits."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _params_dict(params: WeightParams) -> dict:
    return {"s": params.s, "b": params.b, "N": params.N, "R": params.R,
            "paper_regime": params.paper_regime}


def _cmd_hemisphere_spectrum(args) -> int:
    params = WeightParams(s=args.s, N=args.N)
    modes = hemisphere.hemisphere_modes(params, args.count, k_max=args.k_max)
    payload = {
        "params": _params_dict(params),
        "modes": [
            {"l": m.ell, "k": m.k, "mu": m.mu, "sigma_plus": m.sigma_plus,
             "sigma_minus": m.sigma_minus, "multiplicity": m.multiplicity}
            for m in modes
        ],
    }
    _emit_json(args, "hemisphere_spectrum", payload)
    return 0


def _cmd_cylinder_spectrum(args) -> int:
    params = WeightParams(s=args.s, N=args.N, R=args.R)
    modes = [{"n": mode.n, "m": mode.m, "mu_n": mode.mu_n, "bessel_zero": mode.zero_m,
              "lambda": mode.eigenvalue}
             for mode in cylinder.cylinder_spectrum(params, args.count)]
    _emit_json(args, "cylinder_spectrum", {"params": _params_dict(params), "modes": modes})
    return 0


def _cmd_profile(args) -> int:
    _count(args.samples, "--samples")
    if args.b is None:
        _number(args.s, "--s", 1.0, 2.0)
    # --b round-trips through s as WeightParams.from_b does; solve_profile checks its range
    s = args.s if args.b is None else (3.0 - args.b) / 2.0
    sol = profile.solve_profile(3.0 - 2.0 * s, T_max=args.t_max, resolution=args.resolution)
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
    _emit_json(args, "profile", payload)
    return 0


def _read_table(path: str) -> np.ndarray:
    """The numbers under a CSV header, one array row per data line; blank lines skipped."""
    try:
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), None)
            lines = [(i, line) for i, line in enumerate(fh.read().splitlines(), start=2)
                     if line.strip()]
        body = [line for _, line in lines]
        data = np.loadtxt(body, delimiter=",", quotechar='"', ndmin=2) if body else None
    except ValueError as exc:   # a cell that is not a number, a ragged row, bad bytes
        raise InputError(f"{path}: {str(exc).partition('; use `usecols`')[0]}") from None
    if not header:
        raise InputError(f"{path}: no header row")
    if data is None:
        raise InputError(f"{path}: no data rows under the header")
    if data.shape[1] != len(header):
        raise InputError(f"{path}: {data.shape[1]} columns under a header of {len(header)}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():   # loadtxt reads nan and inf as numbers
        number, line = lines[int(np.argmin(finite))]
        raise InputError(f"{path}: line {number} holds a value that is not finite: {line!r}")
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
    length = float(axes[0][1] - axes[0][0]) * shape[0]
    # the FFT reads a uniform grid on a cube; printed coordinates agree to about 1e-15
    for d, axis in enumerate(axes):
        if axis.size < 2:
            continue
        steps = np.diff(axis)
        step = float(np.mean(steps))
        if np.max(np.abs(steps - step)) > 1e-9 * step:
            raise InputError(f"{path}: x{d + 1} is not evenly spaced")
        if abs(step * axis.size - length) > 1e-9 * length:
            raise InputError(f"{path}: x{d + 1} spans a box of length {step * axis.size:.17g}, "
                             f"x1 one of {length:.17g}; the grid must be a cube")
    order = np.lexsort([coords[:, d] for d in reversed(range(dim))])
    grid = values[order].reshape(shape)
    return grid, length, axes


def _cmd_extend(args) -> int:
    grid, length, axes = _read_field_csv(args.input)
    if args.N not in (None, len(axes)):
        raise InputError(f"--N {args.N} does not match {args.input}, "
                         f"which has {len(axes)} coordinate columns")
    params = WeightParams(s=args.s, N=len(axes))
    t_levels = _number_list(args.t_levels, "--t-levels")
    extension = profile.build_extension(params, grid, t_levels, box_length=length)
    header = [f"x{d+1}" for d in range(len(axes))] + ["t", "value"]
    _emit_csv(args, "extension", header, extension, axes=axes, levels=t_levels)
    return 0


def _read_spec(path: str, args):
    """Parameters and (l, c1, d1) terms of a JSON spec, checked before any eigensolve."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InputError("spec must be a JSON object")
    p = spec.get("params", {})
    if not isinstance(p, dict):
        raise InputError("spec params must be a JSON object")
    params = WeightParams(s=p.get("s", args.s), N=p.get("N", args.N), R=p.get("R", args.R))
    entries = spec.get("terms")
    if not isinstance(entries, list) or not entries:
        raise InputError("spec needs a non-empty list of terms")
    terms = []
    for i, t in enumerate(entries):
        if not isinstance(t, dict):
            raise InputError(f"term {i} must be a JSON object")
        terms.append((_count(t.get("l"), f"term {i}: l, which may not be past the last mode "
                             "position,", 0, hemisphere.MAX_MODES - 1, InputError),
                      *(_number(t.get(c, 0.0), f"term {i}: {c}") for c in ("c1", "d1"))))
    return params, terms


def _spec_solution(path: str, args):
    """The modes a checked spec indexes and the solution it synthesizes."""
    params, terms = _read_spec(path, args)
    # a spec's "l" is a position in the list of closed-form modes
    modes = hemisphere.hemisphere_modes(params, max(t[0] for t in terms) + 1)
    return modes, synthesis.synthesize(params, terms, modes=modes)


def _cmd_synthesize(args) -> int:
    _, sol = _spec_solution(args.spec, args)
    payload = {
        "params": _params_dict(sol.params),
        "terms": [
            {"l": t.mode.ell, "k": t.mode.k, "mu": t.mode.mu,
             "sigma_plus": t.sigma, "K": t.K if t.d1 else None,
             "c1": t.c1, "d1": t.d1}
            for t in sol.terms
        ],
    }
    _emit_json(args, "synthesis", payload)
    return 0


def _cmd_fit(args) -> int:
    params = WeightParams(s=args.s, N=args.N)
    samples = _read_table(args.input)
    candidates = _number_list(args.sigma_candidates, "--sigma-candidates")
    fit = synthesis.fit_blowup(samples, candidates, params)
    payload = {
        "sigma_used": fit.sigma_used, "c1_hat": fit.c1_hat, "d1_hat": fit.d1_hat,
        "residual": fit.residual, "delta1": fit.delta1, "delta2": fit.delta2,
        "branch": fit.branch,
    }
    _emit_json(args, "fit", payload)
    return 0


def _cmd_almgren(args) -> int:
    modes, sol = _spec_solution(args.spec, args)
    tr = almgren_mod.trace(sol)
    # gamma is matched against the sigma+ of every degree up to 3 n - 2
    # (N >= 2) or n - 1 (N = 1), n = max(4, modes the spec indexes), so a
    # limit that misses the spec's own degrees still finds its nearest rival
    need = max(4, len(modes))
    top = need - 1 if sol.params.N == 1 else 3 * need - 2
    candidates = sorted({hemisphere._exact_sigma_plus(sol.params, sigma)
                         for sigma in range(top + 1)})
    limit = almgren_mod.frequency_limit(sol, candidates=candidates, frequency_trace=tr)
    # the trace is written once the limit is found: a failed request writes nothing
    rows = np.column_stack([tr.r, tr.D, tr.H, tr.N, tr.nu1, tr.nu2])
    _emit_csv(args, "almgren_trace", ["r", "D", "H", "N", "nu1", "nu2"], rows)
    payload = {
        "params": _params_dict(sol.params),
        "gamma": limit.gamma,
        "matched_exponent": limit.matched.value,
        "matched_branch": limit.matched.kind,
        "H_limit": limit.h_limit,
        "fit_residual": limit.fit_residual,
    }
    _emit_json(args, "almgren_summary", payload)
    return 0


def _cmd_check_inequalities(args) -> int:
    _count(args.count, "--count")
    params = WeightParams(s=args.s, N=args.N, R=args.R)
    if args.which == "hardy":
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=args.seed)
        margins = [inequalities.check_hardy_trace(params, f, params.R)
                   for f in family.fields()]
    elif args.which == "rellich":
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=args.seed,
                                         mirrored=True, cutoff_radius=0.8 * params.R)
        margins = [inequalities.check_hardy_rellich(params, f, params.R)
                   for f in family.fields()]
    else:
        family = inequalities.TestFamily(params=params, kind="bumps",
                                         count=args.count, seed=args.seed)
        margins = [inequalities.estimate_sobolev_trace_constant(params, family, params.R)]
    payload = {
        "params": _params_dict(params),
        "which": args.which,
        "margins": margins,
        "min_margin": min(margins),
    }
    _emit_json(args, "inequalities", payload)
    return 0


def _cmd_selftest(args) -> int:
    _count(args.seed, "--seed", 0)   # before any check prints
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
    fam = inequalities.TestFamily(params=params35, kind="bumps", count=5, seed=args.seed)
    margins = [inequalities.check_hardy_trace(params35, f, 1.0) for f in fam.fields()]
    record("hardy-margins", min(margins) > -1e-12, f"min = {min(margins):.3e}")
    ok = all(c["ok"] for c in checks)
    _emit_json(args, "selftest", {"checks": checks, "ok": ok})
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almgren-lab",
        description="numerical laboratory for weighted extension problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *options, parent=sub):
        # no abbreviations: selftest --s 2 must not pass for --seed 2
        p = parent.add_parser(name, help=summary, allow_abbrev=False)
        _add_options(p, *options, "out")
        p.add_argument("--config", help="JSON file of option values; explicit flags win")
        # the whole path, e.g. "spectrum hemisphere": --config splices its flags in after it
        p.set_defaults(func=func, command=p.prog.removeprefix(parser.prog + " "))
        return p

    # each listing is a subcommand of its own, with the options it reads
    listings = sub.add_parser("spectrum", help="eigenvalue listings", allow_abbrev=False
                              ).add_subparsers(dest="which", required=True)
    p = command("hemisphere", _cmd_hemisphere_spectrum, "closed-form half-sphere modes",
                "s", "N", parent=listings)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--k-max", type=int, default=None, help="list only the sectors k <= K_MAX")
    p = command("cylinder", _cmd_cylinder_spectrum, "half-cylinder modes", "s", "N", "R",
                parent=listings)
    p.add_argument("--count", type=int, default=6)

    p = command("profile", _cmd_profile, "extension profile and constant", "resolution")
    order = p.add_mutually_exclusive_group()
    _add_options(order, "s")
    order.add_argument("--b", type=float, default=None,
                       help="weight exponent b = 3 - 2s (instead of --s)")
    p.add_argument("--t-max", type=float, default=24.0)
    p.add_argument("--samples", type=int, default=64)

    p = command("extend", _cmd_extend, "extend a torus sample from CSV", "s")
    _add_options(p, "N", default=None, help="spatial dimension: the CSV's coordinate columns")
    p.add_argument("--input", required=True)
    p.add_argument("--t-levels", default="0.0,0.5,1.0")

    for name, func, summary in (
            ("synthesize", _cmd_synthesize, "build an exact separable solution"),
            ("almgren", _cmd_almgren, "frequency trace and vanishing order")):
        p = command(name, func, summary, "s", "N", "R")   # the spec's default params
        p.add_argument("--spec", required=True, help="JSON file with params and terms")

    p = command("fit", _cmd_fit, "fit blow-up coefficients from CSV samples", "s", "N")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma-candidates", required=True)

    p = command("check-inequalities", _cmd_check_inequalities, "verify weighted inequalities",
                "s", "N", "R", "seed")
    p.add_argument("--which", choices=["hardy", "rellich", "sobolev"], required=True)
    p.add_argument("--count", type=int, default=20)

    command("selftest", _cmd_selftest, "run the quick invariant suite", "seed")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use; parse_args keeps no state in it."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The flags of argv over the values of its --config file, all through the flags' types."""
    args = _parser().parse_args(argv)
    if not args.config:
        return args
    words = len(args.command.split())
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError(f"--config must hold a JSON object, got {type(data).__name__}")
    known = sorted(set(_OPTIONS) & set(vars(args)))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise InputError(f"--config has unknown keys {unknown}; "
                         f"{args.command} reads the keys {known}")
    for key, value in data.items():
        if type(value) not in (str, int, float):
            raise InputError(f"--config {key} must be a string or a number, got {value!r}")
    if getattr(args, "b", None) is not None:   # an explicit --b outranks a config s
        data.pop("s", None)
    # the file's values as flags ahead of the explicit ones, which then win
    return _parser().parse_args(argv[:words] + [f"--{k}={v}" for k, v in data.items()]
                                + argv[words:])


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except SystemExit as exc:   # argparse's exit: help, or a malformed option
        return 2 if exc.code not in (0, None) else 0
    except _NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (AlmgrenLabError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
