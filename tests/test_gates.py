"""Every public entry point against hostile arguments, in the library and on the command line.

Each row of `_ROWS` is one entry point with valid keyword arguments; every
keyword is a slot that the property test replaces with a hostile value or a
random float.  A call must end in an `AlmgrenLabError` or in a finite result,
with no warning.  Every slot, paired with every value of `HOSTILE`, is an
explicit example, so each run covers that whole table; the random floats
come on top.  The command-line test draws argv from each subcommand's option
table and asserts exit 0 with finite JSON or CSV, or exit 2 (3 for a
numerical-failure report) with empty stdout and one `error:` (`numerical
failure:`) line.
"""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import almgren_lab
from almgren_lab import AlmgrenLabError, WeightParams, cli, core, inequalities, profile
from almgren_lab import special_functions as sf
from almgren_lab import almgren as am
from almgren_lab import cylinder as cy
from almgren_lab import hemisphere as hs
from almgren_lab import synthesis as sy

HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1.0, 0, True, "1", None, [], [[0.1]]]

_P = WeightParams(s=1.5, N=2)
_P1 = WeightParams(s=1.5, N=1)
_P3 = WeightParams(s=1.25, N=3)             # N > 2s: the Hardy-Rellich regime
_MODE = hs.polynomial_mode(_P, 1)
_SOL = sy.synthesize(_P, [(_MODE, 1.0, 0.5)])
_GRID = core.AngularGrid1D.gauss(2, 0.2, 8)
_FV = profile.solve_profile(0.2, resolution=512)
_TORUS = np.cos(np.arange(16) * 2 * math.pi / 16) + 0.3
_LAM = np.geomspace(0.3, 0.02, 8)
_SAMPLES = np.column_stack([_LAM, _LAM ** 2, 0.5 * _LAM ** 2]).tolist()
_ONE = lambda rho, angle: np.ones(np.broadcast(rho, angle).shape)
_BUMP = inequalities.GaussianBumps([(1.0, 0.3, 0.2)])
_MIRRORED = inequalities.CutoffField(inequalities.GaussianBumps([(1.0, 0.25, 0.18)],
                                                                mirrored=True), 0.8)
_MARGIN = {"n_radial": 32, "n_angular": 8}


def _hardy(field):
    return inequalities.check_hardy_trace(_P, field, 1.0, **_MARGIN)


# entry point covered -> (call, valid keywords); every keyword is a slot
_ROWS = {
    "WeightParams": (WeightParams, {"s": 1.5, "N": 2, "R": 1.0}),
    "WeightParams.from_b": (WeightParams.from_b, {"b": 0.2, "N": 2, "R": 1.0}),
    "AngularGrid1D.gauss": (core.AngularGrid1D.gauss, {"N": 2, "b": 0.2, "n": 8}),
    "AngularGrid1D.integrate_bare": (_GRID.integrate_bare, {"values": np.ones(8)}),
    "integrate_halfball": (lambda r, n_radial, n_angular: core.integrate_halfball(
        _ONE, _P, r, n_radial=n_radial, n_angular=n_angular),
        {"r": 1.0, "n_radial": 16, "n_angular": 16}),
    "integrate_halfsphere": (lambda r, n_angular: core.integrate_halfsphere(
        lambda a: np.cos(a), _P, r, n_angular=n_angular), {"r": 1.0, "n_angular": 16}),
    "angle_to_xt": (lambda r, angle: core.angle_to_xt(_P, r, angle), {"r": 0.5, "angle": 0.3}),
    "gauss_jacobi": (core.gauss_jacobi, {"n": 8, "p": 0.5}),
    "split_gauss_jacobi": (core.split_gauss_jacobi, {"n": 8, "p": 0.5}),
    "unit_sphere_area": (core.unit_sphere_area, {"dim": 2}),
    "weighted_angular_moment": (core.weighted_angular_moment, {"exp_sin": 1.0, "exp_cos": 0.5}),
    "bessel_j": (sf.bessel_j, {"nu": 0.3, "t": 1.0}),
    "bessel_h": (sf.bessel_h, {"alpha": 0.5, "t": 1.0}),
    "bessel_h_deriv": (sf.bessel_h_deriv, {"alpha": 0.5, "t": 1.0}),
    "bessel_zero": (sf.bessel_zero, {"nu": 0.3, "m": 2}),
    "radial_norm_gamma": (lambda m: sf.radial_norm_gamma(_P, m), {"m": 2}),
    "dirichlet_eigs": (cy.dirichlet_eigs, {"N": 2, "R": 1.0, "count": 3}),
    "cylinder_mode": (lambda n, m: cy.cylinder_mode(_P, n, m), {"n": 2, "m": 1}),
    "cylinder_spectrum": (lambda count: cy.cylinder_spectrum(_P, count), {"count": 3}),
    "hemisphere_eigs": (lambda **kw: hs.hemisphere_eigs(_P, **kw),
                        {"k_max": 1, "per_k": 2, "resolution": 64, "refinements": 0}),
    "hemisphere_modes": (lambda count, k_max: hs.hemisphere_modes(_P, count, k_max),
                         {"count": 4, "k_max": 2}),
    "polynomial_mode": (lambda sigma, k: hs.polynomial_mode(_P, sigma, k), {"sigma": 2, "k": 0}),
    "sigma_exponents": (lambda mu: hs.sigma_exponents(_P, mu), {"mu": 2.0}),
    "BesselProfile": (profile.BesselProfile, {"b": 0.2}),
    "BesselProfile.phi_at": (profile.BesselProfile(0.2).phi_at, {"tau": [0.0, 0.5]}),
    "BesselProfile.zeta_at": (profile.BesselProfile(0.2).zeta_at, {"tau": 0.5}),
    "ProfileSolution.phi_at": (_FV.phi_at, {"tau": [0.0, 0.5]}),
    "ProfileSolution.zeta_at": (_FV.zeta_at, {"tau": 0.5}),
    "solve_profile": (profile.solve_profile, {"b": 0.2, "T_max": 24.0, "resolution": 512}),
    "extension_constant": (profile.extension_constant, {"b": 0.2}),
    "build_extension": (lambda **kw: profile.build_extension(_P1, **kw),
                        {"u": _TORUS, "t_levels": [0.0, 0.5], "box_length": 2 * math.pi}),
    "extension_energy_identity": (lambda **kw: profile.extension_energy_identity(_P1, **kw),
                                  {"u": _TORUS, "box_length": 2 * math.pi, "t_max": 30.0,
                                   "n_t": 40}),
    "trace_laplacian_check": (lambda **kw: profile.trace_laplacian_check(_P1, **kw),
                              {"u": _TORUS, "box_length": 2 * math.pi, "n_shells": 2}),
    "synthesize": (lambda spec: sy.synthesize(_P, spec), {"spec": [(_MODE, 1.0, 0.5)]}),
    "eval_solution": (lambda **kw: sy.eval_solution(_SOL, **kw),
                      {"r": 0.3, "psi": 0.2, "chi": 0.0}),
    "fourier_coefficient": (lambda lam: sy.fourier_coefficient(_SOL, _MODE, lam), {"lam": 0.3}),
    "k_constant": (lambda mode: sy.k_constant(_P, mode), {"mode": 2.0}),
    "fit_blowup": (lambda **kw: sy.fit_blowup(params=_P, **kw),
                   {"samples": _SAMPLES, "sigma_candidates": [1.0, 2.0], "residual_tol": 1e-3}),
    "compute_DH": (lambda **kw: am.compute_DH(_SOL, **kw), {"r": 0.3, "method": "closed"}),
    "frequency": (lambda **kw: am.frequency(_SOL, **kw), {"r": 0.3, "method": "closed"}),
    "nu_decomposition": (lambda **kw: am.nu_decomposition(_SOL, **kw),
                         {"r": 0.3, "method": "quadrature"}),
    "check_pohozaev": (lambda **kw: am.check_pohozaev(_SOL, **kw), {"r": 0.3, "method": "closed"}),
    "check_H_derivative": (lambda method: am.check_H_derivative(_SOL, method),
                           {"method": "closed"}),
    "trace": (lambda **kw: am.trace(_SOL, **kw), {"radii": [0.3, 0.2, 0.1], "method": "closed"}),
    "radius_schedule": (am.radius_schedule,
                        {"R": 1.0, "per_decade": 8, "decades": 2.0, "r_max": 0.5}),
    "frequency_limit": (lambda candidates: am.frequency_limit(_SOL, candidates),
                        {"candidates": [1.0, 3.0]}),
    "GaussianBumps": (lambda components: _hardy(inequalities.GaussianBumps(components)),
                      {"components": [(1.0, 0.3, 0.2)]}),
    "QuadraticField": (lambda a0, a1, a2: _hardy(inequalities.CutoffField(
        inequalities.QuadraticField(a0, a1, a2), 0.8)), {"a0": 1.0, "a1": 0.5, "a2": -0.2}),
    "CutoffField": (lambda rho0: _hardy(inequalities.CutoffField(_BUMP, rho0)), {"rho0": 0.8}),
    "SeparableModeField": (lambda sigma, c1: _hardy(inequalities.SeparableModeField(
        _P, sigma, c1)), {"sigma": 2, "c1": 1.0}),
    "TestFamily": (lambda **kw: [_hardy(f) for f in inequalities.TestFamily(_P, **kw).fields()],
                   {"count": 2, "seed": 1, "cutoff_radius": 0.8}),
    "critical_exponent": (lambda s, N: inequalities.critical_exponent(WeightParams(s, N)),
                          {"s": 1.5, "N": 3}),
    "check_hardy_trace": (lambda **kw: inequalities.check_hardy_trace(_P, _BUMP, **kw),
                          {"r": 1.0, **_MARGIN}),
    "check_hardy_rellich": (lambda **kw: inequalities.check_hardy_rellich(_P3, _MIRRORED, **kw),
                            {"support_radius": 1.0, **_MARGIN}),
    "estimate_sobolev_trace_constant": (
        lambda **kw: inequalities.estimate_sobolev_trace_constant(
            _P, inequalities.TestFamily(_P, count=1, seed=1), **kw),
        {"r": 1.0, **_MARGIN, "n_trace": 16}),
}
_SLOTS = [(row, slot) for row, (_, valid) in _ROWS.items() for slot in valid]
# results made by the entry points, never called with a user's numbers
_RECORDS = {"CoefficientFit", "CylinderMode", "DirichletSpectrum", "FrequencyTrace",
            "SeparableSolution", "SpectralMode"}


def _finite_result(x) -> bool:
    """True when every number in x (arrays, sequences and dataclass fields) is finite."""
    if isinstance(x, numbers.Number) and not isinstance(x, bool):
        return bool(np.isfinite(x))
    if isinstance(x, np.ndarray):
        return x.dtype.kind not in "fc" or bool(np.all(np.isfinite(x)))
    if isinstance(x, (list, tuple)):
        return all(map(_finite_result, x))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return all(_finite_result(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


def _with_examples(*cases):
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


@settings(max_examples=150)
@given(slot=st.sampled_from(_SLOTS), value=st.one_of(st.sampled_from(HOSTILE), st.floats()))
@_with_examples(*((slot, value) for slot in _SLOTS for value in HOSTILE))
def test_every_entry_point_refuses_hostile_arguments_or_returns_finite_values(slot, value):
    row, name = slot
    call, valid = _ROWS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the Sobolev estimate's documented notice for a member whose trace vanishes
        warnings.filterwarnings("ignore", "trace vanishes", UserWarning)
        try:
            result = call(**{**valid, name: value})
        except AlmgrenLabError:
            return
    assert _finite_result(result), (row, name, value, result)


def test_every_valid_row_returns_a_finite_result():
    # the rows' valid keywords are valid: the hostile test's refusals are the values'
    for row, (call, valid) in _ROWS.items():
        assert _finite_result(call(**valid)), row


def _public_entry_points():
    names = {(name, getattr(almgren_lab, name)) for name in almgren_lab.__all__}
    for mod in (core, sf, inequalities):
        names |= {(name, obj) for name, obj in vars(mod).items()
                  if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__}
    return {name for name, obj in names if callable(obj) and not inspect.ismodule(obj)
            and not (inspect.isclass(obj) and issubclass(obj, BaseException))}


def test_every_public_entry_point_has_a_row():
    covered = {row.partition(".")[0] for row in _ROWS} | _RECORDS
    assert _public_entry_points() - covered == set()


# -- the command line -------------------------------------------------------

_CLI_HOSTILE = ["nan", "inf", "-inf", "1e308", "-1", "0", "True", "1", "", "[]", "[[0.1]]"]
_JSON_HOSTILE = [math.nan, math.inf, 1e308, -1, 0, True, "1", None, [], [[0.1]]]


# each subcommand's options with a valid value; "@name" is an input file of `cli_files`
_CLI = {
    "spectrum hemisphere": {"--s": "1.5", "--N": "2", "--count": "4", "--k-max": "2"},
    "spectrum cylinder": {"--s": "1.5", "--N": "1", "--R": "1.0", "--count": "3"},
    "profile": {"--s": "1.5", "--resolution": "2048", "--t-max": "24", "--samples": "4"},
    "extend": {"--s": "1.5", "--N": "1", "--input": "@u.csv", "--t-levels": "0,0.5"},
    "synthesize": {"--spec": "@spec.json", "--s": "1.5", "--N": "2", "--R": "1.0"},
    "almgren": {"--spec": "@spec.json", "--s": "1.5", "--N": "2", "--R": "1.0"},
    "fit": {"--s": "1.5", "--N": "2", "--input": "@samples.csv", "--sigma-candidates": "1,2"},
    "check-inequalities": {"--which": "hardy", "--s": "1.25", "--N": "3", "--R": "1.0",
                           "--seed": "1", "--count": "2"},
    "selftest": {"--seed": "0"},
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("gates")
    x = np.arange(16) * 2 * math.pi / 16
    with open(root / "u.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["x1", "value"], *([f"{a:.17g}", f"{math.cos(a):.17g}"]
                                                     for a in x)])
    (root / "samples.csv").write_text("lambda,phi,phi_tilde\n" + "".join(
        f"{l:.17g},{l ** 2:.17g},{0.5 * l ** 2:.17g}\n" for l in _LAM))
    (root / "spec.json").write_text(json.dumps({"params": {"s": 1.25, "N": 3},
                                                "terms": [{"l": 1, "c1": 1.0, "d1": 0.5}]}))
    return root


def test_cli_table_lists_every_option_of_every_subcommand():
    # profile's --b excludes --s; --out and --config are not numbers (--config is drawn apart)
    for command, options in _CLI.items():
        parser = cli._parser()
        for word in command.split():
            parser = next(a for a in parser._actions if a.dest in ("command", "which")
                          ).choices[word]
        flags = {a.option_strings[-1] for a in parser._actions if a.option_strings}
        assert flags - {"-h", "--help", "--out", "--config", "--b"} == set(options), command


@st.composite
def _argv(draw):
    """(command, flags with one hostile value, optional --config key and value)."""
    command = draw(st.sampled_from(sorted(_CLI)))
    options = _CLI[command]
    flag = draw(st.sampled_from(sorted(options)))
    bad = draw(st.one_of(st.sampled_from(_CLI_HOSTILE), st.floats().map(repr)))
    tail = [a for k, v in options.items() if k != flag for a in (k, v)] + [f"{flag}={bad}"]
    config = draw(st.none() | st.tuples(st.sampled_from(sorted(set(cli._OPTIONS) - {"out"})),
                                        st.one_of(st.sampled_from(_JSON_HOSTILE), st.floats())))
    return command, tail, config


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _json_numbers(item)
    elif isinstance(node, float):
        yield node


def _finite_output(text: str) -> bool:
    """JSON (selftest prints its checks above it) or CSV whose numbers are all finite."""
    last = text.strip().splitlines()[-1]
    if last.startswith("{"):
        return all(map(math.isfinite, _json_numbers(json.loads(last))))
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return bool(rows) and all(math.isfinite(float(c)) for row in rows for c in row)


@settings(max_examples=60)
@given(case=_argv())
@example(case=("check-inequalities", ["--which", "hardy", "--R", "1e308"], None))
@example(case=("check-inequalities", ["--which", "rellich", "--R", "1e308"], None))
@example(case=("check-inequalities", ["--which", "sobolev", "--R", "1e308"], None))
def test_every_command_line_exits_0_with_finite_output_or_refuses_in_one_line(cli_files, case):
    command, tail, config = case
    tail = [str(cli_files / a[1:]) if a.startswith("@") else a for a in tail]
    if config is not None:
        path = cli_files / "config.json"
        path.write_text(json.dumps(dict([config])))
        tail += ["--config", str(path)]
    code, out, err = _run(command.split() + tail)
    assert "Traceback" not in err
    if code == 0:
        assert _finite_output(out), (tail, out[-300:])
    else:   # exit 3 reports a numerical failure: a fit that no candidate explains
        assert code in (2, 3), (tail, code, err)
        lead = "error:" if code == 2 else "numerical failure:"
        assert out == "" and sum(lead in line for line in err.splitlines()) == 1, (tail, err)
