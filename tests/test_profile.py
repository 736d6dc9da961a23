import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from almgren_lab import (
    DomainError,
    InputError,
    SolverError,
    TraceProportionalityError,
    WeightParams,
    build_extension,
    extension_constant,
    solve_profile,
    trace_laplacian_check,
)
from almgren_lab import profile
from almgren_lab.core import _Tridiagonal, gauss_jacobi
from almgren_lab.profile import (
    MAX_PROFILE_CELLS,
    MAX_PROFILE_STEP,
    BesselProfile,
    _cached_profile,
    _cell_masses_tb,
    _frequency_grid,
    extension_energy_identity,
)


def phi_oracle(b, t):
    """Decaying solution of the profile equation via modified Bessel functions.

    For any b the combination [t^a K_a(t) + t^{a+1} K_{a-1}(t)/(2a)] with
    a = (1-b)/2, normalized to 1 at t = 0, satisfies the fourth-order
    equation, has vanishing slope at 0 and decays; independent of the
    finite-volume minimizer being tested.
    """
    a = (1.0 - b) / 2.0
    norm = 2.0 ** (a - 1.0) * gamma_fn(a)
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = (tp ** a * kv(a, tp) + tp ** (a + 1) * kv(a - 1, tp) / (2 * a)) / norm
    return out


def constant_oracle(b):
    a = (1.0 - b) / 2.0
    return 2.0 ** (1.0 - 2.0 * a) * gamma_fn(1.0 - a) / gamma_fn(1.0 + a)


@pytest.fixture(scope="module")
def sol_b0():
    return solve_profile(0.0)


def test_b0_closed_form(sol_b0):
    exact = (1.0 + sol_b0.t) * np.exp(-sol_b0.t)
    mask = sol_b0.t <= 10.0
    assert np.max(np.abs(sol_b0.phi - exact)[mask]) <= 1e-6
    assert abs(sol_b0.J - 2.0) <= 1e-5


def test_preconditions():
    with pytest.raises(DomainError):
        solve_profile(1.5)
    for t_max in (10.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="T_max"):
            solve_profile(0.0, T_max=t_max)
    with pytest.raises(DomainError):
        solve_profile(0.0, resolution=100)
    with pytest.raises(DomainError, match=str(MAX_PROFILE_CELLS)):
        solve_profile(0.0, resolution=MAX_PROFILE_CELLS + 1)
    # the step cap: J drifts from C_b as h grows
    for t_max in (5000.0, 32.0 + 1e-9):
        with pytest.raises(DomainError, match=str(MAX_PROFILE_STEP)):
            solve_profile(0.0, T_max=t_max, resolution=512)
    assert solve_profile(0.0, T_max=32.0, resolution=512).J == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
def test_against_bessel_oracle(b):
    sol = solve_profile(b)
    mask = sol.t <= 10.0
    err = np.max(np.abs(sol.phi - phi_oracle(b, sol.t))[mask])
    assert err < 5e-6
    assert abs(sol.J - constant_oracle(b)) < 1e-5


@pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
def test_strictly_decreasing_on_initial_interval(b):
    sol = solve_profile(b)
    mask = (sol.t >= 0.0) & (sol.t <= 3.0)
    diffs = np.diff(sol.phi[mask])
    assert np.all(diffs < 0)


def test_refinement_stabilizes_J():
    a = solve_profile(0.3, resolution=8192)
    b = solve_profile(0.3, resolution=16384)
    assert abs(a.J - b.J) / b.J < 1e-6 * 8  # halving changes J at the h^2 level


def test_zeta_solves_its_own_equation(sol_b0):
    # declared tolerance for the interior weighted residual of D_b zeta = zeta
    assert sol_b0.ode_residual < 1e-3


def test_growth_guard(sol_b0):
    # |phi| <= C (1 + t^{(3-b)/2}) holds with C = 1 since phi decays from 1
    bound = 1.0 + sol_b0.t ** ((3.0 - sol_b0.b) / 2.0)
    assert np.all(np.abs(sol_b0.phi) <= bound + 1e-12)


def test_J_equals_quadratic_form(sol_b0):
    # J evaluated as the defect form equals the three-term quadratic form;
    # the discrete identity holds by summation by parts with face gradients
    masses = np.diff(
        np.concatenate([[0.0], sol_b0.t[:-1] + np.diff(sol_b0.t) / 2, [sol_b0.T_max]])
        ** (sol_b0.b + 1.0)
    ) / (sol_b0.b + 1.0)
    lap = sol_b0.zeta + sol_b0.phi
    h = sol_b0.T_max / (sol_b0.t.size - 1)
    dphi = np.diff(sol_b0.phi)
    grad_energy = float(((sol_b0.t[:-1] + h / 2.0) ** sol_b0.b * dphi) @ dphi) / h
    J2 = float(masses @ (lap ** 2)) + 2.0 * grad_energy \
        + float(masses @ (sol_b0.phi ** 2))
    assert abs(J2 - sol_b0.J) / sol_b0.J < 1e-14


def test_euler_lagrange_weak_form(sol_b0):
    # int t^b zeta (D_b psi - psi) = 0 for test functions vanishing at node 0,
    # where phi(0) = 1 is fixed; every other node, T_max's included, is free
    rng = np.random.default_rng(3)
    t = sol_b0.t
    n = t.size - 1
    h = t[1] - t[0]
    masses = np.diff(
        np.concatenate([[0.0], t[:-1] + h / 2, [sol_b0.T_max]]) ** (sol_b0.b + 1)
    ) / (sol_b0.b + 1)
    faces = (t[:-1] + h / 2) ** sol_b0.b
    scale = math.sqrt(float(masses @ sol_b0.zeta ** 2))
    for _ in range(10):
        # random smooth bump inside (0, T_max); the sine factor makes it
        # vanish at 0
        c = rng.uniform(3.0, sol_b0.T_max - 10.0)
        w = rng.uniform(0.4, 1.0)
        amp = rng.uniform(0.5, 2.0)
        psi = amp * np.exp(-((t - c) / w) ** 2) * np.sin(rng.uniform(1, 3) * t)
        psi[t < 1e-9] = 0.0
        flux = faces * np.diff(psi) / h
        lap = np.zeros_like(psi)
        lap[1:-1] = (flux[1:] - flux[:-1]) / masses[1:-1]
        lap[0] = flux[0] / masses[0]
        lap[-1] = -flux[-1] / masses[-1]
        resid = float(masses @ (sol_b0.zeta * (lap - psi)))
        psi_norm = math.sqrt(float(masses @ psi ** 2))
        # the bordered solve leaves at most 9.2e-16 here; at b = 0 the masses
        # above, differences of primitives, are exact enough for this gate
        assert abs(resid) <= 1e-12 * scale * max(psi_norm, 1.0)


def test_weighted_flux_vanishes_at_zero(sol_b0):
    h = sol_b0.t[1] - sol_b0.t[0]
    faces = sol_b0.t[:-1] + h / 2
    flux = faces ** sol_b0.b * np.diff(sol_b0.phi) / h
    assert abs(flux[0]) < abs(flux[10])
    assert abs(flux[0]) < 1e-3


def test_extension_constant_cached_and_continuous():
    assert extension_constant(0.0) == pytest.approx(2.0, abs=1e-5)
    for b in (-0.8, -0.2, 0.5, 0.9):   # the closed form C_b
        assert extension_constant(b) == pytest.approx(constant_oracle(b), rel=1e-13)
    assert extension_constant(0.0) is extension_constant(0.0) or True  # cached call
    c0 = extension_constant(0.0)
    c1 = extension_constant(0.01)
    assert abs(c1 - c0) <= 0.5
    for b in (-0.6, -0.2, 0.2, 0.6):
        assert extension_constant(b) > 0


def test_build_extension_single_mode():
    p = WeightParams(s=1.5, N=1)
    n = 64
    x = np.arange(n) * 2 * math.pi / n
    u = np.cos(3 * x)
    prof = solve_profile(0.0)
    levels = [0.0, 0.4, 1.1]
    U = build_extension(p, u, levels, profile=prof)
    for i, tl in enumerate(levels):
        assert_allclose(U[i], np.cos(3 * x) * prof.phi_at(3 * tl), atol=1e-12)


def test_build_extension_zero_and_mean():
    p = WeightParams(s=1.5, N=1)
    u = np.zeros(32)
    U = build_extension(p, u, [0.0, 1.0])
    assert np.all(U == 0.0)
    u = np.full(32, 2.5)
    U = build_extension(p, u, [0.0, 1.0, 5.0])
    assert_allclose(U, 2.5, rtol=1e-13)  # zero mode constant in t


class _PhiSpy:
    """A profile that records each phi_at argument and delegates to the real one."""

    def __init__(self, prof):
        self.prof, self.calls = prof, []

    def phi_at(self, tau):
        self.calls.append(np.array(tau, copy=True))
        return self.prof.phi_at(tau)


@pytest.mark.parametrize("kind", ["bessel", "fv"])
def test_build_extension_evaluates_phi_once_per_distinct_frequency(kind):
    # one phi_at call per level on the distinct |xi| only, and the gathered
    # multiplier gives the levels of the per-point product bit for bit
    p = WeightParams(s=1.42, N=2)
    prof = BesselProfile(p.b) if kind == "bessel" else solve_profile(p.b, resolution=512)
    x = np.arange(12) * 2 * math.pi / 12
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    u = 0.3 + np.cos(x1 + 2 * x2 + 0.4) - 0.5 * np.sin(2 * x1) + 0.2 * np.cos(5 * x2)
    levels = [0.0, 0.37, 1.25]
    spy = _PhiSpy(prof)
    U = build_extension(p, u, levels, profile=spy)
    _, u_hat, xi = profile._fourier_sample(u, 2 * math.pi)
    distinct = np.unique(xi)
    assert distinct.size < xi.size
    assert len(spy.calls) == len(levels)
    for tau, tl in zip(spy.calls, levels):
        assert np.array_equal(tau, distinct * tl)
    for level, tl in zip(U, levels):
        assert np.array_equal(level, np.real(np.fft.ifftn(u_hat * prof.phi_at(xi * tl))))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_build_extension_rejects_non_finite_t_levels(bad):
    p = WeightParams(s=1.5, N=1)
    u = np.cos(np.arange(32) * 2 * math.pi / 32)
    with pytest.raises(DomainError, match="finite"):
        build_extension(p, u, [0.0, bad])


def test_fv_profile_builds_its_splines_on_first_interpolation():
    sol = solve_profile(0.3, resolution=512)
    assert "_phi_spline" not in vars(sol) and "_zeta_spline" not in vars(sol)
    sol.phi_at(1.0)
    assert "_phi_spline" in vars(sol) and "_zeta_spline" not in vars(sol)
    assert sol.phi_at(sol.t[7]) == pytest.approx(sol.phi[7], rel=1e-14)
    assert sol.zeta_at(sol.t[7]) == pytest.approx(sol.zeta[7], rel=1e-14)


def test_fv_profile_interpolants_match_scipy_splines():
    # phi_at and zeta_at inside [0, T_max] are not-a-knot splines of the
    # grid samples: scipy's CubicSpline of the same samples agrees to roundoff
    interpolate = pytest.importorskip("scipy.interpolate")
    sol = solve_profile(0.4, resolution=2048)
    tau = np.concatenate([sol.t, np.linspace(0.0, sol.T_max, 997)])
    for got, samples in ((sol.phi_at(tau), sol.phi), (sol.zeta_at(tau), sol.zeta)):
        want = interpolate.CubicSpline(sol.t, samples)(tau)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_aliasing_guard():
    p = WeightParams(s=1.5, N=1)
    n = 32
    x = np.arange(n) * 2 * math.pi / n
    u = np.cos((n // 2) * x)  # pure Nyquist content
    with pytest.raises(InputError):
        build_extension(p, u, [0.0])


def _nan_top(u, bad=math.nan):
    return np.where(u > 0.9, bad, u)


_P15 = WeightParams(s=1.5, N=1)
_MALFORMED = {
    "energy-nan-sample": (lambda u: extension_energy_identity(_P15, _nan_top(u)), InputError),
    "energy-inf-sample": (lambda u: extension_energy_identity(_P15, _nan_top(u, math.inf)),
                          InputError),
    "energy-negative-t_max": (lambda u: extension_energy_identity(_P15, u, t_max=-1.0),
                              DomainError),
    "energy-infinite-t_max": (lambda u: extension_energy_identity(_P15, u, t_max=math.inf),
                              DomainError),
    "energy-negative-box": (lambda u: extension_energy_identity(_P15, u, box_length=-2.0),
                            DomainError),
    "extension-negative-box": (lambda u: build_extension(_P15, u, [0.0], box_length=-1.0),
                               DomainError),
    "extension-infinite-box": (lambda u: build_extension(_P15, u, [0.0], box_length=math.inf),
                               DomainError),
    "trace-zero-box": (lambda u: trace_laplacian_check(_P15, u, box_length=0.0), DomainError),
    "trace-nan-box": (lambda u: trace_laplacian_check(_P15, u, box_length=math.nan), DomainError),
    "trace-nan-sample": (lambda u: trace_laplacian_check(_P15, _nan_top(u)), InputError),
    "trace-zero-shells": (lambda u: trace_laplacian_check(_P15, u, n_shells=0), DomainError),
    "trace-fractional-shells": (lambda u: trace_laplacian_check(_P15, u, n_shells=2.5),
                                DomainError),
}
# b and T_max that are not real numbers: core's one weight-exponent gate
# covers b for all three profile entry points, solve_profile gates T_max
_NOT_REAL = {"none": None, "string": "0.1", "list": [0.1]}
_MALFORMED.update({
    f"{name}-{label}": (lambda u, call=call, value=value: call(value), DomainError)
    for name, call in (("solve-profile-b", lambda b: solve_profile(b, resolution=512)),
                       ("bessel-profile-b", BesselProfile),
                       ("extension-constant-b", extension_constant))
    for label, value in _NOT_REAL.items()
})
_MALFORMED.update({
    f"solve-profile-T_max-{label}": (lambda u, value=value: solve_profile(0.1, T_max=value),
                                     DomainError)
    for label, value in {"none": None, "string": "24", "list": [24.0]}.items()
})


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_fourier_side_checks_refuse_malformed_input(case):
    # one preamble gates the sample, the box length and the band limit of
    # all three; t_max and n_shells are gated where they are used, and so are
    # the profiles' b and T_max
    call, error = _MALFORMED[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call(_torus_bump(1, 32))


def _fourier_side(p, u, box_length):
    return {"extension": lambda: build_extension(p, u, [0.0, 1.0], box_length=box_length),
            "energy": lambda: extension_energy_identity(p, u, box_length=box_length),
            "trace": lambda: trace_laplacian_check(p, u, box_length=box_length)}


@settings(max_examples=40)
@given(N=st.integers(min_value=1, max_value=2), n=st.integers(min_value=4, max_value=16),
       which=st.sampled_from(["extension", "energy", "trace"]), data=st.data())
def test_fourier_side_refuses_non_finite_samples_and_bad_boxes(N, n, which, data):
    p = WeightParams(s=data.draw(st.floats(min_value=1.05, max_value=1.95), label="s"), N=N)
    u = np.asarray(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n ** N, max_size=n ** N),
                             label="u")).reshape((n,) * N)
    box = data.draw(st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
                    label="box_length")
    with pytest.raises(DomainError, match="box length"):
        _fourier_side(p, u, box)[which]()
    spoiled = u.copy()
    spoiled.flat[data.draw(st.integers(0, u.size - 1), label="at")] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
    with pytest.raises(InputError, match="non-finite"):
        _fourier_side(p, spoiled, 2.0 * math.pi)[which]()


def _torus_bump(N, n=64):
    x = np.arange(n) * 2 * math.pi / n
    grids = np.meshgrid(*([x] * N), indexing="ij")
    return np.exp(-sum((g - math.pi) ** 2 for g in grids) / 0.8)


def test_parseval_isometry_2d():
    p = WeightParams(s=1.5, N=2)
    lhs, rhs = extension_energy_identity(p, _torus_bump(2))
    assert abs(lhs - rhs) / rhs < 1e-10


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("s", [1.05, 1.3, 1.7, 1.95])
def test_energy_identity_across_orders(s, N):
    p = WeightParams(s=s, N=N)
    lhs, rhs = extension_energy_identity(p, _torus_bump(N, 32))
    assert abs(lhs - rhs) / rhs < 1e-5


@pytest.mark.parametrize("kind", ["bessel", "fv"])
def test_energy_identity_on_distinct_frequencies_is_the_per_point_sum(kind):
    # zeta is elementwise, so evaluating it once per distinct |xi| and
    # gathering must give the per-point sum bit for bit
    p = WeightParams(s=1.7, N=2)
    u = _torus_bump(2, 16)
    prof = BesselProfile(p.b) if kind == "bessel" else _cached_profile(p.b)
    n_t, t_max = 40, 30.0
    u_hat = np.fft.fftn(u)
    xi = _frequency_grid(u.shape, 2 * math.pi)
    assert np.unique(xi).size < xi.size
    x, w = gauss_jacobi(n_t, p.b)
    want = 0.0
    for tn, tw in zip(t_max * x, t_max ** (p.b + 1.0) * w):
        v = np.real(np.fft.ifftn(u_hat * xi ** 2 * prof.zeta_at(xi * tn)))
        want += tw * (2 * math.pi / 16) ** 2 * float(np.sum(v ** 2))
    lhs, _ = extension_energy_identity(p, u, profile=prof, t_max=t_max, n_t=n_t)
    assert lhs == want


def test_trace_relation_b0():
    p = WeightParams(s=1.5, N=2)
    u = _torus_bump(2)
    kappa, spread = trace_laplacian_check(p, u)
    assert abs(kappa - 2.0) / 2.0 < 0.01
    assert spread < 0.005
    kappa3, spread3 = trace_laplacian_check(p, 3.0 * u)
    assert kappa3 == kappa and spread3 == spread


def test_trace_relation_matches_profile_slope():
    # kappa = -zeta(0) = 2/(1-b) for the minimizing profile
    for b in (-0.5, 0.5):
        p = WeightParams.from_b(b, 2)
        n = 48
        x = np.arange(n) * 2 * math.pi / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.exp(-((X - math.pi) ** 2 + (Y - math.pi) ** 2) / 1.2)
        kappa, spread = trace_laplacian_check(p, u)
        assert abs(kappa - 2.0 / (1.0 - b)) / (2.0 / (1.0 - b)) < 0.02


@pytest.mark.parametrize("b", [0.5, 0.6, 0.7, 0.8, 0.9])
def test_trace_spread_bounds_the_error_as_b_grows(b):
    # the criterion-5 Gaussian on a 48 x 48 torus: as b -> 1 the t^{2 alpha}
    # branch of zeta steepens and the three-level limit degrades, but the
    # reported spread still exceeds the error against 2/(1-b); at b = 0.9
    # the spread passes 5% and the check refuses
    p = WeightParams.from_b(b, 2)
    n = 48
    x = np.arange(n) * 2 * math.pi / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.exp(-((X - math.pi) ** 2 + (Y - math.pi) ** 2) / 0.8)
    if b == 0.9:
        with pytest.raises(TraceProportionalityError, match="spread"):
            trace_laplacian_check(p, u)
        return
    kappa, spread = trace_laplacian_check(p, u)
    assert abs(kappa - 2.0 / (1.0 - b)) / (2.0 / (1.0 - b)) <= spread


def test_trace_spread_guard():
    # a profile whose zeta oscillates near 0 yields shell-dependent ratios
    # and must be flagged as failed proportionality
    from almgren_lab.profile import ProfileSolution

    p = WeightParams(s=1.5, N=2)
    prof = solve_profile(0.0, resolution=2048)
    bad_zeta = prof.zeta * np.cos(40.0 * prof.t)
    bad = ProfileSolution(b=prof.b, T_max=prof.T_max, t=prof.t.copy(),
                          phi=prof.phi.copy(), zeta=bad_zeta, J=prof.J,
                          ode_residual=prof.ode_residual)
    n = 32
    x = np.arange(n) * 2 * math.pi / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.exp(-((X - math.pi) ** 2 + (Y - math.pi) ** 2) / 1.2)
    with pytest.raises(TraceProportionalityError):
        trace_laplacian_check(p, u, profile=bad)


@pytest.mark.parametrize("b", [-0.8, -0.5, 0.0, 0.4, 0.8])
def test_closed_form_profile_matches_fv_minimizer(b):
    closed = BesselProfile(b)
    sol = solve_profile(b)
    assert np.max(np.abs(closed.phi_at(sol.t) - sol.phi)) <= 3e-6
    assert abs(closed.J - sol.J) <= 3e-6 * closed.J
    assert closed.J == pytest.approx(constant_oracle(b), rel=1e-13)
    assert_allclose(closed.phi_at(sol.t), phi_oracle(b, sol.t), rtol=1e-13, atol=1e-300)


@settings(max_examples=12)
@given(st.floats(min_value=1.05, max_value=1.95, exclude_min=True, exclude_max=True))
def test_closed_form_profile_matches_fv_minimizer_in_s(s):
    b = 3.0 - 2.0 * s
    closed = BesselProfile(b)
    sol = solve_profile(b)
    assert np.max(np.abs(closed.phi_at(sol.t) - sol.phi)) <= 3e-6
    assert abs(closed.J - sol.J) <= 3e-6 * closed.J


@pytest.mark.parametrize("b", [-0.8, -0.5, 0.0, 0.4, 0.8])
def test_closed_form_zeta_at_zero(b):
    closed = BesselProfile(b)
    s = (3.0 - b) / 2.0
    assert closed.zeta_at_zero() == pytest.approx(-1.0 / (s - 1.0), rel=1e-15)
    assert closed.zeta_at(0.0) == closed.zeta_at_zero()
    assert closed.phi_at(0.0) == 1.0
    # zeta(t) - zeta(0) = O(t^{2(s-1)}): a clear approach for s - 1 >= 1/2
    if s >= 1.5:
        assert closed.zeta_at(1e-12) == pytest.approx(closed.zeta_at_zero(), rel=1e-11)


def test_closed_form_b0_and_far_field():
    closed = BesselProfile(0.0)
    t = np.linspace(0.0, 30.0, 61)
    assert_allclose(closed.phi_at(t), (1.0 + t) * np.exp(-t), rtol=1e-14, atol=1e-300)
    assert_allclose(closed.zeta_at(t), -2.0 * np.exp(-t), rtol=1e-14, atol=1e-300)
    assert closed.J == pytest.approx(2.0, rel=1e-15)
    assert closed.phi_at(1e6) == 0.0 and closed.zeta_at(np.inf) == 0.0
    with pytest.raises(DomainError):
        closed.phi_at(-1.0)
    with pytest.raises(DomainError):
        BesselProfile(1.0)


def _dense_factors(b, T_max, n):
    """D = L - I on the nodes 0..n and the cell masses, entry by entry."""
    h = T_max / n
    t = np.linspace(0.0, T_max, n + 1)
    faces = [0.0] + [t[i] + h / 2.0 for i in range(n)] + [T_max]
    # the package's cell masses, rounded as it rounds them (the mpmath test
    # checks them); the loops below check the assembly
    masses = _cell_masses_tb(b, np.asarray(faces))
    D = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        left = faces[i] ** b if i > 0 else 0.0
        right = faces[i + 1] ** b if i < n else 0.0
        hm = h * masses[i]
        if i > 0:
            D[i, i - 1] = left / hm
        if i < n:
            D[i, i + 1] = right / hm
        D[i, i] = -(left + right) / hm - 1.0
    return D, masses


@pytest.mark.parametrize("b", [-0.6, 0.0, 0.7])
def test_bordered_identity_holds_on_the_dense_factors(b):
    # S = h m D[1:, 1:] is symmetric and -S positive definite tridiagonal;
    # the minimizer's e = (D phi)[1:] is a multiple of u = S^-1 e_1, and J is
    # m_0 (delta + g.e)^2 + e^T M e with delta and g formed from u
    T_max, n = 24.0, 512
    D, masses = _dense_factors(b, T_max, n)
    hm = T_max / n * masses
    S = hm[1:, None] * D[1:, 1:]
    i, j = np.indices(S.shape)
    assert np.all(S[np.abs(i - j) > 1] == 0.0)
    assert_allclose(S, S.T, rtol=1e-15, atol=0.0)
    np.linalg.cholesky(-S)      # raises unless -S is positive definite
    u = np.linalg.solve(S, np.eye(n)[0])
    a0 = hm[1] * D[1, 0]
    delta = D[0, 0] - D[0, 1] * a0 * u[0]
    g = D[0, 1] * hm[1:] * u

    sol = solve_profile(b, T_max, n)
    e = sol.zeta[1:]
    assert np.max(np.abs(e - (e @ u) / (u @ u) * u)) <= 1e-12 * np.max(np.abs(e))
    J = masses[0] * (delta + g @ e) ** 2 + e @ (masses[1:] * e)
    assert abs(J - sol.J) <= 1e-12 * sol.J


def _closed_form_error(s, resolution):
    b = 3.0 - 2.0 * s
    sol = solve_profile(b, resolution=resolution)
    mask = (sol.t > 0.0) & (sol.t <= 10.0)
    return float(np.max(np.abs(sol.phi - BesselProfile(b).phi_at(sol.t))[mask]))


@pytest.mark.parametrize("s", [1.25, 1.5, 1.75, 1.9])
def test_profile_converges_at_second_order(s):
    # halving h divides the error against c t^s K_s(t) by 4: no roundoff floor
    ratio = _closed_form_error(s, 8192) / _closed_form_error(s, 16384)
    assert 3.6 <= ratio <= 4.4


@pytest.mark.parametrize("s", [1.4, 1.5, 1.6, 1.7, 1.8, 1.9])
def test_profile_error_against_closed_form_at_default_resolution(s):
    assert _closed_form_error(s, 16384) <= 5e-7


@pytest.mark.parametrize("b", [-0.9, 0.0, 0.5, 0.9])
def test_profile_still_converges_at_the_resolution_cap(b):
    s = (3.0 - b) / 2.0
    ratio = (_closed_form_error(s, MAX_PROFILE_CELLS // 2)
             / _closed_form_error(s, MAX_PROFILE_CELLS))
    assert 3.6 <= ratio <= 4.4


def test_solve_profile_b0_constant_pinned(sol_b0):
    # the bordered tridiagonal solve; zeta is formed from differences, so J is
    # the value of its own grid function to roundoff (the product form read
    # 1.999999463561315, 1.2e-12 off)
    assert sol_b0.J == pytest.approx(1.9999994635589882, rel=1e-13)


def test_J_is_the_high_precision_J_of_its_grid_function(sol_b0):
    # J = sum m_i zeta_i^2 of sol_b0's own phi, faces and masses exact, in 50 digits
    mpmath = pytest.importorskip("mpmath")
    n = sol_b0.t.size - 1
    with mpmath.workdps(50):
        h = mpmath.mpf(sol_b0.T_max) / n
        faces = [mpmath.mpf(0)] + [(i + mpmath.mpf(0.5)) * h for i in range(n)] \
            + [mpmath.mpf(sol_b0.T_max)]      # b = 0: every face coefficient is 1
        phi = [mpmath.mpf(float(v)) for v in sol_b0.phi]
        flux = [mpmath.mpf(0)] + [phi[i + 1] - phi[i] for i in range(n)] + [mpmath.mpf(0)]
        J = mpmath.fsum((f1 - f0) * ((flux[i + 1] - flux[i]) / (h * (f1 - f0)) - phi[i]) ** 2
                        for i, (f0, f1) in enumerate(zip(faces, faces[1:])))
        assert abs(sol_b0.J - J) <= 1e-15 * J


@pytest.mark.parametrize("b", [-0.95, -0.6, 0.0, 0.9])
def test_cell_masses_match_high_precision(b):
    # differences of t^{b+1}/(b+1) lost up to 3e-12 of a far cell's mass
    mpmath = pytest.importorskip("mpmath")
    T_max, n = 20.0, 512
    h = T_max / n
    t = np.linspace(0.0, T_max, n + 1)
    faces = np.concatenate([[0.0], t[:-1] + h / 2.0, [T_max]])
    masses = _cell_masses_tb(b, faces)
    with mpmath.workdps(40):
        bp1 = mpmath.mpf(b) + 1
        prim = [mpmath.mpf(f) ** bp1 / bp1 for f in faces]
        err = max(abs(m / (hi - lo) - 1) for m, lo, hi in zip(masses, prim, prim[1:]))
    assert err <= 1e-15


@pytest.mark.parametrize("b, N", [(0.0, 1), (-0.5, 2), (0.6, 1)])
def test_build_extension_defaults_to_closed_form(b, N):
    p = WeightParams.from_b(b, N)
    n = 24
    x = np.arange(n) * 2 * math.pi / n
    grids = np.meshgrid(*([x] * N), indexing="ij")
    u = np.exp(sum(np.cos(g) for g in grids)) - 1.5 * np.sin(2 * grids[0])
    levels = [0.0, 0.3, 1.7]
    U = build_extension(p, u, levels)
    axes = [np.fft.fftfreq(n, d=1.0 / n)] * N
    xi = np.sqrt(sum(m ** 2 for m in np.meshgrid(*axes, indexing="ij")))
    u_hat = np.fft.fftn(u)
    for i, tl in enumerate(levels):
        mult = phi_oracle(b, xi * tl)
        assert_allclose(U[i], np.real(np.fft.ifftn(u_hat * mult)), rtol=0, atol=1e-13)


def test_trace_check_keeps_fv_profile():
    # criterion 5 measures the finite-volume profile, not the closed form
    p = WeightParams(s=1.5, N=2)
    n = 32
    x = np.arange(n) * 2 * math.pi / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.exp(-((X - math.pi) ** 2 + (Y - math.pi) ** 2) / 1.2)
    assert trace_laplacian_check(p, u) == trace_laplacian_check(p, u, profile=_cached_profile(0.0))
    kappa, _ = trace_laplacian_check(p, u)
    assert kappa != 2.0


def _tridiagonal_system(size, seed):
    """A seeded symmetric positive definite tridiagonal matrix, dense and as (excess, couplings).

    Diagonally dominant, so well conditioned; the couplings take both signs.
    """
    rng = np.random.default_rng(seed)
    couplings = rng.uniform(-1.0, 1.0, size - 1)
    diag = rng.uniform(0.5, 2.0, size)
    diag[:-1] += np.abs(couplings)
    diag[1:] += np.abs(couplings)
    excess = diag.copy()
    excess[:-1] -= couplings
    excess[1:] -= couplings
    return np.diag(diag) - np.diag(couplings, 1) - np.diag(couplings, -1), excess, couplings


# every order up to 10 and 2^K - 3 .. 2^K + 2 around 32, 64 and 256, so the
# levels end on either parity, and two orders of the profile grids' scale
_ORDERS = [*range(1, 11), *range(29, 35), *range(61, 67), 200, 201, *range(253, 259), 777, 1024]


@pytest.mark.parametrize("size", _ORDERS)
def test_block_cholesky_matches_a_dense_solve(size):
    # odd-even cyclic reduction is the block Cholesky (LDL^T) of the matrix
    # in odd-even order, one diagonal pivot block per level
    A, excess, couplings = _tridiagonal_system(size, seed=size)
    factor = _Tridiagonal(excess, couplings, couplings)
    rs = np.random.default_rng(100).standard_normal((3, size))
    want = np.linalg.solve(A, rs.T).T
    for r, x in zip(rs, want):
        assert_allclose(factor.solve(r), x, rtol=1e-13, atol=1e-15)
    assert np.all(rs == np.random.default_rng(100).standard_normal((3, size)))   # r is kept


def test_cyclic_reduction_is_accurate_entry_by_entry_on_an_m_matrix():
    # excesses of 1e-14 .. 1e-8 under couplings of order 1 (condition number
    # about 1e13): against a 50-digit Thomas solve, every entry of T^-1 r,
    # r >= 0, is right to a few eps; forming the diagonal first would cancel
    mpmath = pytest.importorskip("mpmath")
    n = 64
    rng = np.random.default_rng(5)
    couplings = rng.uniform(0.5, 2.0, n - 1)
    excess = 10.0 ** rng.uniform(-14.0, -8.0, n)
    factor = _Tridiagonal(excess, couplings, couplings)
    for r in (np.eye(n)[0], rng.uniform(0.0, 1.0, n)):
        got = factor.solve(r)
        with mpmath.workdps(50):
            c = [mpmath.mpf(v) for v in couplings] + [mpmath.mpf(0)]
            d = [mpmath.mpf(excess[i]) + c[i] + (c[i - 1] if i else 0) for i in range(n)]
            rhs = [mpmath.mpf(v) for v in r]
            for i in range(1, n):          # Thomas, forward
                f = c[i - 1] / d[i - 1]
                d[i] -= f * c[i - 1]
                rhs[i] += f * rhs[i - 1]
            x = [mpmath.mpf(0)] * n
            for i in reversed(range(n)):
                x[i] = (rhs[i] + (c[i] * x[i + 1] if i < n - 1 else 0)) / d[i]
            err = max(abs(g / v - 1) for g, v in zip(got, x))
        assert err <= 1e-14


def test_block_cholesky_refuses_a_non_positive_pivot(monkeypatch):
    # solve_profile on -S negated, whose pivots are all negative, raises SolverError
    real = profile._Tridiagonal
    monkeypatch.setattr(profile, "_Tridiagonal",
                        lambda excess, lower, upper: real(-excess, -lower, -upper))
    with pytest.raises(SolverError, match="pivot"):
        solve_profile(0.2, resolution=512)


def test_solve_profile_refuses_a_non_finite_minimizer(monkeypatch):
    monkeypatch.setattr(profile._Tridiagonal, "solve", lambda self, r: np.full_like(r, np.nan))
    with pytest.raises(SolverError, match="non-finite minimizer"):
        solve_profile(0.2, resolution=512)


_SWEEP_S = [1.25 + 0.5 * u for u in np.random.default_rng(33).uniform(size=2)] \
    + [1.201764, 1.253293, 1.700292]     # where explicitly inverted pivots diverged


@pytest.mark.parametrize("T_max", [20.0, 24.0, 30.0])
@pytest.mark.parametrize("resolution", [512, 513, 777, 1000])
def test_bordered_minimizer_equals_dense_least_squares(resolution, T_max):
    # the weighted least-squares problem min |sqrt(W) (D[:, 1:] y + D[:, 0])|
    # solved densely by LAPACK's Householder QR, with phi(0) = 1 moved to the
    # right-hand side (np.linalg.lstsq's SVD agrees to 6e-13 at 2.5x the
    # time); the five s of _SWEEP_S take turns over the twelve grids
    s = _SWEEP_S[(resolution + round(T_max)) % len(_SWEEP_S)]
    b = 3.0 - 2.0 * s
    D, masses = _dense_factors(b, T_max, resolution)
    root = np.sqrt(masses)
    q, upper = np.linalg.qr(root[:, None] * D[:, 1:])
    y = np.linalg.solve(upper, q.T @ (-root * D[:, 0]))
    sol = solve_profile(b, T_max, resolution)
    assert sol.phi[0] == 1.0
    assert np.max(np.abs(sol.phi[1:] - y)) <= 1e-11


@pytest.mark.parametrize("T_max", [20.0, 24.0, 30.0])
@pytest.mark.parametrize("resolution", [16384, MAX_PROFILE_CELLS])
def test_bordered_minimizer_is_stationary_on_fine_grids(resolution, T_max):
    # where no dense solve fits: int t^b zeta (D psi - psi) = 0 for smooth psi
    # with psi(0) = 0, to 1e-9 of |zeta| |psi| (at most 1.7e-11 measured; phi
    # moved by a bump of height 1e-7 reads 8e-8), and phi is within 5e-6 of
    # the closed form on [0, 10]
    for s in _SWEEP_S:
        b = 3.0 - 2.0 * s
        sol = solve_profile(b, T_max, resolution)
        h = T_max / resolution
        faces = np.concatenate([[0.0], sol.t[:-1] + h / 2.0, [T_max]])
        masses = _cell_masses_tb(b, faces)

        def D(x):
            flux = np.zeros(x.size + 1)
            flux[1:-1] = faces[1:-1] ** b * np.diff(x)
            return np.diff(flux) / (h * masses) - x

        zeta = D(sol.phi)
        for c in (2.0, 4.0, 7.0, 11.0, 15.0):
            psi = np.exp(-((sol.t - c) / 0.7) ** 2) * np.sin(1.3 * sol.t)
            psi[0] = 0.0
            resid = float(masses @ (zeta * D(psi)))
            norms = math.sqrt(float(masses @ zeta ** 2) * float(masses @ psi ** 2))
            assert abs(resid) <= 1e-9 * norms, (s, c)
        near = sol.t[sol.t <= 10.0]
        assert np.max(np.abs(sol.phi[:near.size] - phi_oracle(b, near))) < 5e-6, s


@pytest.mark.parametrize("b", [-0.9, 0.0, 0.9])
def test_J_does_not_see_the_far_field(b):
    # phi is free at T_max and needs no far-field model: J on the same step
    # h = 1/512 agrees between T_max = 20 and 24
    short, long = solve_profile(b, 20.0, 20 * 512), solve_profile(b, 24.0, 24 * 512)
    assert abs(short.J - long.J) <= 1e-12 * long.J


def test_fv_profile_is_zero_past_T_max():
    sol = solve_profile(0.3, resolution=512)
    past = np.array([np.nextafter(sol.T_max, np.inf), 30.0, 1e6])
    assert np.all(sol.phi_at(past) == 0.0) and np.all(sol.zeta_at(past) == 0.0)
    assert sol.phi_at(30.0) == 0.0 and sol.zeta_at(30.0) == 0.0
    assert sol.phi_at(sol.T_max) == pytest.approx(sol.phi[-1], rel=1e-14)
    assert sol.zeta_at(sol.T_max) == pytest.approx(sol.zeta[-1], rel=1e-14)
