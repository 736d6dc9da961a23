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
    TraceProportionalityError,
    WeightParams,
    build_extension,
    extension_constant,
    solve_profile,
    trace_laplacian_check,
)
from almgren_lab.core import gauss_jacobi
from almgren_lab.profile import (
    MAX_PROFILE_CELLS,
    BesselProfile,
    _cached_profile,
    _cell_masses_tb,
    _frequency_grid,
    _normal_system,
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
    J2 = float(masses @ (lap ** 2)) + 2.0 * sol_b0.grad_energy \
        + float(masses @ (sol_b0.phi ** 2))
    assert abs(J2 - sol_b0.J) / sol_b0.J < 1e-12


def test_euler_lagrange_weak_form(sol_b0):
    # int t^b zeta (D_b psi - psi) = 0 for test functions supported away from
    # the articulation at 0 and the constrained tail
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
        # random smooth bump strictly inside (0, T-2); the sine factor makes
        # it vanish at 0 and the width keeps it negligible at the tail cut
        c = rng.uniform(3.0, sol_b0.T_max - 10.0)
        w = rng.uniform(0.4, 1.0)
        amp = rng.uniform(0.5, 2.0)
        psi = amp * np.exp(-((t - c) / w) ** 2) * np.sin(rng.uniform(1, 3) * t)
        psi[t < 1e-9] = 0.0
        psi[t >= sol_b0.T_max - 2.0] = 0.0
        flux = faces * np.diff(psi) / h
        lap = np.zeros_like(psi)
        lap[1:-1] = (flux[1:] - flux[:-1]) / masses[1:-1]
        lap[0] = flux[0] / masses[0]
        lap[-1] = -flux[-1] / masses[-1]
        resid = float(masses @ (sol_b0.zeta * (lap - psi)))
        psi_norm = math.sqrt(float(masses @ psi ** 2))
        # tolerance sits at the double-precision limit of the h^-4-conditioned
        # normal equations, not at roundoff of the inner product itself
        assert abs(resid) <= 5e-6 * scale * max(psi_norm, 1.0)


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


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_fourier_side_checks_refuse_malformed_input(case):
    # one preamble gates the sample, the box length and the band limit of
    # all three; t_max and n_shells are gated where they are used
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


def test_trace_spread_guard():
    # a profile whose zeta oscillates near 0 yields shell-dependent ratios
    # and must be flagged as failed proportionality
    from almgren_lab.profile import ProfileSolution

    p = WeightParams(s=1.5, N=2)
    prof = solve_profile(0.0, resolution=2048)
    bad_zeta = prof.zeta * np.cos(40.0 * prof.t)
    bad = ProfileSolution(b=prof.b, T_max=prof.T_max, t=prof.t.copy(),
                          phi=prof.phi.copy(), zeta=bad_zeta, J=prof.J,
                          grad_energy=prof.grad_energy,
                          ode_residual=prof.ode_residual,
                          tail_coeffs=prof.tail_coeffs)
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
    assert np.isnan(closed.phi_at(-1.0))
    with pytest.raises(DomainError):
        BesselProfile(1.0)


def _dense_factors(b, T_max, n):
    """D = L - I, the cell masses and the constrained basis C, entry by entry."""
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
    alpha, t0 = (1.0 - b) / 2.0, T_max - 2.0
    tail = [i for i in range(n + 1) if t[i] >= t0 - 1e-12]
    free = range(1, tail[0])
    C = np.zeros((n + 1, len(free) + 2))
    for j, i in enumerate(free):
        C[i, j] = 1.0
    for i in tail:
        C[i, -2] = (t[i] / t0) ** (alpha - 0.5) * math.exp(-(t[i] - t0))
        C[i, -1] = (t[i] / t0) ** (alpha + 0.5) * math.exp(-(t[i] - t0))
    return D, masses, C


@pytest.mark.parametrize("b", [-0.6, 0.0, 0.7])
def test_banded_normal_system_equals_dense_products(b):
    T_max, n = 24.0, 512
    D, masses, C = _dense_factors(b, T_max, n)
    system = _normal_system(b, T_max, n)
    CtG = C.T @ (D.T @ (masses[:, None] * D))
    A = CtG @ C
    # each row's scale: the largest sum of term magnitudes, e_0 column included
    terms = np.abs(C).T @ (np.abs(D).T @ (masses[:, None] * np.abs(D)))
    scale = np.max(np.column_stack([terms[:, 0], terms @ np.abs(C)]), axis=1)
    m = A.shape[0]
    assert system.bands.shape == (4, m)
    i, j = np.indices(A.shape)
    assert np.all(A[np.abs(i - j) > 3] == 0.0)   # upper bandwidth 3
    banded = np.zeros_like(A)
    for d in range(4):
        idx = np.arange(d, m)
        banded[idx - d, idx] = system.bands[3 - d, d:]
        banded[idx, idx - d] = system.bands[3 - d, d:]
    assert np.all(np.abs(banded - A) <= 1e-14 * scale[:, None])
    assert np.all(np.abs(system.residual(np.zeros(m)) + CtG[:, 0]) <= 1e-14 * scale)

    y = np.random.default_rng(7).standard_normal(m)
    x = C @ y
    x[0] += 1.0
    assert_allclose(system.expand(y), x, rtol=1e-15, atol=0.0)
    assert np.all(np.abs(system.residual(y) + CtG @ x) <= 1e-14 * scale * np.max(np.abs(x)))


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
    # the banded Cholesky with factored-residual refinement; J's own
    # double-precision floor is about 4e-12 relative (zeta is an h^-2 stencil)
    assert sol_b0.J == pytest.approx(1.999999463561315, rel=1e-13)


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
