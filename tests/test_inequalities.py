import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from almgren_lab import (
    DomainError,
    InputError,
    RegimeError,
    WeightParams,
    eval_solution,
    integrate_halfball,
    integrate_halfsphere,
    synthesize,
)
from almgren_lab import core, inequalities
from almgren_lab.hemisphere import sphere_harmonic_value
from almgren_lab.inequalities import (
    CutoffField,
    GaussianBumps,
    SeparableModeField,
    TestFamily,
    check_hardy_rellich,
    check_hardy_trace,
    critical_exponent,
    estimate_sobolev_trace_constant,
)


@pytest.fixture(scope="module")
def p3():
    return WeightParams(s=1.25, N=3)


@pytest.fixture(scope="module")
def p4():
    return WeightParams(s=1.5, N=4)


class ConstField:
    def __init__(self, c=1.0):
        self.c = c

    def value(self, q, t):
        return np.full(np.broadcast(np.asarray(q), np.asarray(t)).shape, self.c)

    def grad(self, q, t):
        z = np.zeros(np.broadcast(np.asarray(q), np.asarray(t)).shape)
        return z, z


def test_critical_exponent(p3):
    # 2N / (N - 2(s-1))
    assert critical_exponent(p3) == pytest.approx(2 * 3 / (3 - 0.5))
    with pytest.raises(DomainError):
        critical_exponent(WeightParams(s=1.9, N=1))


def test_hardy_constant_degenerate_factor():
    # N = 1, b = 0: the factor N + b - 1 vanishes and the margin is exactly 0
    p = WeightParams(s=1.5, N=1)
    assert check_hardy_trace(p, ConstField(), 1.0) == pytest.approx(0.0, abs=1e-14)


def test_hardy_constant_field_measure_oracle(p3):
    # U = 1: margin reduces to weighted measures computed by the core rules
    got = check_hardy_trace(p3, ConstField(), 1.0, n_radial=512, n_angular=2048)
    beta1 = p3.N + p3.b - 1.0
    sphere = integrate_halfsphere(lambda a: np.ones_like(a), p3, 1.0, n_angular=32)
    ball = integrate_halfball(lambda r, a: np.ones(np.broadcast(r, a).shape), p3, 1.0)
    want = beta1 / 2.0 * sphere - (beta1 / 2.0) ** 2 * ball
    assert got == pytest.approx(want, rel=1e-6)
    assert got > 0


def test_hardy_pure_mode_homogeneity(p3):
    # margin of a pure separable harmonic scales as r^{N+b-1+2 sigma}
    field = SeparableModeField(p3, 2, c1=1.0)
    m1 = check_hardy_trace(p3, field, 0.5)
    m2 = check_hardy_trace(p3, field, 1.0)
    power = p3.N + p3.b - 1.0 + 2.0 * 2.0
    assert m2 / m1 == pytest.approx(2.0 ** power, rel=1e-6)
    assert m1 > 0


@pytest.mark.parametrize("fixture,seed", [("p3", 0), ("p4", 1)])
def test_hardy_random_families(fixture, seed, request):
    p = request.getfixturevalue(fixture)
    fam = TestFamily(params=p, kind="bumps", count=25, seed=seed)
    margins = [check_hardy_trace(p, f, 1.0) for f in fam.fields()]
    scale = max(abs(m) for m in margins)
    assert min(margins) >= -1e-12 * scale


def test_hardy_margin_converges_under_refinement(p3):
    fam = TestFamily(params=p3, kind="bumps", count=5, seed=4)
    for f in fam.fields():
        m = [check_hardy_trace(p3, f, 1.0, n_radial=n, n_angular=2 * n)
             for n in (128, 256, 512)]
        e1, e2 = abs(m[0] - m[1]), abs(m[1] - m[2])
        assert e2 <= 0.6 * e1 + 1e-12


def test_rellich_requires_regime():
    p = WeightParams(s=1.5, N=2)  # N = 2 < 2s = 3
    fld = GaussianBumps([(1.0, 0.3, 0.2)], mirrored=True)
    with pytest.raises(RegimeError):
        check_hardy_rellich(p, fld, 1.0)


def test_rellich_zero_field(p4):
    zero = GaussianBumps([(0.0, 0.3, 0.2)], mirrored=True)
    assert check_hardy_rellich(p4, zero, 1.0) == pytest.approx(0.0, abs=1e-300)


def test_rellich_gaussian_bump_positive(p4):
    fld = CutoffField(GaussianBumps([(1.0, 0.25, 0.18)], mirrored=True), 0.8)
    margin = check_hardy_rellich(p4, fld, 1.0)
    assert margin > 0


def test_rellich_scaling_dimension(p4):
    # margin scales as lam^{3-N-b} under U -> U(lam .)
    base = CutoffField(GaussianBumps([(1.0, 0.22, 0.15)], mirrored=True), 0.45)

    class Scaled:
        def __init__(self, f, lam):
            self.f, self.lam = f, lam

        def value(self, q, t):
            return self.f.value(self.lam * np.asarray(q), self.lam * np.asarray(t))

        def grad(self, q, t):
            gq, gt = self.f.grad(self.lam * np.asarray(q), self.lam * np.asarray(t))
            return self.lam * gq, self.lam * gt

        def lap_b(self, q, t, params):
            return self.lam ** 2 * self.f.lap_b(self.lam * np.asarray(q),
                                                self.lam * np.asarray(t), params)

    lam = 1.5
    m0 = check_hardy_rellich(p4, base, 1.0, n_radial=512, n_angular=1024)
    m1 = check_hardy_rellich(p4, Scaled(base, lam), 1.0, n_radial=512, n_angular=1024)
    assert m1 / m0 == pytest.approx(lam ** (3.0 - p4.N - p4.b), rel=2e-3)


def test_rellich_families_positive(p4):
    fam = TestFamily(params=p4, kind="bumps", count=15, seed=9, mirrored=True,
                     cutoff_radius=0.8)
    margins = [check_hardy_rellich(p4, f, 1.0) for f in fam.fields()]
    scale = max(abs(m) for m in margins)
    assert min(margins) >= -1e-12 * scale


def test_nonmirrored_lap_at_zero_raises(p3):
    fld = GaussianBumps([(1.0, 0.3, 0.2)], mirrored=False)
    with pytest.raises(DomainError):
        fld.lap_b(np.array([0.1]), np.array([0.0]), p3)


def test_gaussian_derivatives_match_finite_differences(p3):
    fld = GaussianBumps([(0.7, 0.35, 0.2), (-0.4, 0.55, 0.3)], mirrored=True)
    q0, t0 = 0.31, 0.27
    h = 1e-6
    gq_fd = (fld.value(q0 + h, t0) - fld.value(q0 - h, t0)) / (2 * h)
    gt_fd = (fld.value(q0, t0 + h) - fld.value(q0, t0 - h)) / (2 * h)
    gq, gt = fld.grad(q0, t0)
    assert_allclose([gq, gt], [gq_fd, gt_fd], atol=1e-8)
    # weighted Laplacian vs finite differences
    h = 1e-4
    lap_q = (fld.value(q0 + h, t0) - 2 * fld.value(q0, t0) + fld.value(q0 - h, t0)) / h ** 2
    lap_t = (fld.value(q0, t0 + h) - 2 * fld.value(q0, t0) + fld.value(q0, t0 - h)) / h ** 2
    drift = p3.b / t0 * gt + (p3.N - 1) / q0 * gq
    want = lap_q + lap_t + drift
    assert fld.lap_b(q0, t0, p3) == pytest.approx(want, rel=1e-6)


def test_mirrored_pair_keeps_its_digits_as_t_goes_to_zero(p4):
    # U_t / t of an even pair no longer cancels like c / t: against 40-digit
    # values on t in [1e-9, 1e-2] the measured relative errors are 1.6e-15
    # for D_b U and 5.5e-15 for U_t (the per-bump form gave 9.5e-8 and 1.7e-7)
    mpmath = pytest.importorskip("mpmath")
    comps = [(0.7, 0.35, 0.2), (-0.4, 0.55, 0.3), (1.0, 0.25, 0.13)]
    fld = GaussianBumps(comps, mirrored=True)
    t = np.geomspace(1e-9, 1e-2, 15)
    for q in (0.0, 0.1, 0.3, 0.6):
        _, _, ut, lap = inequalities._sample(fld, inequalities._scattered(q, t), p4)
        for i, ti in enumerate(t):
            with mpmath.workdps(40):
                T, Q = mpmath.mpf(float(ti)), mpmath.mpf(q)
                want_ut = want_lap = mpmath.mpf(0)
                for a, c, w in comps:
                    a, c, k = mpmath.mpf(a), mpmath.mpf(c), 1 / mpmath.mpf(w) ** 2
                    for d in (T - c, T + c):
                        rr = Q * Q + d * d
                        g = a * mpmath.exp(-k * rr)
                        want_ut -= 2 * k * d * g
                        want_lap += (4 * k * rr - 2 * (p4.N + 1)) * k * g
                want_lap += mpmath.mpf(p4.b) * want_ut / T
            assert abs(ut[i] - float(want_ut)) <= 1e-14 * abs(float(want_ut)), (q, ti)
            assert abs(lap[i] - float(want_lap)) <= 4e-15 * abs(float(want_lap)), (q, ti)


def test_cutoff_derivatives_match_finite_differences(p4):
    fld = CutoffField(GaussianBumps([(1.0, 0.2, 0.25)], mirrored=True), 0.7)
    q0, t0 = 0.24, 0.31
    h = 1e-6
    gq_fd = (fld.value(q0 + h, t0) - fld.value(q0 - h, t0)) / (2 * h)
    gt_fd = (fld.value(q0, t0 + h) - fld.value(q0, t0 - h)) / (2 * h)
    gq, gt = fld.grad(q0, t0)
    assert_allclose([float(gq), float(gt)], [gq_fd, gt_fd], atol=1e-7)
    h = 1e-4
    lap_q = (fld.value(q0 + h, t0) - 2 * fld.value(q0, t0) + fld.value(q0 - h, t0)) / h ** 2
    lap_t = (fld.value(q0, t0 + h) - 2 * fld.value(q0, t0) + fld.value(q0, t0 - h)) / h ** 2
    drift = p4.b / t0 * gt + (p4.N - 1) / q0 * gq
    want = lap_q + lap_t + drift
    assert float(fld.lap_b(q0, t0, p4)) == pytest.approx(float(want), rel=1e-5)


def test_sobolev_trace_positive_and_scale_invariant(p3):
    fam = TestFamily(params=p3, kind="bumps", count=6, seed=2)
    c = estimate_sobolev_trace_constant(p3, fam, 1.0)
    assert c > 0

    class Scaled(TestFamily):
        def fields(self):
            for f in super().fields():
                yield type("S", (), {
                    "value": lambda self_, q, t, f=f: 3.0 * f.value(q, t),
                    "grad": lambda self_, q, t, f=f: tuple(3.0 * g for g in f.grad(q, t)),
                })()

    c3 = estimate_sobolev_trace_constant(
        p3, Scaled(params=p3, kind="bumps", count=6, seed=2), 1.0)
    assert c3 == pytest.approx(c, rel=1e-12)


def test_sobolev_constant_family_closed_measures(p3):
    # family of constants: the ratio is a quotient of closed weighted measures
    class Fam:
        def fields(self):
            yield ConstField()

    c = estimate_sobolev_trace_constant(p3, Fam(), 1.0)
    beta1 = p3.N + p3.b - 1.0
    qs = critical_exponent(p3)
    sphere = integrate_halfsphere(lambda a: np.ones_like(a), p3, 1.0)
    from almgren_lab.core import unit_sphere_area

    trace_norm = (unit_sphere_area(p3.N - 1) / p3.N) ** (2.0 / qs)
    want = (beta1 / 2.0) * sphere / trace_norm
    assert c == pytest.approx(want, rel=1e-12)


class Members:
    def __init__(self, *fields):
        self.members = fields

    def fields(self):
        return iter(self.members)


def test_sobolev_estimate_skips_vanishing_traces_and_refuses_when_all_vanish(p3):
    bump = next(TestFamily(params=p3, kind="bumps", count=1, seed=2).fields())
    want = estimate_sobolev_trace_constant(p3, Members(bump), 1.0)
    with pytest.warns(UserWarning, match="trace vanishes"):
        got = estimate_sobolev_trace_constant(p3, Members(ConstField(0.0), bump), 1.0)
    assert got == want
    with pytest.warns(UserWarning, match="trace vanishes"), \
            pytest.raises(DomainError, match="every family member had vanishing trace"):
        estimate_sobolev_trace_constant(p3, Members(ConstField(0.0), ConstField(0.0)), 1.0)


def test_sobolev_trace_survives_a_huge_critical_exponent():
    # q* = 2N / (N - 2(s-1)) is about 1413 here: |u|^{q*} underflows to 0
    # unless the trace is scaled by its maximum before the power
    p = WeightParams(s=1.4992923051913127, N=1)
    assert critical_exponent(p) > 1000
    fam = TestFamily(params=p, kind="bumps", count=1, seed=276102407)
    c = estimate_sobolev_trace_constant(p, fam, 1.0)
    assert math.isfinite(c) and c > 0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_sobolev_trace_rule_converged_at_default(N):
    # the default 64-node trace rule already agrees with a 4x finer one
    p = WeightParams(s=1.25, N=N)
    fam = TestFamily(params=p, kind="bumps", count=6, seed=2)
    coarse = estimate_sobolev_trace_constant(p, fam, 1.0, n_trace=64)
    fine = estimate_sobolev_trace_constant(p, fam, 1.0, n_trace=256)
    assert coarse == pytest.approx(fine, rel=1e-7)


def test_family_reproducibility(p3):
    a = [f.value(0.2, 0.3) for f in TestFamily(params=p3, count=5, seed=42).fields()]
    b = [f.value(0.2, 0.3) for f in TestFamily(params=p3, count=5, seed=42).fields()]
    assert_allclose(a, b, rtol=0)


def test_mode_and_poly_families(p3):
    for kind, kwargs in (("modes", {}), ("poly", {"cutoff_radius": 0.8})):
        fam = TestFamily(params=p3, kind=kind, count=6, seed=3, **kwargs)
        margins = [check_hardy_trace(p3, f, 1.0) for f in fam.fields()]
        scale = max(abs(m) for m in margins)
        assert min(margins) >= -1e-12 * scale


def _hardy_mode_closed_form(p, sigma, c1, r):
    """Margin and leading side of U = c1 rho^sigma P(psi), P normalized on the half sphere.

    With beta = N + b, A the area factor and mu = sigma (sigma + beta - 1):
    I_ball = c1^2 A r^{2 sigma + beta + 1} / (2 sigma + beta + 1),
    I_surf = c1^2 A r^{2 sigma + beta},
    I_grad = c1^2 A (sigma^2 + mu) r^{2 sigma + beta - 1} / (2 sigma + beta - 1).
    """
    beta = p.N + p.b
    area = 1.0 if p.N == 1 else 2.0 * math.pi ** (p.N / 2.0) / math.gamma(p.N / 2.0)
    amp = c1 * c1 * area
    mu = sigma * (sigma + beta - 1.0)
    i_ball = amp * r ** (2 * sigma + beta + 1) / (2 * sigma + beta + 1)
    i_surf = amp * r ** (2 * sigma + beta)
    i_grad = 0.0 if sigma == 0 else (
        amp * (sigma ** 2 + mu) * r ** (2 * sigma + beta - 1) / (2 * sigma + beta - 1))
    k = (beta - 1.0) / (2.0 * r)
    return i_grad + k * i_surf - k * k * i_ball, i_grad + abs(k) * i_surf + k * k * i_ball


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1.3, 1.85])
def test_separable_mode_margin_matches_closed_form(N, s):
    p = WeightParams(s=s, N=N)
    for sigma in ([0, 1, 2, 3, 4] if N == 1 else [0, 2, 4]):
        field = SeparableModeField(p, sigma, c1=1.7)
        for r in (1.0, 0.6):
            want, scale = _hardy_mode_closed_form(p, sigma, 1.7, r)
            got = check_hardy_trace(p, field, r)
            assert abs(got - want) <= 1e-10 * scale, (sigma, r, got, want)


def test_rellich_cutoff_polynomial_agrees_with_a_fine_radial_rule():
    # the cut-off's flat edge converges slowest: the default rule must sit
    # within 1e-10 of an eightfold radial rule (a single 192-node
    # Gauss-Jacobi rule in rho is off by 3.2e-9 here)
    p = WeightParams(s=1.520504, N=4)
    fam = TestFamily(params=p, kind="poly", count=1, seed=1650924783, cutoff_radius=0.8)
    field = next(fam.fields())
    got = check_hardy_rellich(p, field, 1.0)
    fine = check_hardy_rellich(p, field, 1.0, n_radial=1536)
    assert got == pytest.approx(fine, rel=1e-10)


def _fam(p, cutoff=None):
    return TestFamily(params=p, kind="bumps", count=1, seed=5, mirrored=True,
                      cutoff_radius=cutoff)


@pytest.mark.parametrize("which", ["hardy", "rellich", "sobolev"])
def test_margin_at_a_new_order_runs_only_small_eigensolves(monkeypatch, which):
    # only the 32-node head and angular rules depend on s; the radial body
    # and the trace rule come from the cache once one call has built them
    N = 4
    calls = {
        "hardy": lambda p: check_hardy_trace(p, next(_fam(p).fields()), 1.0),
        "rellich": lambda p: check_hardy_rellich(p, next(_fam(p, 0.8).fields()), 1.0),
        "sobolev": lambda p: estimate_sobolev_trace_constant(p, _fam(p), 1.0),
    }
    fresh_s = {"hardy": 1.4321987654, "rellich": 1.4432198765, "sobolev": 1.4543219876}
    calls[which](WeightParams(s=1.5, N=N))
    sizes = []
    solve = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return solve(a, *args, **kwargs)

    # gauss_jacobi looks np.linalg.eigh up on each call, so this patch reaches it
    monkeypatch.setattr(np.linalg, "eigh", counted)
    calls[which](WeightParams(s=fresh_s[which], N=N))
    assert sizes and max(sizes) <= core.SPLIT_HEAD_NODES, sizes


def _polar_to_qt(N, angle, d_rho, d_angle_over_rho):
    """(q, t) components of a gradient given by its polar components."""
    cos, sin = np.cos(angle), np.sin(angle)
    if N == 1:     # q = rho cos(phi), t = rho sin(phi)
        return d_rho * cos - d_angle_over_rho * sin, d_rho * sin + d_angle_over_rho * cos
    return d_rho * sin + d_angle_over_rho * cos, d_rho * cos - d_angle_over_rho * sin


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1.3, 1.85])
def test_separable_mode_field_is_the_one_term_synthesis(N, s):
    # U, U_q, U_t and D_b U of the field on the ball and sphere point sets of
    # a margin rule and on scattered points, against eval_solution of the
    # synthesis c1 / Omega_0 times the mode.  At N + b < 1 the constant mode's
    # sigma_plus is 1 - N - b, so there the field is c1 P itself.  At rho = 0
    # the value is c1 P for sigma = 0 (else 0); the gradient is 0 except for
    # sigma = 1, where U = c1 A q has the constant gradient it has at rho = 0.5
    p = WeightParams(s=s, N=N)
    rule = inequalities._margin_rule(p, 0.0, 6, 5, 0.9)
    rng = np.random.default_rng(N)
    q = np.concatenate([[0.0], rng.uniform(-0.7 if N == 1 else 0.0, 0.7, 12)])
    t = np.concatenate([[0.0], rng.uniform(0.0, 0.7, 12)])
    for sigma in ([0, 1, 2, 3] if N == 1 else [0, 2, 4]):
        field = SeparableModeField(p, sigma, c1=1.7)
        sol = synthesize(p, [(field.mode, 1.7 / sphere_harmonic_value(N, 0), 0.0)])
        for points in (rule.ball_points(), rule.sphere_points(), inequalities._scattered(q, t)):
            got = np.array(np.broadcast_arrays(*field._eval(points, p)))
            angle = points.angle
            if angle is None:
                angle = np.arctan2(t, q) if N == 1 else np.arctan2(q, t)
            rho, angle = np.broadcast_arrays(points.rho, angle)
            want = np.empty_like(got)
            for i in np.ndindex(rho.shape):
                r, a = float(rho[i]), float(angle[i])
                if r == 0.0:
                    grad = (_polar_to_qt(N, a, *eval_solution(sol, 0.5, a).grad_U)
                            if sigma == 1 else (0.0, 0.0))
                    want[(slice(None), *i)] = (1.7 * field.mode.profile(a) if sigma == 0 else 0.0,
                                               *grad, 0.0)
                elif field.mode.sigma_plus != sigma:
                    assert sigma == 0 and N + p.b < 1
                    want[(slice(None), *i)] = (1.7 * field.mode.profile(a),
                                               *_polar_to_qt(N, a, 0.0, 0.0), 0.0)
                else:
                    res = eval_solution(sol, r, a)
                    want[(slice(None), *i)] = (res.U, *_polar_to_qt(N, a, *res.grad_U), res.V)
            scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(scale, 1.0)), (sigma, points)


@pytest.mark.parametrize("sigma", [1, 3])
def test_separable_mode_field_needs_an_axisymmetric_mode(p3, sigma):
    with pytest.raises(DomainError):
        SeparableModeField(p3, sigma)


@pytest.fixture(scope="module")
def bump():
    return GaussianBumps([(1.0, 0.3, 0.2)])


@pytest.mark.parametrize("r", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_hardy_rejects_bad_radius(p3, bump, r):
    with pytest.raises(DomainError):
        check_hardy_trace(p3, bump, r)


@pytest.mark.parametrize("r", [-1.0, 0.0, math.nan, math.inf])
def test_rellich_rejects_bad_support_radius(p4, r):
    fld = CutoffField(GaussianBumps([(1.0, 0.25, 0.18)], mirrored=True), 0.8)
    with pytest.raises(DomainError):
        check_hardy_rellich(p4, fld, r)


@pytest.mark.parametrize("r", [-1.0, 0.0, math.nan, math.inf])
def test_sobolev_rejects_bad_radius(p3, r):
    fam = TestFamily(params=p3, kind="bumps", count=2, seed=2)
    with pytest.raises(DomainError):
        estimate_sobolev_trace_constant(p3, fam, r)


@pytest.mark.parametrize("counts", [{"n_radial": 0}, {"n_angular": 0}, {"n_radial": -4},
                                    {"n_angular": 2.5}, {"n_radial": True}])
def test_margins_reject_bad_node_counts(p3, p4, bump, counts):
    with pytest.raises(DomainError):
        check_hardy_trace(p3, bump, 1.0, **counts)
    fld = CutoffField(GaussianBumps([(1.0, 0.25, 0.18)], mirrored=True), 0.8)
    with pytest.raises(DomainError):
        check_hardy_rellich(p4, fld, 1.0, **counts)
    fam = TestFamily(params=p3, kind="bumps", count=2, seed=2)
    with pytest.raises(DomainError):
        estimate_sobolev_trace_constant(p3, fam, 1.0, **counts)


def test_sobolev_rejects_bad_trace_count(p3):
    fam = TestFamily(params=p3, kind="bumps", count=2, seed=2)
    with pytest.raises(DomainError):
        estimate_sobolev_trace_constant(p3, fam, 1.0, n_trace=0)


class NanField:
    """A field whose samples go non-finite away from the origin."""

    def value(self, q, t):
        rho = np.hypot(q, t)
        return np.where(rho > 0.5, np.nan, 1.0)

    def grad(self, q, t):
        z = np.zeros(np.broadcast(np.asarray(q), np.asarray(t)).shape)
        return z, z

    def lap_b(self, q, t, params):
        return self.value(q, t)


def test_margins_reject_non_finite_samples(p3, p4):
    with pytest.raises(InputError):
        check_hardy_trace(p3, NanField(), 1.0)
    with pytest.raises(InputError):
        check_hardy_rellich(p4, NanField(), 1.0)

    class Fam:
        def fields(self):
            yield NanField()

    with pytest.raises(InputError):
        estimate_sobolev_trace_constant(p3, Fam(), 1.0)


def test_overflowing_samples_raise_input_error_without_a_warning(p3, p4):
    # the squares of these samples overflow; each margin must refuse them with
    # InputError, and no RuntimeWarning may escape first
    huge = GaussianBumps([(1e308, 0.3, 0.01)])

    class Fam:
        def fields(self):
            yield huge

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError):
            check_hardy_trace(p3, huge, 1.0)
        with pytest.raises(InputError):
            check_hardy_rellich(p4, CutoffField(huge, 0.8), 1.0)
        with pytest.raises(InputError):
            estimate_sobolev_trace_constant(p3, Fam(), 1.0)


class Spoiled:
    """1 inside |z| <= cut, `bad` (nan or +-inf) outside; zero gradient."""

    def __init__(self, bad, cut):
        self.bad, self.cut = bad, cut

    def value(self, q, t):
        return np.where(np.hypot(q, t) > self.cut, self.bad, 1.0)

    def grad(self, q, t):
        z = np.zeros(np.broadcast(np.asarray(q), np.asarray(t)).shape)
        return z, z

    def lap_b(self, q, t, params):
        return self.value(q, t)


def _rule_entry_points(p, field):
    """Every entry point of the sampled half-ball rule, as a function of the radius."""
    class Fam:
        def fields(self):
            yield field

    def ball(rho, a):
        return field.value(*core.angle_to_xt(p, rho, a))

    def sphere(a):
        return field.value(*core.angle_to_xt(p, 1.0, a))

    return {"hardy": lambda r: check_hardy_trace(p, field, r),
            "rellich": lambda r: check_hardy_rellich(p, field, r),
            "sobolev": lambda r: estimate_sobolev_trace_constant(p, Fam(), r),
            "halfball": lambda r: integrate_halfball(ball, p, r),
            "halfsphere": lambda r: integrate_halfsphere(sphere, p, r)}


_ENTRY_POINTS = ["hardy", "rellich", "sobolev", "halfball", "halfsphere"]


@settings(max_examples=60)
@given(N=st.integers(min_value=1, max_value=4), s=st.floats(min_value=1.05, max_value=1.95),
       r=st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
       which=st.sampled_from(_ENTRY_POINTS))
def test_every_rule_entry_point_refuses_a_malformed_radius(N, s, r, which):
    p = WeightParams(s=s, N=N)
    assume(which != "rellich" or p.paper_regime)
    call = _rule_entry_points(p, GaussianBumps([(1.0, 0.3, 0.2)], mirrored=True))[which]
    with pytest.raises(DomainError, match="radius must be positive and finite"):
        call(r)


@settings(max_examples=60)
@given(N=st.integers(min_value=1, max_value=4), s=st.floats(min_value=1.05, max_value=1.95),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), cut=st.floats(0.05, 0.9),
       which=st.sampled_from(_ENTRY_POINTS))
def test_every_rule_entry_point_refuses_non_finite_samples(N, s, bad, cut, which):
    # InputError, and no RuntimeWarning first (pytest turns those into errors)
    p = WeightParams(s=s, N=N)
    assume(which != "rellich" or p.paper_regime)
    assume(which != "sobolev" or N > 2 * (s - 1))
    with pytest.raises(InputError, match="non-finite"):
        _rule_entry_points(p, Spoiled(bad, cut))[which](1.0)


class Bare:
    """A built-in field seen only through `value`, `grad` and `lap_b`."""

    def __init__(self, field):
        self.field = field

    def value(self, q, t):
        return self.field.value(q, t)

    def grad(self, q, t):
        return self.field.grad(q, t)

    def lap_b(self, q, t, params):
        return self.field.lap_b(q, t, params)


def _largest_terms(p, field, r):
    """The largest of the three terms of the Hardy and of the Hardy-Rellich margin."""
    def ball(g, power=0):
        return integrate_halfball(
            lambda rho, a: rho ** power * g(*core.angle_to_xt(p, rho, a)), p, r)

    def grad2(q, t):
        gq, gt = field.grad(q, t)
        return gq ** 2 + gt ** 2

    def u2(q, t):
        return field.value(q, t) ** 2

    k = (p.N + p.b - 1.0) / (2.0 * r)
    gap = p.N - 2.0 * p.s
    surf = integrate_halfsphere(lambda a: u2(*core.angle_to_xt(p, r, a)), p, r)
    hardy = max(ball(grad2), abs(k) * surf, k * k * ball(u2))
    if not p.paper_regime:
        return hardy, None
    lap2 = ball(lambda q, t: field.lap_b(q, t, p) ** 2)
    return hardy, max(lap2, gap * gap * ball(u2, -4), 2.0 * gap * ball(grad2, -2))


_KINDS = {"bumps": {}, "mirrored bumps": {"mirrored": True, "cutoff_radius": 0.7},
          "poly": {"cutoff_radius": 0.8}, "modes": {}}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_grid_sampling_agrees_with_the_point_methods(kind, N):
    # the one-pass sampling on the polar grid against the same field seen
    # through value / grad / lap_b at scattered (q, t)
    p = WeightParams(s=1.25, N=N)
    fam = TestFamily(params=p, kind=kind.split()[-1], count=3, seed=N, **_KINDS[kind])
    for field in fam.fields():
        hardy_scale, rellich_scale = _largest_terms(p, field, 1.0)
        got, want = check_hardy_trace(p, field, 1.0), check_hardy_trace(p, Bare(field), 1.0)
        assert abs(got - want) <= 1e-14 * hardy_scale, (got, want)
        if p.paper_regime:
            got = check_hardy_rellich(p, field, 1.0)
            want = check_hardy_rellich(p, Bare(field), 1.0)
            assert abs(got - want) <= 1e-14 * rellich_scale, (got, want)

    class BareFamily:
        def fields(self):
            return map(Bare, fam.fields())

    got = estimate_sobolev_trace_constant(p, fam, 1.0)
    assert got == pytest.approx(estimate_sobolev_trace_constant(p, BareFamily(), 1.0), rel=1e-14)


@settings(max_examples=60)
@given(N=st.integers(min_value=1, max_value=4),
       s=st.floats(min_value=1.05, max_value=1.95),
       # amplitudes |a| >= 1e-3: no sample is subnormal
       comps=st.lists(st.tuples(st.floats(-1.0, 1.0).filter(lambda a: abs(a) >= 1e-3),
                                st.floats(0.15, 0.6), st.floats(0.12, 0.3)),
                      min_size=1, max_size=3),
       mirrored=st.booleans(),
       cutoff=st.one_of(st.none(), st.floats(0.5, 1.5)),
       q=st.floats(0.05, 1.0), t=st.floats(0.05, 1.0))
def test_one_pass_derivatives_match_central_differences(N, s, comps, mirrored, cutoff, q, t):
    p = WeightParams(s=s, N=N)
    fld = GaussianBumps(comps, mirrored=mirrored)
    if cutoff is not None:
        fld = CutoffField(fld, cutoff)
    h = 1e-6
    gq, gt = fld.grad(q, t)
    # the derivatives of a bump of width w scale as |a| / w^k
    scale = sum(abs(a) for a, _, _ in comps) / min(w for _, _, w in comps) ** 2
    assert float(gq) == pytest.approx(
        float(fld.value(q + h, t) - fld.value(q - h, t)) / (2 * h), abs=1e-7 * scale)
    assert float(gt) == pytest.approx(
        float(fld.value(q, t + h) - fld.value(q, t - h)) / (2 * h), abs=1e-7 * scale)
    # D_b U = d_q U_q + d_t U_t + (N - 1) U_q / q + b U_t / t
    uqq = (fld.grad(q + h, t)[0] - fld.grad(q - h, t)[0]) / (2 * h)
    utt = (fld.grad(q, t + h)[1] - fld.grad(q, t - h)[1]) / (2 * h)
    want = uqq + utt + (N - 1) * gq / q + p.b * gt / t
    assert float(fld.lap_b(q, t, p)) == pytest.approx(
        float(want), abs=1e-6 * scale / min(w for _, _, w in comps) ** 2)


@pytest.mark.parametrize("which,count,grids", [("hardy", 1, 2), ("rellich", 1, 1),
                                               ("sobolev", 1, 2), ("sobolev", 6, 2)])
def test_each_margin_builds_its_point_sets_once(monkeypatch, p4, which, count, grids):
    # one polar point set per (rule, radius): the ball, and the half sphere
    # where a margin has a surface term, whatever the family's size
    calls = []
    build = core.angle_to_xt

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(core, "angle_to_xt", counted)
    fam = TestFamily(params=p4, kind="bumps", count=count, seed=3, mirrored=True,
                     cutoff_radius=0.8)
    if which == "hardy":
        check_hardy_trace(p4, next(fam.fields()), 1.0)
    elif which == "rellich":
        check_hardy_rellich(p4, next(fam.fields()), 1.0)
    else:
        estimate_sobolev_trace_constant(p4, fam, 1.0)
    assert len(calls) == grids


def test_a_run_of_fresh_orders_runs_only_small_eigensolves(monkeypatch):
    # a mixed run at N = 2..4: every margin at a fresh s adds two 32-node
    # rules to gauss_jacobi's cache, and the Sobolev trace rules, 64 nodes,
    # must survive that stream between their uses (here 20 margins apart)
    def margin(which, N, s):
        p = WeightParams(s=s, N=N)
        if which == "hardy":
            return check_hardy_trace(p, next(_fam(p).fields()), 1.0)
        if which == "rellich":
            return check_hardy_rellich(p, next(_fam(p, 0.8).fields()), 1.0)
        return estimate_sobolev_trace_constant(p, _fam(p), 1.0)

    for N in (2, 3, 4):
        for which in ("hardy", "rellich", "sobolev"):
            if which != "rellich" or N > 2:
                margin(which, N, 1.3)
    sizes = []
    solve = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return solve(a, *args, **kwargs)

    # gauss_jacobi looks np.linalg.eigh up on each call, so this patch reaches it
    monkeypatch.setattr(np.linalg, "eigh", counted)
    run = ([("sobolev", N) for N in (2, 3, 4)]
           + [("hardy", 2 + i % 3) if i % 2 else ("rellich", 3 + i % 2) for i in range(20)]
           + [("sobolev", N) for N in (4, 3, 2)])
    for i, (which, N) in enumerate(run):
        margin(which, N, 1.05 + 0.4 * (i * 0.6180339887498949 % 1.0))
    assert len(run) >= 24 and max(sizes) <= core.SPLIT_HEAD_NODES, sizes
