import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from almgren_lab import (
    AlmgrenLabError,
    AngularGrid1D,
    DomainError,
    InputError,
    WeightParams,
    almgren,
    cylinder,
    hemisphere,
    inequalities,
    integrate_halfball,
    integrate_halfsphere,
    profile,
    special_functions,
    synthesis,
)
from almgren_lab.core import (
    DEFAULT_ANGULAR_NODES,
    DEFAULT_RADIAL_NODES,
    MAX_GAUSS_NODES,
    SPLIT_HEAD_NODES,
    SPLIT_POINT,
    _CubicSpline,
    gauss_jacobi,
    split_gauss_jacobi,
    unit_sphere_area,
    weighted_angular_moment,
)

ONE = lambda rho, ang: np.ones(np.broadcast(rho, ang).shape)


def test_weight_params_invariants():
    p = WeightParams(s=1.25, N=3, R=2.0)
    assert p.b == 3.0 - 2.0 * p.s
    assert -1.0 < p.b < 1.0
    assert p.alpha == pytest.approx(p.s - 1.0)
    assert p.paper_regime  # 3 > 2.5
    assert not WeightParams(s=1.5, N=1).paper_regime
    q = WeightParams.from_b(-0.5, 4)
    assert q.b == pytest.approx(-0.5)


@pytest.mark.parametrize("bad", [{"s": 0.9, "N": 1}, {"s": 2.0, "N": 1},
                                 {"s": 1.5, "N": 0}, {"s": 1.5, "N": 2, "R": -1.0}])
def test_weight_params_rejects(bad):
    with pytest.raises(DomainError):
        WeightParams(**bad)


def test_halfball_unweighted_halfdisk_area(params_n1):
    # f = 1, N = 1, b = 0, r = 1: area of the half disk
    got = integrate_halfball(ONE, params_n1, 1.0)
    assert_allclose(got, math.pi / 2, rtol=1e-13)


def test_halfball_measure_homogeneity(params_n1):
    # scaling r^{N+b+1}: r = 2 gives 2 pi
    got = integrate_halfball(ONE, params_n1, 2.0, n_radial=128, n_angular=256)
    assert_allclose(got, 2 * math.pi, rtol=1e-13)


def test_halfball_weighted_against_adaptive_oracle():
    # frozen from scipy.integrate.dblquad over the half disk with weight t^0.5
    p = WeightParams.from_b(0.5, 1)
    got = integrate_halfball(ONE, p, 1.0)
    assert_allclose(got, 0.9585121877884734, rtol=1e-12)
    coarse = integrate_halfball(ONE, p, 1.0, n_radial=8, n_angular=16)
    assert_allclose(coarse, 0.9585121877884734, rtol=1e-12)
    # regenerate the oracle here so the frozen value stays auditable
    val, err = integrate.dblquad(
        lambda t, x: t ** 0.5, -1, 1, 0, lambda x: math.sqrt(1 - x * x),
        epsabs=1e-12, epsrel=1e-12,
    )
    assert_allclose(val, 0.9585121877884734, rtol=1e-10)


def test_halfsphere_halfcircle_length(params_n1):
    got = integrate_halfsphere(lambda a: np.ones_like(a), params_n1, 1.0)
    assert_allclose(got, math.pi, rtol=1e-12)


def test_halfsphere_theta_squared(params_n1):
    # g = theta_2^2 on the unit half circle: int_0^pi sin^2 = pi/2
    got = integrate_halfsphere(lambda a: np.sin(a) ** 2, params_n1, 1.0,
                               n_angular=16)
    assert_allclose(got, math.pi / 2, rtol=1e-13)


@pytest.mark.parametrize("fixture", ["params_n1", "params_n3", "params_n4"])
def test_euler_homogeneity_of_weighted_measure(fixture, request):
    # int_{S_r^+} t^b dS = (N+b+1) r^{-1} int_{B_r^+} t^b dz
    # on one angular grid; the radial Gauss-Jacobi rule is exact for f = 1
    p = request.getfixturevalue(fixture)
    r = 0.8
    sphere = integrate_halfsphere(lambda a: np.ones_like(a), p, r, n_angular=64)
    ball = integrate_halfball(ONE, p, r, n_angular=64)
    assert_allclose(sphere, (p.N + p.b + 1) / r * ball, rtol=1e-13)


@pytest.mark.parametrize("fixture", ["params_n1", "params_n3"])
def test_spectral_convergence_on_smooth_integrand(fixture, request):
    # the Gauss-Jacobi rule has converged to roundoff at 32 nodes, and g = 1
    # reproduces the closed-form weighted area
    p = request.getfixturevalue(fixture)
    g = lambda a: np.cos(1.7 * a) + 0.3 * a
    coarse = integrate_halfsphere(g, p, 1.0, n_angular=32)
    fine = integrate_halfsphere(g, p, 1.0, n_angular=64)
    assert_allclose(coarse, fine, rtol=1e-13)
    if p.N == 1:   # two mirrored quarter periods of sin^b
        area = 2.0 * weighted_angular_moment(p.b, 0)
    else:
        area = unit_sphere_area(p.N - 1) * weighted_angular_moment(p.N - 1, p.b)
    got = integrate_halfsphere(lambda a: np.ones_like(a), p, 1.0, n_angular=32)
    assert_allclose(got, area, rtol=1e-13)


def test_all_quadrature_weights_nonnegative(params_n3, params_n1):
    # the two factors of the half-ball rule of integrate_halfball
    for p in (params_n1, params_n3):
        x, w = gauss_jacobi(DEFAULT_RADIAL_NODES, p.N + p.b)
        assert np.all((x > 0) & (x < 1)) and np.all(w >= 0)
        assert np.all(AngularGrid1D.gauss(p.N, p.b, DEFAULT_ANGULAR_NODES).weights >= 0)


def test_radius_outside_coverage_raises(params_n1):
    for r in (0.0, -1.5, math.inf, math.nan):
        with pytest.raises(DomainError, match="radius must be positive and finite"):
            integrate_halfball(ONE, params_n1, r)


def test_halfball_rule_beyond_R_and_on_a_given_grid(params_n1, params_n3):
    # the rule covers any radius: R bounds the solutions, not the quadrature
    got = integrate_halfball(ONE, params_n1, 1.5)
    assert_allclose(got, math.pi / 2 * 1.5 ** 2, rtol=1e-13)
    p = params_n3
    sphere = integrate_halfsphere(lambda a: np.ones_like(a), p, 1.0, n_angular=12)
    ball = integrate_halfball(ONE, p, 1.0, n_radial=4, n_angular=12)
    assert_allclose(ball, sphere / (p.N + p.b + 1), rtol=1e-14)


@pytest.mark.parametrize("which", ["ball", "sphere"])
def test_half_ball_sums_refuse_an_underflow_and_keep_the_bits_above_it(which):
    # a positive integrand at N = 342, r = 0.5: the rule sum times the measure's
    # factors (the unit sphere's area about 1e-222) underflowed to 0.0
    def run(N):
        p = WeightParams(s=1.5, N=N)
        if which == "ball":
            return integrate_halfball(ONE, p, 0.5)
        return integrate_halfsphere(lambda a: np.ones_like(a), p, 0.5)

    with pytest.raises(DomainError, match=f"half-{which} integral underflows"):
        run(342)
    assert run(300) == {"ball": 1.15871006656144e-280, "sphere": 6.975434600699865e-278}[which]


_P = WeightParams(s=1.5, N=2)


def _solution():
    return synthesis.synthesize(_P, [(hemisphere.polynomial_mode(_P, 1), 1.0, 0.5)])


def _profile(kind):
    if kind == "bessel":
        return profile.BesselProfile(0.3)
    return profile.solve_profile(0.3, resolution=512)


_MALFORMED = {
    # no sector is <= nan: without the gate the mode sweep never ends
    "modes-k-max-nan": lambda: hemisphere.hemisphere_modes(_P, 4, k_max=math.nan),
    "zero-index-nan": lambda: special_functions.bessel_zero(0.5, math.nan),
    "zero-index-inf": lambda: special_functions.bessel_zero(0.5, math.inf),
    "zero-index-bool": lambda: special_functions.bessel_zero(0.5, True),
    "gamma-index-nan": lambda: special_functions.radial_norm_gamma(_P, math.nan),
    "j-nan-argument": lambda: special_functions.bessel_j(0.5, math.nan),
    "h-nan-argument": lambda: special_functions.bessel_h(0.5, math.nan),
    "h-deriv-nan-argument": lambda: special_functions.bessel_h_deriv(0.5, math.nan),
    "h-deriv-negative-argument": lambda: special_functions.bessel_h_deriv(0.5, -1.0),
    "mode-index-nan": lambda: cylinder.cylinder_mode(_P, math.nan, 1),
    "spectrum-count-fractional": lambda: cylinder.cylinder_spectrum(_P, 2.5),
    "dirichlet-count-fractional": lambda: cylinder.dirichlet_eigs(1, 1.0, 2.5),
    "dirichlet-negative-radius": lambda: cylinder.dirichlet_eigs(1, -1.0, 2),
    "dirichlet-nan-radius": lambda: cylinder.dirichlet_eigs(2, math.nan, 2),
    "eigs-k-max-nan": lambda: hemisphere.hemisphere_eigs(_P, k_max=math.nan),
    "eigs-resolution-nan": lambda: hemisphere.hemisphere_eigs(_P, resolution=math.nan),
    "eigs-per-k-nan": lambda: hemisphere.hemisphere_eigs(_P, per_k=math.nan),
    "eigs-refinements-negative": lambda: hemisphere.hemisphere_eigs(_P, refinements=-1),
    "schedule-per-decade-nan": lambda: almgren.radius_schedule(1.0, per_decade=math.nan),
    "schedule-decades-nan": lambda: almgren.radius_schedule(1.0, decades=math.nan),
    # per_decade * decades past the float range: a raw OverflowError, and no radius is built
    "schedule-decades-huge": lambda: almgren.radius_schedule(1.0, decades=1e308),
    "schedule-per-decade-huge": lambda: almgren.radius_schedule(1.0, per_decade=10 ** 400),
    # a bottom radius that underflows to 0: a raw ValueError from geomspace
    "schedule-bottom-underflows": lambda: almgren.radius_schedule(1.0, per_decade=1,
                                                                 decades=400.0),
    # a top radius not positive and finite gave negative, NaN or inf radii (0: a bare ValueError)
    "schedule-negative-R": lambda: almgren.radius_schedule(-1.0, per_decade=2, decades=1.0),
    "schedule-zero-R": lambda: almgren.radius_schedule(0.0),
    "schedule-nan-R": lambda: almgren.radius_schedule(math.nan),
    "schedule-inf-R": lambda: almgren.radius_schedule(math.inf),
    "schedule-negative-r-max": lambda: almgren.radius_schedule(1.0, r_max=-0.5),
    "schedule-nan-r-max": lambda: almgren.radius_schedule(1.0, r_max=math.nan),
    "schedule-inf-r-max": lambda: almgren.radius_schedule(1.0, r_max=math.inf),
    "profile-resolution-nan": lambda: profile.solve_profile(0.0, resolution=math.nan),
    # the closed form gave 0.0 at NaN, the finite-volume profile extrapolated its end cubic
    **{f"{kind}-{which}-{label}": (lambda kind=kind, which=which, value=value:
                                   getattr(_profile(kind), which)(value))
       for kind in ("bessel", "fv") for which in ("phi_at", "zeta_at")
       for label, value in (("nan", math.nan), ("negative", -0.5),
                            ("array-nan", [0.5, math.nan]))},
    # count=1.5 raised TypeError and seed=-1 a bare ValueError; count=-2 passed and a Sobolev
    # estimate then found "every member vanishing", cutoff_radius=-0.5 gave margins of 2e123
    "family-count-fractional": lambda: inequalities.TestFamily(_P, count=1.5),
    "family-count-negative": lambda: inequalities.TestFamily(_P, count=-2),
    "family-seed-negative": lambda: inequalities.TestFamily(_P, seed=-1),
    "family-cutoff-negative": lambda: inequalities.TestFamily(_P, cutoff_radius=-0.5),
    "family-kind-unknown": lambda: inequalities.TestFamily(_P, kind="waves"),
    "bumps-zero-width": lambda: inequalities.GaussianBumps([(1.0, 0.3, 0.0)]),
    "cutoff-zero-radius": lambda: inequalities.CutoffField(
        inequalities.QuadraticField(1.0, 0.0, 0.0), 0.0),
    # these returned NaN or accepted a fractional dimension
    "k-constant-nan": lambda: synthesis.k_constant(_P, math.nan),
    "sigma-exponents-nan": lambda: hemisphere.sigma_exponents(_P, math.nan),
    "moment-nan": lambda: weighted_angular_moment(math.nan, 1.0),
    "sphere-area-fractional": lambda: unit_sphere_area(1.5),
    "params-R-string": lambda: WeightParams(s=1.5, N=2, R="1"),
    "params-N-bool": lambda: WeightParams(s=1.5, N=True),
    # malformed shapes and entries: "input-" cases raise InputError
    "input-extension-levels-2d": lambda: profile.build_extension(_P, np.ones((8, 8)),
                                                                 [[0.1, 0.2]]),
    "input-trace-radii-2d": lambda: almgren.trace(_solution(), [[0.1, 0.2]]),
    "input-limit-no-candidates": lambda: almgren.frequency_limit(_solution(), candidates=[]),
    "input-synthesis-pair-entry": lambda: synthesis.synthesize(
        _P, [(hemisphere.polynomial_mode(_P, 0), 1.0)]),
    "input-synthesis-string-c1": lambda: synthesis.synthesize(
        _P, [(hemisphere.polynomial_mode(_P, 0), "1.0", 0.0)]),
    "input-eval-nan-angle": lambda: synthesis.eval_solution(_solution(), 0.5, math.nan),
    "input-eval-two-radii": lambda: synthesis.eval_solution(_solution(), [0.5, 0.4], 0.3),
    # radii whose powers leave the float range: raw OverflowErrors, or inf from the sphere sum
    "halfball-huge-radius": lambda: integrate_halfball(ONE, _P, 1e308),
    "halfsphere-huge-radius": lambda: integrate_halfsphere(lambda a: np.cos(a), _P, 1e308),
    "hardy-huge-radius": lambda: inequalities.check_hardy_trace(
        _P, inequalities.GaussianBumps([(1.0, 0.3, 0.2)]), 1e308),
    "rellich-huge-radius": lambda: inequalities.check_hardy_rellich(
        WeightParams(s=1.25, N=3), inequalities.CutoffField(
            inequalities.GaussianBumps([(1.0, 0.25, 0.18)], mirrored=True), 0.8), 1e308),
    "sobolev-huge-radius": lambda: inequalities.estimate_sobolev_trace_constant(
        _P, inequalities.TestFamily(_P, count=1), 1e308),
    "cutoff-huge-radius": lambda: inequalities.CutoffField(
        inequalities.QuadraticField(1.0, 0.0, 0.0), 1e308),
    # finite radii whose powers overflow: r^(N + b + 1) past the float range
    "halfball-overflowing-radius": lambda: integrate_halfball(ONE, _P, 1e200),
    "hardy-overflowing-radius": lambda: inequalities.check_hardy_trace(
        _P, inequalities.GaussianBumps([(1.0, 0.3, 0.2)]), 1e200),
    # huge but finite values: a RuntimeWarning, a raw OverflowError, or a
    # p = inf that passed the p > -1 gate
    "eval-huge-angle": lambda: synthesis.eval_solution(_solution(), 0.3, 1e308),
    "moment-huge-exponent": lambda: weighted_angular_moment(1.0, 1e308),
    "gauss-jacobi-inf-exponent": lambda: gauss_jacobi(8, math.inf),
    "angular-grid-inf-exponent": lambda: AngularGrid1D.gauss(1, math.inf, 8),
    # an empty sample reached the FFT; a huge one overflowed in it
    "input-extension-empty-sample": lambda: profile.build_extension(_P, [], [0.0]),
    "input-extension-huge-sample": lambda: profile.build_extension(_P, np.full(8, 1e308),
                                                                   [0.0]),
    # a string argument was read as the number it spells
    "input-bessel-string-argument": lambda: special_functions.bessel_j(0.5, "1"),
}
# the weight exponent b in (-1, 1) and the regularized order alpha in (0, 1),
# each behind one gate: NaN, both infinities and both endpoints fail it
_MALFORMED.update({
    f"{name}-{label}": (lambda call=call, value=value: call(value))
    for name, call, ends in (
        ("from-b", lambda b: WeightParams.from_b(b, 2), (-1.0, 1.0)),
        ("bessel-profile-b", profile.BesselProfile, (-1.0, 1.0)),
        ("solve-profile-b", lambda b: profile.solve_profile(b, resolution=512), (-1.0, 1.0)),
        ("h-alpha", lambda a: special_functions.bessel_h(a, 0.3), (0.0, 1.0)),
        ("h-deriv-alpha", lambda a: special_functions.bessel_h_deriv(a, 0.3), (0.0, 1.0)),
    )
    for label, value in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf),
                         ("low-end", ends[0]), ("high-end", ends[1]))
})


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_counts_and_arguments_raise_library_errors(case):
    # every count is an integer, not a bool, at least its floor; Bessel
    # arguments are finite and nonnegative; the Dirichlet ball radius is
    # positive and finite.  Mode lists and malformed shapes or entries raise
    # InputError, the rest DomainError.
    with pytest.raises(InputError if case.startswith(("modes-", "input-")) else DomainError):
        _MALFORMED[case]()


@pytest.mark.parametrize("kind", ["bessel", "fv"])
def test_profiles_vanish_at_infinity(kind):
    # +inf is a valid argument of both profiles, past every cut: 0, and no warning
    prof = _profile(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert prof.phi_at(math.inf) == 0.0 and prof.zeta_at(math.inf) == 0.0
        assert np.all(prof.phi_at(np.array([math.inf, math.inf])) == 0.0)


def test_nonfinite_sample_raises(params_n1):
    with pytest.raises(InputError):
        integrate_halfball(lambda rho, a: np.full(np.broadcast(rho, a).shape, np.nan),
                           params_n1, 1.0)


def test_normalized_hemisphere_eigenfunction_cross_check(params_n3, modes_n3):
    # the squared full eigenfunction Y = P(psi) Omega integrates to
    # R^{N+b+1}/(N+b+1) over the half ball, i.e. the angular factor is 1
    from almgren_lab.core import unit_sphere_area

    p = params_n3
    mode = next(m for m in modes_n3 if m.k == 0 and m.mu > 1)  # nonconstant k=0
    area = unit_sphere_area(p.N - 1)  # |Omega_0|^2 = 1/area for k = 0
    got = integrate_halfball(
        lambda rho, ang: np.broadcast_to(mode.profile(ang) ** 2 / area,
                                         np.broadcast(rho, ang).shape),
        p, p.R,
    )
    want = p.R ** (p.N + p.b + 1) / (p.N + p.b + 1)
    assert_allclose(got, want, rtol=2e-6)


@pytest.mark.parametrize("p", [-0.8, 0.4, 4.8])
def test_gauss_jacobi_exact_on_monomials(p):
    n = 12
    x, w = gauss_jacobi(n, p)
    assert np.all((x > 0) & (x < 1)) and np.all(w > 0)
    for k in range(2 * n):
        assert w @ x ** k == pytest.approx(1.0 / (p + k + 1), rel=1e-12), k


def test_gauss_jacobi_near_singular_exponent_keeps_moments():
    # p near -1 is where scipy's roots_jacobi weights lose digits
    x, w = gauss_jacobi(192, -0.9)
    for k in (0, 1, 2, 5):
        assert w @ x ** k == pytest.approx(1.0 / (k + 0.1), rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_gauss_angular_grid_matches_closed_moments(N):
    b = -0.6 if N % 2 else 0.35
    g = AngularGrid1D.gauss(N, b, 24)
    for e, c in [(0, 0), (2, 0), (0, 2), (3, 4)]:
        got = g.integrate_bare(np.sin(g.nodes) ** e * np.cos(g.nodes) ** c)
        if N == 1:  # int_0^pi sin^{b+e} cos^c: two mirrored quarter periods
            want = 2.0 * weighted_angular_moment(b + e, c)
        else:
            want = weighted_angular_moment(N - 1 + e, b + c)
        assert got == pytest.approx(want, rel=1e-13)
    assert np.all(np.diff(g.nodes) > 0)


@pytest.mark.parametrize("n", [64, 192])
@pytest.mark.parametrize("p", [-0.95, -0.5, 0.0, 0.3, 1.7, 4.9])
def test_split_gauss_jacobi_moments(n, p):
    # the Jacobi head and the Gauss-Legendre body together keep every
    # moment int_0^1 x^{p+k} dx to roundoff, high k included
    x, w = split_gauss_jacobi(n, p)
    assert x.size == w.size == SPLIT_HEAD_NODES + n
    assert np.all(np.diff(x) > 0) and 0 < x[0] and x[-1] < 1 and np.all(w > 0)
    assert np.count_nonzero(x < SPLIT_POINT) == SPLIT_HEAD_NODES
    for k in (0, 1, 5, 20, 60):
        assert w @ x ** k == pytest.approx(1.0 / (p + k + 1), rel=1e-14), k


@pytest.mark.parametrize("n,p", [(0, 0.4), (-3, 0.4), (2.0, 0.4), (True, 0.4),
                                 (MAX_GAUSS_NODES + 1, 0.4),
                                 (8, -1.0), (8, -2.5), (8, math.nan)])
def test_split_gauss_jacobi_rejects(n, p):
    with pytest.raises(DomainError):
        split_gauss_jacobi(n, p)


def test_gauss_rules_are_read_only():
    x, w = gauss_jacobi(8, 0.4)
    xs, ws = split_gauss_jacobi(8, 0.4)
    g = AngularGrid1D.gauss(3, 0.4, 8)
    for arr in (x, w, xs, ws, g.nodes, g.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n,p", [(0, 0.4), (-3, 0.4), (2.0, 0.4), (True, 0.4),
                                 (8, -1.0), (8, -2.5), (8, math.nan)])
def test_gauss_jacobi_rejects(n, p):
    with pytest.raises(DomainError):
        gauss_jacobi(n, p)


def _golub_welsch_on_scipy(n, p):
    """A scipy reference for `gauss_jacobi`: the same Jacobi matrix on `eigh_tridiagonal`."""
    linalg = pytest.importorskip("scipy.linalg")
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + p
    diag = np.empty(n)
    diag[0] = p / (p + 2.0)
    diag[1:] = p * p / (c * (c + 2.0))
    off = 2.0 * k * (k + p) / (c * np.sqrt(c * c - 1.0))
    nodes, vecs = linalg.eigh_tridiagonal(0.5 * (1.0 + diag), 0.5 * off)
    return nodes, vecs[0] ** 2 / (p + 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 32, 128, 527])
@pytest.mark.parametrize("p", [-0.999, -0.5, 0.0, 0.37, 5.0])
def test_gauss_jacobi_matches_the_tridiagonal_eigensolve(n, p):
    # numpy's dense eigh against scipy's tridiagonal one (bit-identical here)
    x, w = gauss_jacobi(n, p)
    xs, ws = _golub_welsch_on_scipy(n, p)
    assert np.all(np.abs(x - xs) <= 1e-15 * np.abs(xs))
    assert np.all(np.abs(w - ws) <= 1e-15 * ws)


@pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3, 7, 32, 128, 527)
                                 for p in (-0.99, -0.5, 0.0, 0.5, 5.0)]
                         # a 2048-node eigensolve takes about 1.5 s: the cap at two weights
                         + [(MAX_GAUSS_NODES, -0.99), (MAX_GAUSS_NODES, 0.5)])
def test_gauss_jacobi_moments_to_roundoff(n, p):
    # moments k <= 32 within 1e-14 of 1/(p + k + 1) (7.9e-15 measured); the
    # exact ones up to k = 2n - 1 within the rounding of x^k, (k + 1) 2e-15
    x, w = gauss_jacobi(n, p)
    k = np.unique(np.concatenate([np.arange(min(33, 2 * n)),
                                  np.linspace(0, 2 * n - 1, 64).astype(int)]))
    moments = (x[None, :] ** k[:, None]) @ w
    error = np.abs(moments * (p + k + 1) - 1.0)
    assert np.all(error[k <= 32] <= 1e-14)
    assert np.all(error <= 2e-15 * (k + 1))


def test_gauss_node_cap(params_n3):
    # Golub-Welsch stores all n^2 eigenvector entries; past the cap the rule
    # is refused before the eigensolve, directly and through the angular default
    n = MAX_GAUSS_NODES + 1
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"cap of {MAX_GAUSS_NODES}"):
        gauss_jacobi(n, 0.5)
    with pytest.raises(DomainError, match=f"cap of {MAX_GAUSS_NODES}"):
        integrate_halfsphere(lambda a: np.ones_like(a), params_n3, 1.0, n_angular=n)
    assert time.perf_counter() - start < 0.5
    x, w = gauss_jacobi(MAX_GAUSS_NODES, 0.5)
    assert x.size == MAX_GAUSS_NODES
    assert w.sum() == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_gamma_closed_forms_match_the_gammaln_form():
    # math.gamma in place of scipy's gammaln; measured relative gaps: 7.5e-16
    # for the sphere areas up to S^20, 5.5e-15 for the moments with exponents
    # in (-1, 10]
    special = pytest.importorskip("scipy.special")
    for dim in range(21):
        want = 2.0 * math.pi ** ((dim + 1) / 2.0) / math.exp(special.gammaln((dim + 1) / 2.0))
        assert unit_sphere_area(dim) == pytest.approx(want, rel=1e-15, abs=0.0), dim
    grid = np.linspace(-0.999, 10.0, 61)
    for a in grid:
        for c in grid:
            want = 0.5 * math.exp(special.gammaln((a + 1) / 2.0) + special.gammaln((c + 1) / 2.0)
                                  - special.gammaln((a + c + 2) / 2.0))
            assert weighted_angular_moment(a, c) == pytest.approx(want, rel=1e-14, abs=0.0), (a, c)


@pytest.mark.parametrize("kind, n", [("centres", 64), ("centres", 257), ("centres", 4096),
                                     ("centres", 16385), ("random", 4), ("random", 5),
                                     ("random", 33), ("random", 1000)])
def test_cubic_spline_matches_scipy_not_a_knot(kind, n):
    # finite-volume cell centres on (0, pi/2), or a sorted random grid; the
    # points are the nodes, the midpoints and points up to a quarter span
    # outside the data, where both extend the end cubics
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    if kind == "centres":
        x = (np.arange(n) + 0.5) * (math.pi / 2.0 / n)
    else:
        x = np.sort(rng.uniform(-1.0, 2.0, n))
    y = np.cos(3.0 * x) + 0.1 * rng.standard_normal(n)
    span = x[-1] - x[0]
    xp = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                         x[0] - span * np.array([0.25, 1e-3]), x[-1] + span * np.array([1e-3, 0.25]),
                         rng.uniform(x[0] - 0.25 * span, x[-1] + 0.25 * span, 200)])
    ours, theirs = _CubicSpline(x, y), interpolate.CubicSpline(x, y)
    for nu in (0, 1):
        want = theirs(xp, nu)
        # relative to the largest value: a pointwise ratio is ill-posed at zeros
        assert np.max(np.abs(ours(xp, nu) - want)) <= 1e-14 * np.max(np.abs(want)), nu
        assert float(ours(xp[3], nu)) == pytest.approx(float(want[3]), rel=1e-14, abs=1e-14)
    assert np.array_equal(ours(x[:-1]), y[:-1])     # a piece starts at its knot's value


_BAD_SPLINE_DATA = {
    "three-points": ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0]),
    "repeated-abscissa": ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    "decreasing-abscissa": ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    "nan-abscissa": ([0.0, 1.0, 2.0, math.nan], [0.0, 1.0, 2.0, 3.0]),
    "nan-value": ([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0]),
    "inf-value": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, math.inf, 3.0]),
    "length-mismatch": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
    "two-dimensional": ([[0.0, 1.0, 2.0, 3.0]], [[0.0, 1.0, 2.0, 3.0]]),
}


@pytest.mark.parametrize("case", sorted(_BAD_SPLINE_DATA))
def test_cubic_spline_refuses_short_unsorted_or_nonfinite_data(case):
    x, y = _BAD_SPLINE_DATA[case]
    with pytest.raises(AlmgrenLabError):
        _CubicSpline(x, y)


def test_cubic_spline_derivative_orders_beyond_one_raise():
    spline = _CubicSpline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 8.0, 27.0])
    assert spline(1.5) == pytest.approx(1.5 ** 3, rel=1e-15)   # not-a-knot keeps cubics
    assert spline(1.5, nu=1) == pytest.approx(3.0 * 1.5 ** 2, rel=1e-15)
    with pytest.raises(DomainError):
        spline(1.5, nu=2)
