import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from almgren_lab import (
    AngularGrid1D,
    DomainError,
    InputError,
    ResolutionError,
    WeightParams,
    hemisphere_eigs,
    k_constant,
    polynomial_mode,
    sigma_exponents,
)
from almgren_lab.core import unit_sphere_area, weighted_angular_moment
from almgren_lab.hemisphere import (
    MAX_MODES,
    _jacobi,
    _log_jacobi_norm2,
    _richardson,
    _sector_eigs,
    exact_mu,
    harmonic_multiplicity,
    hemisphere_modes,
    sigma_multiplicity,
    sphere_harmonic_value,
)


def sigma_to_mu(params, sigma):
    return sigma * (sigma + params.N + params.b - 1.0)


def test_n1_b0_first_five(params_n1, modes_n1):
    # Neumann half circle: mu = l^2
    mus = [m.mu for m in modes_n1[:5]]
    assert_allclose(mus, [0.0, 1.0, 4.0, 9.0, 16.0], atol=1e-6)
    assert [m.ell for m in modes_n1[:5]] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("fixture", ["params_n3", "params_n4"])
def test_polynomial_eigenvalues_present(fixture, request):
    p = request.getfixturevalue(fixture)
    modes = hemisphere_eigs(p, k_max=3, per_k=4, resolution=256, refinements=2)
    mus = np.array([m.mu for m in modes])
    for sigma in (0, 1, 2):
        target = sigma_to_mu(p, sigma)
        assert np.min(np.abs(mus - target)) < 1e-5


def test_constant_mode_present_and_multiplicity(params_n3, modes_n3):
    m0 = modes_n3[0]
    assert m0.mu == pytest.approx(0.0, abs=1e-9)
    assert m0.multiplicity == 1
    # sigma = 1 space is spanned by the N coordinates
    m1 = next(m for m in modes_n3 if abs(m.mu - sigma_to_mu(params_n3, 1)) < 1e-6)
    assert m1.multiplicity == params_n3.N


def test_symbolic_harmonic_anchors(params_n3):
    # the anchor polynomials are annihilated by the weighted Laplacian
    import sympy as sp

    x1, x2, x3, t, b = sp.symbols("x1 x2 x3 t b", positive=True)
    xs = [x1, x2, x3]

    def lap_b(expr):
        out = sum(sp.diff(expr, v, 2) for v in xs) + sp.diff(expr, t, 2) \
            + b / t * sp.diff(expr, t)
        return sp.simplify(out)

    assert lap_b(x1) == 0
    assert lap_b(x1 * x2) == 0
    assert lap_b(x1 ** 2 - t ** 2 / (1 + b)) == 0
    # mu follows from the sigma map: checked numerically elsewhere


def test_full_spectrum_matches_sigma_ladder(params_n3):
    # every eigenvalue is that of its degree sigma = k + 2j
    p = params_n3
    modes = hemisphere_eigs(p, k_max=3, per_k=3, resolution=512, refinements=2)
    for m in modes:
        assert m.ell >= m.k and (m.ell - m.k) % 2 == 0
        assert abs(m.mu - sigma_to_mu(p, m.ell)) < 5e-5


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_finite_volume_modes_are_named_by_degree_and_sector(N):
    # eigenpair j of sector k is the mode of degree k + 2j (j for N = 1), so
    # the list order, the names and the multiplicities are those of the
    # closed-form list at every resolution; only mu carries the solver error
    p = WeightParams(s=1.25, N=N)
    step = 1 if N == 1 else 2
    want = [(m.ell, m.k) for m in hemisphere_modes(p, 40, k_max=3) if m.ell - m.k < 4 * step]
    for resolution in (256, 512, 1024):
        for refinements in (0, 1, 2):
            modes = hemisphere_eigs(p, k_max=3, per_k=4, resolution=resolution,
                                    refinements=refinements)
            assert [(m.ell, m.k) for m in modes] == want, (resolution, refinements)
            # Richardson extrapolated; a single grid has its O(h^2) error
            # (2.5e-4 at resolution 256)
            tol = 1e-5 if refinements else 4e-4 * (256 / resolution) ** 2
            for m in modes:
                assert m.multiplicity == sigma_multiplicity(N, m.ell)
                assert abs(m.mu - exact_mu(p, m.ell)) <= tol * max(m.mu, 1.0), \
                    (resolution, refinements, m.ell, m.k)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("s", [1.05, 1.3, 1.5, 1.75, 1.95])
def test_closed_form_sigma_plus_is_the_degree_exactly(N, s):
    # no square root: the larger exponent of mu_sigma is sigma itself, except
    # for the constant mode when N + b < 1, where it is 1 - N - b
    p = WeightParams(s=s, N=N)
    for sigma in range(60):
        want = 1.0 - p.N - p.b if sigma == 0 and p.N + p.b < 1 else float(sigma)
        mode = polynomial_mode(p, sigma)
        assert mode.sigma_plus == want, sigma
        # and the other root is 1 - N - b - sigma+, with no square root either
        assert mode.sigma_minus == min(float(sigma), 1.0 - p.N - p.b - sigma), sigma


def test_sigma_exponents_examples(params_n3):
    sp_, sm = sigma_exponents(params_n3, 0.0)
    assert sp_ == pytest.approx(0.0)
    assert sm == pytest.approx(-(params_n3.N + params_n3.b - 1.0))
    sp_, sm = sigma_exponents(params_n3, 3.5)
    assert sp_ == pytest.approx(1.0, abs=1e-13)
    assert sm == pytest.approx(-3.5, abs=1e-13)
    with pytest.raises(DomainError):
        sigma_exponents(params_n3, -1.0)


@pytest.mark.parametrize("mu", [0.0, 0.37, 3.5, 12.2])
def test_sigma_round_trip(params_n3, mu):
    sp_, sm = sigma_exponents(params_n3, mu)
    beta1 = params_n3.N + params_n3.b - 1.0
    assert sp_ * (sp_ + beta1) == pytest.approx(mu, abs=1e-12)
    assert sm * (sm + beta1) == pytest.approx(mu, abs=1e-12)
    assert sp_ >= 0.0
    assert sm <= -beta1 + 1e-12


def test_k_constant_examples(params_n3):
    assert k_constant(params_n3, 0.0) == pytest.approx(9.0)
    assert k_constant(params_n3, 3.5) == pytest.approx(13.0)


def test_k_constant_identity(params_n3, modes_n3):
    # K = (sigma+2)(sigma+N+b+1) - mu, and also 2(2 sigma + N + b + 1)
    p = params_n3
    for m in modes_n3[:6]:
        K = k_constant(p, m)
        s = m.sigma_plus
        assert K == pytest.approx((s + 2) * (s + p.N + p.b + 1) - m.mu, rel=1e-12)
        assert K == pytest.approx(2 * (2 * s + p.N + p.b + 1), rel=1e-10)
        assert K > 0


def test_k_constant_never_degenerate_in_range(params_n1, params_n3, params_n4):
    # K = 2(2 sigma_plus + N + b + 1) >= 2(N + b + 1) > 0 for every mu >= 0
    for p in (params_n1, params_n3, params_n4):
        floor = 2.0 * (p.N + p.b + 1.0)
        for mu in np.linspace(0.0, 200.0, 101):
            assert k_constant(p, float(mu)) >= floor - 1e-9


def test_richardson_convergence_order(params_n3):
    # order >= 2 on a genuinely converging eigenvalue (the sigma = 2, k = 0 one)
    p = params_n3
    target = sigma_to_mu(p, 2)
    errs = []
    for n in (128, 256, 512):
        vals, *_ = _sector_eigs(p, 0, n, 3)
        mu = vals[np.argmin(np.abs(vals - target))]
        errs.append(abs(mu - target))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_exact_modes_are_discretely_exact(params_n3):
    # constants (mu = 0) and the pure-harmonic sector bottoms (mu = k(k+N+b-1))
    # are reproduced to solver precision at any resolution
    p = params_n3
    for k in (0, 1, 2):
        vals, *_ = _sector_eigs(p, k, 128, 1)
        assert abs(vals[0] - sigma_to_mu(p, k)) < 1e-10


def test_profiles_orthonormal_in_discrete_inner_product(params_n3, modes_n3):
    # same-sector eigenvectors are orthonormal for the solver masses; each
    # profile is eigenvector j of its sector (sigma = k + 2j) on the finest
    # grid, with discrete norm 1 up to the Gauss-rule renormalization
    p = params_n3
    for k in range(4):
        _, q, masses, centers = _sector_eigs(p, k, 1024, 4)   # the finest level of modes_n3
        gram = q.T @ (q * masses[:, None])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10
        for m in (m for m in modes_n3 if m.k == k):
            qj = q[:, (m.ell - k) // 2]
            samples = m.profile(centers) / np.sin(centers) ** k
            scale = float(samples @ qj / (qj @ qj))
            assert np.max(np.abs(samples - scale * qj)) <= 1e-12 * np.max(np.abs(samples))
            assert abs(np.sum(samples ** 2 * masses) - 1.0) <= 1e-4


def test_profiles_orthogonal_in_quadrature_inner_product(params_n3, modes_n3):
    grid = AngularGrid1D.gauss(params_n3.N, params_n3.b, 256)
    same_k = [m for m in modes_n3 if m.k == 0][:3]
    for i in range(len(same_k)):
        vi = same_k[i].profile(grid.nodes)
        for j in range(i + 1, len(same_k)):
            vj = same_k[j].profile(grid.nodes)
            assert abs(grid.integrate_bare(vi * vj)) < 5e-6


def test_equator_nonvanishing(params_n1, params_n3, modes_n1, modes_n3):
    for modes in (modes_n1, modes_n3):
        for m in modes[:8]:
            assert abs(m.equator_value()) > 1e-6


def test_sigma_plus_increasing(modes_n3):
    mus = [m.mu for m in modes_n3]
    sig = [m.sigma_plus for m in modes_n3]
    order = np.argsort(mus)
    assert np.all(np.diff(np.array(sig)[order]) > -1e-12)


def test_normalization_against_quadrature(params_n3, modes_n3):
    grid = AngularGrid1D.gauss(params_n3.N, params_n3.b, 256)
    for m in modes_n3[:5]:
        norm = grid.integrate_bare(m.profile(grid.nodes) ** 2)
        assert norm == pytest.approx(1.0, rel=1e-10)


def test_resolution_guard(params_n3):
    with pytest.raises(ResolutionError):
        hemisphere_eigs(params_n3, per_k=40, resolution=64)


def test_high_sector_underflow_is_a_resolution_error(params_n3):
    # sin^{2k+N-1}(psi) drives the cell masses next to the pole to 0
    with pytest.raises(ResolutionError, match="underflow"):
        _sector_eigs(params_n3, 60, 1024, 4)


@pytest.mark.parametrize("k", [28, 29, 40])
def test_high_sector_eigenvalues_match_the_closed_form(params_n3, k):
    # the pole-side masses of these sectors are ~1e-167 at n = 1024, so their
    # plain products are subnormal (6.8e-317 at k = 28) or 0; the
    # off-diagonals use products of their square roots.  Tolerance as in
    # test_finite_volumes_match_the_closed_form.
    levels = [_sector_eigs(params_n3, k, n, 3)[0] for n in (1024, 2048)]
    want = [exact_mu(params_n3, k + 2 * j) for j in range(3)]
    assert_allclose(_richardson(levels), want, rtol=1e-6, atol=0.0)


def test_harmonic_multiplicity_values():
    assert harmonic_multiplicity(1, 5) == 1
    assert harmonic_multiplicity(2, 0) == 1
    assert harmonic_multiplicity(2, 3) == 2
    assert harmonic_multiplicity(3, 2) == 5
    assert harmonic_multiplicity(4, 1) == 4


def test_polynomial_modes_match_numerics(params_n3, modes_n3):
    grid = AngularGrid1D.gauss(params_n3.N, params_n3.b, 256)
    for sigma in (0, 1, 2):
        exact = polynomial_mode(params_n3, sigma)
        numeric = min(modes_n3, key=lambda m: abs(m.mu - exact.mu))
        assert abs(numeric.mu - exact.mu) < 1e-6
        if numeric.k == exact.k:
            vi = exact.profile(grid.nodes)
            vj = numeric.profile(grid.nodes)
            overlap = abs(grid.integrate_bare(vi * vj))
            assert overlap == pytest.approx(1.0, abs=5e-4)


def test_n2_spectrum_sigma_ladder():
    # N = 2 uses the circle harmonics; eigenvalues follow sigma (sigma + 1 + b)
    p = WeightParams.from_b(0.3, 2)
    modes = hemisphere_eigs(p, k_max=2, per_k=3, resolution=256, refinements=2)
    mus = np.array([m.mu for m in modes])
    for sigma in (0, 1, 2):
        target = sigma * (sigma + p.N + p.b - 1.0)
        assert np.min(np.abs(mus - target)) < 1e-5
    m1 = next(m for m in modes if m.k == 1)
    assert m1.multiplicity == 2  # cos and sin families


def test_polynomial_modes_match_numerics_n1(params_n1, modes_n1):
    grid = AngularGrid1D.gauss(params_n1.N, params_n1.b, 256)
    for sigma in (0, 1, 2):
        exact = polynomial_mode(params_n1, sigma)
        numeric = min(modes_n1, key=lambda m: abs(m.mu - exact.mu))
        assert abs(numeric.mu - exact.mu) < 1e-6
        overlap = abs(grid.integrate_bare(exact.profile(grid.nodes)
                                          * numeric.profile(grid.nodes)))
        assert overlap == pytest.approx(1.0, abs=5e-4)


# ---------------------------------------------------------------------------
# closed-form modes


def _anchor_polynomial(params, sigma, k):
    """The sigma <= 2 modes as explicit harmonic polynomials with Beta-function norms."""
    N, b = params.N, params.b
    I = weighted_angular_moment
    if N == 1:
        table = {
            0: (lambda p: np.ones_like(p), lambda p: np.zeros_like(p), 2.0 * I(b, 0)),
            1: (np.cos, lambda p: -np.sin(p), 2.0 * I(b, 2)),
            2: (lambda p: np.cos(p) ** 2 - np.sin(p) ** 2 / (1 + b),
                lambda p: -2 * np.cos(p) * np.sin(p) * (1 + 1.0 / (1 + b)),
                2.0 * (I(b, 4) - 2.0 / (1 + b) * I(b + 2, 2) + I(b + 4, 0) / (1 + b) ** 2)),
        }
        fn, dfn, norm2 = table[sigma]
    else:
        table = {
            (0, 0): (lambda p: np.ones_like(p), lambda p: np.zeros_like(p), I(N - 1, b)),
            (1, 1): (np.sin, np.cos, I(N + 1, b)),
            (2, 0): (lambda p: np.sin(p) ** 2 / N - np.cos(p) ** 2 / (1 + b),
                     lambda p: 2 * np.sin(p) * np.cos(p) * (1.0 / N + 1.0 / (1 + b)),
                     I(N + 3, b) / N ** 2 - 2.0 / (N * (1 + b)) * I(N + 1, b + 2)
                     + I(N - 1, b + 4) / (1 + b) ** 2),
            (2, 2): (lambda p: np.sin(p) ** 2, lambda p: 2 * np.sin(p) * np.cos(p), I(N + 3, b)),
        }
        fn, dfn, norm2 = table[(sigma, k)]
    A = 1.0 / math.sqrt(norm2)
    return (lambda p: A * fn(p)), (lambda p: A * dfn(p))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1.0000000000000002, 1.25, 1.5, 1.9, 1.9999999999999996])
def test_closed_form_anchors_equal_the_explicit_polynomials(N, s):
    p = WeightParams(s=s, N=N)
    psi = np.linspace(0.0, math.pi if N == 1 else math.pi / 2, 97)
    keys = [(0, 0), (1, 0), (2, 0)] if N == 1 else [(0, 0), (1, 1), (2, 0), (2, 2)]
    for sigma, k in keys:
        mode = polynomial_mode(p, sigma, k)
        fn, dfn = _anchor_polynomial(p, sigma, k)
        assert_allclose(mode.profile(psi), fn(psi), rtol=0, atol=1e-13)
        assert_allclose(mode.profile.deriv(psi), dfn(psi), rtol=0, atol=1e-13)
        assert mode.mu == sigma_to_mu(p, sigma)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [0.6, 0.5, -0.5, -0.8])
def test_finite_volumes_match_the_closed_form(N, b):
    # the numerical solver is the independent check of the production modes
    p = WeightParams.from_b(b, N)
    grid = AngularGrid1D.gauss(N, p.b, 64)
    fv_modes = hemisphere_eigs(p, k_max=3, per_k=3, resolution=1024, refinements=1)
    assert len(fv_modes) == (3 if N == 1 else 12)
    for fv in fv_modes:
        sigma = fv.ell
        exact = polynomial_mode(p, sigma, fv.k)
        assert abs(fv.mu - exact.mu) <= 1e-6 * max(exact.mu, 1.0), (sigma, fv.k)
        err = np.max(np.abs(fv.profile(grid.nodes) - exact.profile(grid.nodes)))
        assert err <= 1e-5, (sigma, fv.k, err)


# s stays below 1.999: as b -> -1 the reference rule loses digits (the low
# moments of gauss_jacobi(64, p) are off by 7.8e-11 at p = -1 + 2e-6), which
# the 1e-12 gate would read as an error of the modes; the anchors test covers
# the closed form up to s = 2 - 4e-16
@settings(max_examples=40)
@given(s=st.floats(min_value=1.0, max_value=1.999, exclude_min=True),
       N=st.integers(min_value=1, max_value=6), sigma=st.integers(min_value=0, max_value=16),
       data=st.data())
def test_closed_form_mode_properties(s, N, sigma, data):
    p = WeightParams(s=s, N=N)
    k = 0 if N == 1 else data.draw(st.sampled_from(range(sigma % 2, sigma + 1, 2)), label="k")
    mode = polynomial_mode(p, sigma, k)
    assert (mode.ell, mode.k, mode.mu) == (sigma, k, sigma_to_mu(p, sigma))
    # orthonormal within its sector, up to four degrees above
    grid = AngularGrid1D.gauss(N, p.b, 64)
    values = mode.profile(grid.nodes)
    for other in range(0, sigma + 5) if N == 1 else range(k, sigma + 5, 2):
        gram = grid.integrate_bare(values * polynomial_mode(p, other, k).profile(grid.nodes))
        assert abs(gram - (other == sigma)) <= 1e-12, (other, gram)
    assert mode.equator_value() > 0
    # the derivative, and the weighted eigen-equation
    #   P'' + ((N-1) cot psi - b tan psi) P' - k (k+N-2) / sin^2 psi P + mu P = 0
    # (for N = 1: P'' + b cot phi P' + mu P = 0) by centred differences
    top = math.pi - 0.1 if N == 1 else math.pi / 2 - 0.1
    psi = np.linspace(0.1, top, 41)
    P, dP = mode.profile(psi), mode.profile.deriv(psi)
    scale = (1.0 + mode.mu) * np.max(np.abs(values))
    h = 1e-6
    fd = (mode.profile(psi + h) - mode.profile(psi - h)) / (2 * h)
    assert np.max(np.abs(fd - dP)) <= 1e-7 * scale
    h = 1e-5
    d2P = (mode.profile.deriv(psi + h) - mode.profile.deriv(psi - h)) / (2 * h)
    if N == 1:
        residual = d2P + p.b / np.tan(psi) * dP + mode.mu * P
    else:
        residual = (d2P + ((N - 1) / np.tan(psi) - p.b * np.tan(psi)) * dP
                    - k * (k + N - 2) / np.sin(psi) ** 2 * P + mode.mu * P)
    assert np.max(np.abs(residual)) <= 1e-6 * scale


def test_closed_form_list_order_and_multiplicity():
    for N in (1, 2, 3, 6):
        p = WeightParams(s=1.4, N=N)
        modes = hemisphere_modes(p, 60)
        keys = [(m.ell, m.k) for m in modes]
        assert keys == sorted(keys) and len(set(keys)) == 60
        want = [(sg, k) for sg in range(60)
                for k in ([0] if N == 1 else range(sg % 2, sg + 1, 2))][:60]
        assert keys == want
        for m in modes:
            assert m.multiplicity == sigma_multiplicity(N, m.ell)
            if N >= 2:
                assert m.multiplicity == sum(harmonic_multiplicity(N, k)
                                             for k in range(m.ell % 2, m.ell + 1, 2))
    assert sigma_multiplicity(3, 26) == 378
    assert [m.k for m in hemisphere_modes(WeightParams(s=1.4, N=3), 12, k_max=1)] == \
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("count", [0, -1, MAX_MODES + 1, 1.5, True])
def test_closed_form_list_rejects_counts_outside_the_cap(count):
    with pytest.raises(InputError):
        hemisphere_modes(WeightParams(s=1.4, N=3), count)


def test_closed_form_list_rejects_negative_k_max():
    with pytest.raises(InputError):
        hemisphere_modes(WeightParams(s=1.4, N=3), 4, k_max=-1)


@pytest.mark.parametrize("sigma, k", [(-1, None), (2, 1), (3, 5), (1.0, None), (2, -2)])
def test_polynomial_mode_rejects_bad_indices(params_n3, sigma, k):
    with pytest.raises(DomainError):
        polynomial_mode(params_n3, sigma, k)


def test_polynomial_mode_n1_has_the_one_sector(params_n1):
    assert polynomial_mode(params_n1, 3).k == 0
    with pytest.raises(DomainError):
        polynomial_mode(params_n1, 3, k=1)


@pytest.mark.parametrize("b", [0.9, -0.9])
def test_closed_form_stays_orthonormal_at_the_cap(b):
    # N = 1 reaches the highest degree: position MAX_MODES - 1 is sigma = MAX_MODES - 1
    p = WeightParams.from_b(b, 1)
    modes = hemisphere_modes(p, MAX_MODES)
    grid = AngularGrid1D.gauss(1, p.b, 768)
    top = [m.profile(grid.nodes) for m in modes[-3:]]
    for i in range(3):
        for j in range(i, 3):
            want = 1.0 if i == j else 0.0
            assert abs(grid.integrate_bare(top[i] * top[j]) - want) <= 1e-11


@pytest.mark.parametrize("a1, b1", [(4.5e-16, 4.5e-16), (1e-8, 1e-8), (0.3, 0.3),
                                    (2.5, 4.5e-16), (3.0, 0.75)])
def test_jacobi_recurrence_against_high_precision(a1, b1):
    # the parameters enter as alpha + 1 and beta + 1; near s = 2 (N = 1) both
    # are ~1e-16, where scipy's eval_jacobi(4, a, a, x) returns 0
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    alpha, beta = mpmath.mpf(a1) - 1, mpmath.mpf(b1) - 1

    def explicit(n, x):
        # DLMF 18.5.8: sum_s C(n+alpha, n-s) C(n+beta, s) ((x-1)/2)^s ((x+1)/2)^(n-s)
        x = mpmath.mpf(x)
        return sum(mpmath.binomial(n + alpha, n - s) * mpmath.binomial(n + beta, s)
                   * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s) for s in range(n + 1))

    x = np.linspace(-1.0, 1.0, 21)
    for n in (0, 1, 2, 4, 9, 30):
        got = _jacobi(n, a1, b1, x)
        want = np.array([float(explicit(n, xi)) for xi in x])
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), n


def test_kept_gauss_samples_are_read_only(params_n3, modes_n3):
    fv, exact = modes_n3[2].profile, polynomial_mode(params_n3, 2).profile
    for prof in (fv, exact):
        P, dP = prof._on_gauss(params_n3.N, params_n3.b, 20)
        assert prof._on_gauss(params_n3.N, params_n3.b, 20)[0] is P
        nodes = AngularGrid1D.gauss(params_n3.N, params_n3.b, 20).nodes
        np.testing.assert_array_equal(P, prof(nodes))
        np.testing.assert_array_equal(dP, prof.deriv(nodes))
        for arr in (P, dP):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _gegenbauer_harmonic(special, N, k, x):
    """The zonal harmonic as c_k C_k^lam(x) with scipy's Gegenbauer and Gamma."""
    lam = (N - 2) / 2.0
    h_k = math.pi * 2.0 ** (1 - 2 * lam) * math.exp(
        special.gammaln(k + 2 * lam) - special.gammaln(k + 1) - 2 * special.gammaln(lam)
    ) / (k + lam)
    return special.eval_gegenbauer(k, lam, x) / math.sqrt(unit_sphere_area(N - 2) * h_k)


def test_zonal_harmonic_matches_the_gegenbauer_form():
    # P_k^{(a, a)} / sqrt(|S^{N-2}| h_k) against c_k C_k^{(N-2)/2}: both round
    # like k eps, and the measured gap (relative to the sup over chi) is at
    # most 9.4e-16 (k + 1): 3.1e-16 at k = 0, 3.7e-14 at k = 40
    special = pytest.importorskip("scipy.special")
    chi = np.linspace(0.0, math.pi, 200)
    for N in (3, 4, 5, 6):
        for k in range(41):
            want = _gegenbauer_harmonic(special, N, k, np.cos(chi))
            got = sphere_harmonic_value(N, k, chi)
            assert np.max(np.abs(got - want)) <= 1e-15 * (k + 1) * np.max(np.abs(want)), (N, k)
    assert isinstance(sphere_harmonic_value(4, 3, 0.3), float)


def test_zonal_harmonic_against_40_digits():
    # measured: the Jacobi form is within 1.9e-16 (k + 1) of the sup (4.8e-15
    # at most); the Gegenbauer form it replaced is up to 1.9e-14 off here
    mpmath = pytest.importorskip("mpmath")
    x = np.cos(np.linspace(0.0, math.pi, 40))
    for N in (3, 5):
        for k in (10, 25, 40):
            with mpmath.workdps(40):
                lam = mpmath.mpf(N - 2) / 2
                area = 2 * mpmath.pi ** (mpmath.mpf(N - 1) / 2) / mpmath.gamma(mpmath.mpf(N - 1) / 2)
                h_k = (mpmath.pi * 2 ** (1 - 2 * lam) * mpmath.gamma(k + 2 * lam)
                       / (mpmath.factorial(k) * mpmath.gamma(lam) ** 2 * (k + lam)))
                c = 1 / mpmath.sqrt(area * h_k)
                exact = np.array([float(c * mpmath.gegenbauer(k, lam, mpmath.mpf(float(xi))))
                                  for xi in x])
            sup = np.max(np.abs(exact))
            err = np.max(np.abs(sphere_harmonic_value(N, k, np.arccos(x)) - exact)) / sup
            assert err <= 3e-16 * (k + 1), (N, k, err)


def test_jacobi_norm_matches_the_gammaln_form():
    # Gamma ratios from math in place of scipy's gammaln: both are within a
    # few ulp of the log-Gammas, so the two sums differ by a few ulp of their
    # largest terms (measured: at most 1.6 eps times the sum of the term
    # magnitudes, for N = 1 up to the last listed degree and N = 2..6 up to
    # j = k = 40)
    special = pytest.importorskip("scipy.special")
    eps = np.finfo(float).eps

    def terms(j, a1, b1):
        c = a1 + b1
        if j == 0:
            return [(c - 1.0) * math.log(2.0), special.gammaln(a1), special.gammaln(b1),
                    -special.gammaln(c)]
        return [(c - 1.0) * math.log(2.0), -math.log((2 * j - 1) + c),
                special.gammaln(j + a1), special.gammaln(j + b1),
                -special.gammaln((j - 1) + c), -special.gammaln(j + 1.0)]

    b1s = np.concatenate([np.linspace(0.025, 0.975, 39), [1e-16, 1e-8, 1.0 - 1e-9]])
    cases = [(j, b1, b1) for b1 in b1s[::2] for j in range(MAX_MODES)]
    cases += [(j, k + 0.5 * N, b1) for b1 in b1s[::8] for N in range(2, 7)
              for k in range(0, 41, 4) for j in range(41)]
    for j, a1, b1 in cases:
        t = terms(j, a1, b1)
        gap = abs(_log_jacobi_norm2(j, a1, b1) - math.fsum(t))
        assert gap <= 2.0 * eps * (1.0 + sum(map(abs, t))), (j, a1, b1)


def test_mode_amplitudes_are_within_2e_14_of_40_digits():
    # the amplitude A = h^{-1/2} of the first 60 modes at N = 1 and 3: the
    # math.gamma ratios keep it to 1.5e-14 (mean 1.4e-15), where the gammaln
    # sums gave 6.1e-14 (mean 3.4e-15), measured at N = 1..4, s = 1.05..1.95
    mpmath = pytest.importorskip("mpmath")

    def exact(j, a1, b1):
        with mpmath.workdps(40):
            a1, b1 = mpmath.mpf(a1), mpmath.mpf(b1)
            c = a1 + b1
            if j == 0:
                out = (c - 1) * mpmath.log(2) + mpmath.loggamma(a1) + mpmath.loggamma(b1) \
                    - mpmath.loggamma(c)
            else:
                out = ((c - 1) * mpmath.log(2) - mpmath.log(2 * j - 1 + c)
                       + mpmath.loggamma(j + a1) + mpmath.loggamma(j + b1)
                       - mpmath.loggamma(j - 1 + c) - mpmath.loggamma(j + 1))
            return out

    for s in (1.05, 1.5, 1.95):
        b1 = 0.5 * (3.0 - 2.0 * s + 1.0)
        cases = [(sigma, b1, b1) for sigma in range(60)]
        cases += [((m.ell - m.k) // 2, m.k + 1.5, b1)
                  for m in hemisphere_modes(WeightParams(s=s, N=3), 60)]
        for j, a1, b in cases:
            with mpmath.workdps(40):
                err = abs(float(mpmath.expm1((exact(j, a1, b) - _log_jacobi_norm2(j, a1, b)) / 2)))
            assert err <= 2e-14, (s, j, a1, err)


@pytest.mark.parametrize("s", [1.05, 1.25, 1.3, 1.5, 1.7, 1.75, 1.95])
def test_high_degree_amplitudes_against_40_digits(s):
    # N = 1 modes of degree 20..511 take their Gamma ratios from the Stirling
    # difference, given the exact argument differences.  Measured: A within
    # 1.6e-15 at every s, also where j + b1 is not exact in binary (s = 1.05,
    # 1.3, 1.7, 1.95), whose rounding moved log Gamma by psi(j) ulp(j) and
    # A by up to 7.9e-14 while the difference was formed from the arguments
    mpmath = pytest.importorskip("mpmath")
    b1 = 0.5 * (3.0 - 2.0 * s + 1.0)
    bound = 4e-15
    with mpmath.workdps(40):
        c = 2 * mpmath.mpf(b1)
        for j in range(20, MAX_MODES):
            want = ((c - 1) * mpmath.log(2) - mpmath.log(2 * j - 1 + c)
                    + 2 * mpmath.loggamma(j + mpmath.mpf(b1))
                    - mpmath.loggamma(j - 1 + c) - mpmath.loggamma(j + 1))
            err = abs(float(mpmath.expm1((want - _log_jacobi_norm2(j, b1, b1)) / 2)))
            assert err <= bound, (s, j, err)
