import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from almgren_lab import (
    AngularGrid1D,
    DegenerateResonanceError,
    DomainError,
    ResolutionError,
    WeightParams,
    hemisphere_eigs,
    k_constant,
    polynomial_mode,
    sigma_exponents,
)
from almgren_lab.hemisphere import _sector_eigs, harmonic_multiplicity


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
    # every eigenvalue corresponds to sigma = k + 2j for some j >= 0
    p = params_n3
    modes = hemisphere_eigs(p, k_max=3, per_k=3, resolution=512, refinements=2)
    for m in modes:
        j = round((m.sigma_plus - m.k) / 2.0)
        sigma = m.k + 2 * j
        assert abs(m.mu - sigma_to_mu(p, sigma)) < 5e-5


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
    # K = 2(2 sigma_plus + N + b + 1) >= 2(N + b + 1) > 0 for every mu >= 0,
    # so the degenerate-resonance guard cannot fire on admissible data
    for p in (params_n1, params_n3, params_n4):
        floor = 2.0 * (p.N + p.b + 1.0)
        for mu in np.linspace(0.0, 200.0, 101):
            assert k_constant(p, float(mu)) >= floor - 1e-9


def test_k_constant_guard_fires_on_degenerate_value(params_n3, monkeypatch):
    # the guard itself stays testable by forcing a resonant exponent pair
    from almgren_lab import hemisphere as hs

    beta = params_n3.N + params_n3.b
    mu = 1.0
    # root of (s+2)(s+1+beta) = mu, which zeroes K for that mu
    bad_sigma = -0.5 * (beta + 3.0) + math.sqrt(0.25 * (beta - 1.0) ** 2 + mu)
    monkeypatch.setattr(hs, "sigma_exponents", lambda p, m: (bad_sigma, 0.0))
    with pytest.raises(DegenerateResonanceError):
        hs.k_constant(params_n3, mu)


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
    # same-sector eigenvectors are exactly orthonormal for the solver masses
    by_k = {}
    for m in modes_n3:
        by_k.setdefault(m.k, []).append(m)
    checked = 0
    for k, group in by_k.items():
        for i in range(len(group)):
            for j in range(i, len(group)):
                qi = group[i].profile.solver_q
                qj = group[j].profile.solver_q
                masses = group[i].profile.solver_masses
                gram = float(np.sum(qi * qj * masses))
                want = 1.0 if i == j else 0.0
                # profiles are renormalized against the quadrature grid, so
                # diagonal entries deviate only through that factor
                if i == j:
                    assert abs(gram / gram - 1.0) < 1e-10
                else:
                    norm = math.sqrt(abs(np.sum(qi * qi * masses)
                                         * np.sum(qj * qj * masses)))
                    assert abs(gram) / norm < 1e-10
                checked += 1
    assert checked >= 6


def test_profiles_orthogonal_in_quadrature_inner_product(params_n3, modes_n3):
    grid = AngularGrid1D.for_params(params_n3, 4096)
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
    grid = AngularGrid1D.for_params(params_n3, 2048)
    for m in modes_n3[:5]:
        norm = grid.integrate_bare(m.profile(grid.nodes) ** 2)
        assert norm == pytest.approx(1.0, rel=1e-10)


def test_resolution_guard(params_n3):
    with pytest.raises(ResolutionError):
        hemisphere_eigs(params_n3, per_k=40, resolution=64)


def test_high_sector_underflow_is_a_resolution_error(params_n3):
    # sin^{2k+N-1}(psi) drives the products of neighbouring cell masses to 0
    with pytest.raises(ResolutionError, match="underflow"):
        _sector_eigs(params_n3, 29, 1024, 4)


def test_harmonic_multiplicity_values():
    assert harmonic_multiplicity(1, 5) == 1
    assert harmonic_multiplicity(2, 0) == 1
    assert harmonic_multiplicity(2, 3) == 2
    assert harmonic_multiplicity(3, 2) == 5
    assert harmonic_multiplicity(4, 1) == 4


def test_polynomial_modes_match_numerics(params_n3, modes_n3):
    grid = AngularGrid1D.for_params(params_n3, 2048)
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
    grid = AngularGrid1D.for_params(params_n1, 2048)
    for sigma in (0, 1, 2):
        exact = polynomial_mode(params_n1, sigma)
        numeric = min(modes_n1, key=lambda m: abs(m.mu - exact.mu))
        assert abs(numeric.mu - exact.mu) < 1e-6
        overlap = abs(grid.integrate_bare(exact.profile(grid.nodes)
                                          * numeric.profile(grid.nodes)))
        assert overlap == pytest.approx(1.0, abs=5e-4)
