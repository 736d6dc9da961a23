import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almgren_lab import (
    AngularGrid1D,
    DomainError,
    UnmatchedExponentError,
    VanishingDenominatorError,
    WeightParams,
    check_H_derivative,
    check_pohozaev,
    compute_DH,
    fourier_coefficient,
    frequency,
    frequency_limit,
    hemisphere_eigs,
    nu_decomposition,
    polynomial_mode,
    radius_schedule,
    synthesize,
    trace,
)
from almgren_lab import almgren
from almgren_lab.core import InputError, gauss_jacobi
from almgren_lab.synthesis import gauss_nodes


@pytest.fixture(scope="module")
def p3():
    return WeightParams(s=1.25, N=3)


@pytest.fixture(scope="module")
def pure1(p3):
    return synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0)])


@pytest.fixture(scope="module")
def mixed(p3):
    return synthesize(p3, [(polynomial_mode(p3, 0), 0.7, 1.3),
                           (polynomial_mode(p3, 2), 0.4, -0.2)])


def test_pure_mode_DH(p3, pure1):
    # normalized pure harmonic: H = r^{2 sigma}, D = sigma r^{2 sigma}
    for r in (0.1, 0.5, 0.9):
        D, H = compute_DH(pure1, r)
        assert H == pytest.approx(r ** 2, rel=1e-12)
        assert D == pytest.approx(1.0 * r ** 2, rel=1e-12)


def test_zero_solution(p3):
    # synthesize refuses the zero solution; built by hand (with no terms, or
    # with zero coefficients) it has H = 0, and every operation of either
    # path refuses it alike, at the one gate of the pieces
    from almgren_lab.synthesis import SeparableSolution, Term

    for terms in range(3):
        sol = SeparableSolution(p3, tuple(Term(polynomial_mode(p3, sigma), 0.0, 0.0)
                                          for sigma in range(terms)))
        for method in ("closed", "quadrature"):
            for op in (lambda: compute_DH(sol, 0.5, method),
                       lambda: frequency(sol, 0.5, method),
                       lambda: trace(sol, [0.5, 0.25], method),
                       lambda: nu_decomposition(sol, 0.5, method),
                       lambda: check_H_derivative(sol, method),
                       lambda: check_pohozaev(sol, 0.5, method),
                       lambda: frequency_limit(sol)):
                with pytest.raises(VanishingDenominatorError,
                                   match=r"H\(0\.[0-9]+\) is not positive"):
                    op()


def test_pure_mode_frequency_constant(p3):
    for sigma in (0, 1, 2):
        mode = polynomial_mode(p3, sigma)
        sol = synthesize(p3, [(mode, 1.3, 0.0)])
        for r in np.geomspace(0.9, 1e-3, 20):
            assert abs(frequency(sol, r) - mode.sigma_plus) < 1e-10


def test_two_mode_frequency_closed_form(p3):
    # N(r) = (s0 + s1 e^2 rho)/(1 + e^2 rho), rho = r^{2(s1-s0)}, nondecreasing
    eps = 0.3
    sol = synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0),
                          (polynomial_mode(p3, 2), eps, 0.0)])
    radii = np.geomspace(0.9, 1e-3, 24)
    vals = [frequency(sol, r) for r in radii]
    for r, v in zip(radii, vals):
        rho = r ** 2
        want = (1.0 + 2.0 * eps ** 2 * rho) / (1.0 + eps ** 2 * rho)
        assert v == pytest.approx(want, rel=1e-12)
    assert np.all(np.diff(vals) <= 1e-14)  # nondecreasing in r (radii descend)


def test_mixed_mode_frequency_tends_to_sigma(p3):
    mode = polynomial_mode(p3, 1)
    sol = synthesize(p3, [(mode, 0.5, 2.0)])
    vals = [frequency(sol, r) for r in (0.5, 0.1, 0.01, 0.001)]
    gaps = [abs(v - mode.sigma_plus) for v in vals]
    assert gaps[-1] < 1e-5
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_cross_path_consistency(p3, mixed, pure1):
    for sol in (pure1, mixed):
        for r in (0.25, 0.5, 0.8):
            Dc, Hc = compute_DH(sol, r)
            Dq, Hq = compute_DH(sol, r, method="quadrature")
            assert Dq == pytest.approx(Dc, rel=1e-12)
            assert Hq == pytest.approx(Hc, rel=1e-12)


def test_cross_path_n1():
    p1 = WeightParams(s=1.5, N=1)
    sol = synthesize(p1, [(polynomial_mode(p1, 1), 0.5, 0.8),
                          (polynomial_mode(p1, 2), 1.0, 0.0)])
    for r in (0.3, 0.7):
        Dc, Hc = compute_DH(sol, r)
        Dq, Hq = compute_DH(sol, r, method="quadrature")
        assert Dq == pytest.approx(Dc, rel=1e-12)
        assert Hq == pytest.approx(Hc, rel=1e-12)


def test_H_derivative_closed(p3, mixed):
    assert check_H_derivative(mixed) <= 1e-10
    sol = synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0),
                          (polynomial_mode(p3, 2), 0.6, 0.0)])
    assert check_H_derivative(sol) <= 1e-10


def test_H_derivative_trace_order2(p3, mixed):
    res = []
    for per_decade in (32, 64):
        radii = radius_schedule(1.0, per_decade=per_decade, decades=1.0, r_max=0.5)
        tr = trace(mixed, radii)
        res.append(check_H_derivative(tr))
    assert res[1] < res[0] / 3.0  # second-order shrink under refinement


def test_pohozaev_closed(p3, pure1, mixed):
    for sol in (pure1, mixed):
        for r in (0.25, 0.5, 0.75):
            r1, r2 = check_pohozaev(sol, r)
            assert r1 <= 1e-12 and r2 <= 1e-12


def test_pohozaev_quadrature(p3, mixed):
    for r in (0.25, 0.5, 0.75):
        r1, r2 = check_pohozaev(mixed, r, method="quadrature")
        assert r1 <= 1e-12 and r2 <= 1e-12


def test_nu_decomposition_pure_mode(p3, pure1):
    nu1, nu2 = nu_decomposition(pure1, 0.5)
    assert abs(nu1) < 1e-14 and abs(nu2) < 1e-14


def test_nu1_nonnegative_random_syntheses(p3, rng):
    modes = [polynomial_mode(p3, s) for s in (0, 1, 2)]
    for _ in range(10):
        picks = rng.choice(3, size=2, replace=False)
        spec = [(modes[i], rng.normal(), rng.normal()) for i in picks]
        sol = synthesize(p3, spec)
        for r in rng.uniform(0.05, 0.95, size=50):
            nu1, _ = nu_decomposition(sol, float(r))
            assert nu1 >= -1e-9


def test_nu_sum_matches_fd_Nprime(p3, mixed):
    errs = []
    for delta_rel in (1e-3, 5e-4):
        worst = 0.0
        for r in (0.2, 0.4, 0.6):
            d = delta_rel * r
            fd = (frequency(mixed, r + d) - frequency(mixed, r - d)) / (2 * d)
            nu1, nu2 = nu_decomposition(mixed, r)
            worst = max(worst, abs(fd - (nu1 + nu2)))
        errs.append(worst)
    assert errs[1] < errs[0] / 3.0  # O(delta^2) convergence of the check
    assert errs[1] < 1e-6


def test_nu2_bound_shape(p3, mixed):
    # |nu2(r)| <= C1 N(r) + C3 r with constants fitted on the trace
    radii = radius_schedule(1.0, per_decade=32, decades=2.0, r_max=0.5)
    tr = trace(mixed, radii)
    A = np.column_stack([tr.N, tr.r])
    coef, *_ = np.linalg.lstsq(A, np.abs(tr.nu2), rcond=None)
    fitted = A @ np.abs(coef)
    assert np.all(np.abs(tr.nu2) <= 1.05 * fitted + 1e-9)


def test_trace_invariants(p3, mixed):
    tr = trace(mixed, radius_schedule(1.0))
    assert np.all(tr.H > 0)
    assert tr.lower_bound_margin() >= -1e-12
    assert np.all(tr.nu1 >= -1e-9)
    # H r^{-2 gamma} bounded above and below on the smallest decade
    gamma = frequency_limit(mixed).gamma
    scaled = tr.H * tr.r ** (-2 * gamma)
    small = tr.r <= tr.r[-1] * 10
    assert scaled[small].min() > 0
    assert scaled.max() < math.inf


def test_frequency_limit_pure(p3):
    for sigma in (1, 2):
        mode = polynomial_mode(p3, sigma)
        sol = synthesize(p3, [(mode, 2.0, 0.0)])
        res = frequency_limit(sol)
        assert res.gamma == pytest.approx(mode.sigma_plus, abs=1e-8)
        assert res.matched.kind == "sigma_plus"
        assert res.h_limit == pytest.approx(4.0, rel=1e-6)


def test_frequency_limit_two_mode(p3):
    sol = synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0),
                          (polynomial_mode(p3, 2), 0.4, 0.0)])
    res = frequency_limit(sol)
    assert res.gamma == pytest.approx(1.0, abs=1e-10)
    assert 0.9 <= res.h_band[0] <= res.h_band[1] <= 1.1


def test_frequency_limit_mixed_system_vs_U_trace(p3):
    # c1 = 0, d1 = 1: the joint (U, V) frequency still converges to sigma
    # because V dominates H; the U-layer alone fits the sigma + 2 branch
    mode = polynomial_mode(p3, 1)
    sol = synthesize(p3, [(mode, 0.0, 1.0)])
    res = frequency_limit(sol)
    assert res.gamma == pytest.approx(mode.sigma_plus, abs=1e-6)
    assert res.h_limit > 0


def test_frequency_limit_unmatched_raises(p3, mixed):
    with pytest.raises(UnmatchedExponentError):
        frequency_limit(mixed, candidates=[7.3])


def test_frequency_limit_before_the_schedule_reaches_it():
    # the sigma = 3 term is 1e-6 of the sigma = 4 one: N(r) is still near 4
    # at the smallest radius, but the limit is 3
    p = WeightParams(s=1.3, N=1)
    sol = synthesize(p, [(polynomial_mode(p, 3), 1e-6, 0.0), (polynomial_mode(p, 4), 1.0, 0.0)])
    assert trace(sol).N[-1] > 3.9
    res = frequency_limit(sol)
    assert res.matched.value == 3.0 and res.matched.kind == "sigma_plus"
    assert res.gamma == pytest.approx(3.0, abs=1e-4)
    assert res.h_limit == pytest.approx(1e-12, rel=1e-4)


def test_frequency_limit_basis_missing_a_term_raises(monkeypatch):
    # the fit is a certificate: without the sigma = 1 term's powers, D and H
    # leave an O(1) residual
    p = WeightParams(s=1.882238, N=1)
    const = polynomial_mode(p, 0)
    sol = synthesize(p, [(const, 0.3, 0.0), (polynomial_mode(p, 1), 1.0, 0.0)])
    assert frequency_limit(sol).fit_residual <= 1e-13
    alone = synthesize(p, [(const, 0.3, 0.0)])
    monkeypatch.setattr(almgren, "_fit_exponents",
                        lambda s, fit=almgren._fit_exponents: fit(alone))
    with pytest.raises(UnmatchedExponentError, match="residual"):
        frequency_limit(sol)


def test_frequency_limit_forms_no_trace_and_no_nu(monkeypatch, mixed):
    def refuse(*args, **kwargs):
        raise AssertionError("frequency_limit must not form a trace or nu")

    want = frequency_limit(mixed)
    monkeypatch.setattr(almgren, "trace", refuse)
    monkeypatch.setattr(almgren, "_nu", refuse)
    assert frequency_limit(mixed) == want


def test_frequency_limit_merges_near_equal_exponents(p3):
    # a twin of the sigma = 1 mode whose sigma+ is 1 + eps, as finite-volume
    # sectors of one sigma differ in their last digits: the two leading powers
    # share a column, so gamma stays between them; two columns this close
    # are near collinear and let gamma leave the interval (by 4e-8 at eps = 1e-9)
    one = polynomial_mode(p3, 1)
    for eps in (1e-8, 1e-9):
        sigma = 1.0 + eps
        twin = dataclasses.replace(one, mu=sigma * (sigma + p3.N + p3.b - 1.0),
                                   sigma_plus=sigma)
        sol = synthesize(p3, [(one, 0.7, 0.2), (twin, 0.9, 0.4),
                              (polynomial_mode(p3, 2), 0.5, 0.1)])
        # the twin is a term of its own, and its powers 2 sigma + {0, 2, 4}
        # are merged into those of the sigma = 1 term
        assert [t.sigma for t in sol.terms] == [1.0, sigma, 2.0]
        assert almgren._fit_exponents(sol).tolist() == [2.0, 4.0, 6.0, 8.0]
        res = frequency_limit(sol)
        assert 0.0 <= res.gamma - 1.0 <= eps, res.gamma - 1.0
        assert res.fit_residual <= almgren.FIT_RESIDUAL_BOUND


def test_frequency_limit_requires_small_radii(p3, mixed):
    with pytest.raises(DomainError):
        frequency_limit(mixed, frequency_trace=trace(mixed, np.geomspace(0.5, 0.1, 30)))


def test_frequency_limit_reads_the_trace_it_is_given(monkeypatch, mixed):
    # the fit runs on the trace's own r, D and H and evaluates no pieces
    tr = trace(mixed)
    want = frequency_limit(mixed)
    monkeypatch.setattr(almgren, "_pieces", None)
    assert frequency_limit(mixed, frequency_trace=tr) == want


def test_frequency_limit_of_a_quadrature_trace_of_an_exact_synthesis():
    p = WeightParams(s=1.7, N=4)
    sol = synthesize(p, [(polynomial_mode(p, 1), 0.0, 1.0), (polynomial_mode(p, 2, k=2), 0.8, 0.3),
                         (polynomial_mode(p, 3), -0.5, 0.0)])
    closed = frequency_limit(sol)
    quad = frequency_limit(sol, frequency_trace=trace(sol, method="quadrature"))
    assert abs(quad.gamma - closed.gamma) <= 1e-10
    assert quad.h_limit == pytest.approx(closed.h_limit, rel=1e-10)


def test_frequency_limit_refuses_a_trace_of_other_params(p3, mixed):
    other = WeightParams(s=p3.s, N=p3.N, R=2.0)
    with pytest.raises(InputError, match="trace is of"):
        frequency_limit(mixed, frequency_trace=trace(synthesize(other, [(polynomial_mode(other, 1),
                                                                         1.0, 0.0)])))


def test_trace_lower_bound_includes_negative_frequency(p3):
    # a d1-dominated synthesis keeps N(r) >= -r^2/(N+b-1)
    sol = synthesize(p3, [(polynomial_mode(p3, 0), 0.05, 3.0)])
    tr = trace(sol, radius_schedule(1.0))
    assert tr.lower_bound_margin() >= -1e-12


@pytest.mark.parametrize("s, nb", [(1.5, "1"), (1.6, "0.8")])
def test_lower_bound_margin_needs_n_plus_b_above_1(s, nb):
    # N + b = 1 divided by zero (an infinite margin); N + b = 0.8 gave -0.19
    p = WeightParams(s=s, N=1)
    sol = synthesize(p, [(polynomial_mode(p, 1), 1.0, 0.5), (polynomial_mode(p, 2), 0.4, 0.0)])
    tr = trace(sol)
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match=rf"needs N \+ b > 1, got {nb}$"):
            tr.lower_bound_margin()


def test_nu_cross_path(p3, mixed):
    # the dual evaluation paths agree on the decomposition of N' as well
    for r in (0.3, 0.6):
        c1, c2 = nu_decomposition(mixed, r)
        q1, q2 = nu_decomposition(mixed, r, method="quadrature")
        assert q1 == pytest.approx(c1, abs=1e-12 * max(1.0, abs(c1)))
        assert q2 == pytest.approx(c2, abs=1e-12 * max(1.0, abs(c2)))


@pytest.mark.parametrize("N, s, k_max, per_k", [(1, 1.3, 0, 16), (1, 1.5, 0, 16),
                                              (3, 1.25, 3, 4), (4, 1.7, 3, 4)])
def test_finite_volume_modes_cross_path(N, s, k_max, per_k):
    # one-term syntheses of every finite-volume mode: the closed path reads
    # the profile norm as 1, the quadrature path integrates the spline on the
    # Gauss-Jacobi rule the profile was normalized on, so D, H and N agree.
    # At N + b = 1 (N = 1, s = 1.5) the constant mode's slope must be exactly
    # 0, or the quadrature path marks a divergent exponent-0 power law active
    p = WeightParams(s=s, N=N)
    radii = np.geomspace(0.45, 0.0045, 9)[::2]
    for mode in hemisphere_eigs(p, k_max=k_max, per_k=per_k):
        for c1 in (0.7, 0.0):
            sol = synthesize(p, [(mode, c1, 0.9)])
            closed = trace(sol, radii)
            quad = trace(sol, radii, method="quadrature")
            for field in ("D", "H", "N"):
                want, got = getattr(closed, field), getattr(quad, field)
                gap = float(np.max(np.abs(got - want) / np.abs(want)))
                assert gap <= 1e-7, (mode.ell, mode.k, c1, field, gap)


def test_harmonic_syntheses_have_monotone_frequency(p3, rng):
    # with no source layer (all d1 = 0) the derivative reduces to the
    # boundary bracket nu1 >= 0, so N(r) is nondecreasing
    modes = [polynomial_mode(p3, s) for s in (0, 1, 2)]
    for _ in range(5):
        sol = synthesize(p3, [(m, rng.normal(), 0.0) for m in modes])
        radii = np.geomspace(0.9, 1e-3, 40)
        vals = [frequency(sol, float(r)) for r in radii]
        assert np.all(np.diff(vals) <= 1e-12)  # radii descend
        for r in (0.2, 0.5, 0.8):
            nu1, nu2 = nu_decomposition(sol, r)
            assert nu2 == 0.0
            assert nu1 >= 0.0


def _multi_block(params):
    # N >= 2: blocks k = 0 (two terms), k = 1 and k = 2; N = 1: one block of three
    if params.N == 1:
        modes = [polynomial_mode(params, s) for s in (0, 1, 2)]
    else:
        modes = [polynomial_mode(params, 0), polynomial_mode(params, 1),
                 polynomial_mode(params, 2), polynomial_mode(params, 2, k=2)]
    coefs = [(0.7, 1.3), (-0.4, 0.0), (0.5, -0.2), (1.1, 0.6)]
    return synthesize(params, [(m, c1, d1) for m, (c1, d1) in zip(modes, coefs)])


@pytest.mark.parametrize("N, s", [(1, 1.3), (3, 1.25), (4, 1.7)])
def test_batched_trace_matches_single_radius_traces(N, s):
    sol = _multi_block(WeightParams(s=s, N=N))
    # 19 radii in one numpy pass of either path: no record may depend on the
    # other radii of the schedule or on their order
    radii = radius_schedule(1.0, per_decade=6, decades=3.0)
    for method in ("closed", "quadrature"):
        whole = trace(sol, radii, method=method)
        backward = trace(sol, radii[::-1], method=method)
        singles = [trace(sol, [r], method=method) for r in radii]
        for name in ("D", "H", "N", "nu1", "nu2"):
            got = getattr(whole, name)
            alone = np.array([getattr(t, name)[0] for t in singles])
            np.testing.assert_allclose(got, alone, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(got, getattr(backward, name)[::-1], rtol=1e-13, atol=0.0)


# N: (blocks, (sigma, k, c1, d1) rows); k = None is the default sector sigma mod 2
_GRAM_SYNTHESES = {
    3: (2, ((0, None, 0.7, 1.3), (2, None, 0.4, -0.2), (1, None, -0.6, 0.9))),
    4: (3, ((0, 0, 0.7, 1.3), (2, 0, 0.4, -0.2), (1, 1, -0.6, 0.9), (2, 2, 0.5, 0.0),
            (3, 1, 0.3, 0.8))),
}


def _power_law(term, r):
    """phi, phi', phi~, phi~' of a term, written out: c1 r^s + e r^{s+2} and d1 r^s."""
    s, c1, e, d1 = term.sigma, term.c1, term.e, term.d1
    return (c1 * r ** s + e * r ** (s + 2), c1 * s * r ** (s - 1) + e * (s + 2) * r ** (s + 1),
            d1 * r ** s, d1 * s * r ** (s - 1))


def test_gram_quadrature_pieces_match_pair_sums():
    # the quadrature path sums the radial power laws in closed form; the oracle
    # integrates them on its own radial Gauss-Jacobi rule
    for N, (blocks, spec) in _GRAM_SYNTHESES.items():
        p = WeightParams(s=1.25, N=N)
        sol = synthesize(p, [(polynomial_mode(p, sigma, k), c1, d1)
                             for sigma, k, c1, d1 in spec])
        n = gauss_nodes(max(t.sigma for t in sol.terms))
        keys = np.array([t.mode.k for t in sol.terms])
        by_key: dict[int, list] = {}
        for t in sol.terms:
            by_key.setdefault(t.mode.k, []).append(t)
        assert len(by_key) == blocks
        # the pairs are those of one block, every one of them, and no other
        i, j, _, _ = almgren._angular_pairs(sol)
        assert sorted(zip(i.tolist(), j.tolist())) == [
            (a, b) for a in range(keys.size) for b in range(keys.size) if keys[a] == keys[b]]
        radii = np.array([0.6, 0.2])
        pc = almgren._pieces(sol, radii, "quadrature")
        got = np.array([getattr(pc, f.name) for f in dataclasses.fields(pc)])
        # the tensor rule: Gauss-Jacobi in rho / r, whose nodes avoid the origin,
        # and in the polar angle, whose nodes avoid the pole
        grid = AngularGrid1D.gauss(p.N, p.b, n)
        nodes, w = grid.nodes, grid.weights
        x, wx = gauss_jacobi(n, p.N + p.b)
        assert np.all(np.sin(nodes) > 0.0) and np.all(x > 0.0)
        beta = p.N + p.b
        for col, r in enumerate(radii):
            rho, wr = r * x, r ** (beta + 1.0) * wx
            want = np.zeros(8)
            for k, terms in by_key.items():
                m = len(terms)
                A = np.zeros((m, m))
                E = np.zeros((m, m))
                for i in range(m):
                    for j in range(m):
                        pi, pj = terms[i].mode.profile, terms[j].mode.profile
                        A[i, j] = np.sum(w * pi(nodes) * pj(nodes))
                        E[i, j] = np.sum(w * pi.deriv(nodes) * pj.deriv(nodes))
                        E[i, j] += k * (k + N - 2) * np.sum(w * pi(nodes) * pj(nodes) / np.sin(nodes) ** 2)
                # (phi, phi', phi~, phi~') of each term on the nodes and on the sphere
                on_nodes = [_power_law(t, rho) for t in terms]
                on_sphere = [_power_law(t, r) for t in terms]
                for i in range(m):
                    for j in range(m):
                        (u, du, v, dv), (uj, duj, vj, dvj) = on_nodes[i], on_nodes[j]
                        want[0] += A[i, j] * np.sum(wr * (du * duj + dv * dvj))
                        want[0] += E[i, j] * np.sum(wr * (u * uj + v * vj) / rho ** 2)
                        want[1] += A[i, j] * np.sum(wr * u * vj)
                        want[2] += A[i, j] * np.sum(wr * rho * v * duj)
                        (u, du, v, dv), (uj, duj, vj, dvj) = on_sphere[i], on_sphere[j]
                        f, df = u * uj, du * duj
                        g, dg = v * vj, dv * dvj
                        want[3] += r ** beta * A[i, j] * (f + g)
                        want[4] += r ** beta * A[i, j] * (u * duj + v * dvj)
                        want[5] += r ** beta * (A[i, j] * (df + dg) + E[i, j] * (f + g) / r ** 2)
                        want[6] += r ** beta * A[i, j] * (df + dg)
                        want[7] += r ** beta * A[i, j] * u * vj
            np.testing.assert_allclose(got[:, col], want, rtol=1e-12)


def test_repeated_angular_work_evaluates_no_profile(monkeypatch):
    # the blow-up samples and the quadrature path reuse each profile's kept
    # Gauss samples, here on finite-volume modes, whose evaluations are splines
    from almgren_lab.hemisphere import AngularProfile

    p = WeightParams(s=1.25, N=3)
    modes = hemisphere_eigs(p, k_max=2, per_k=3, resolution=256)
    spec = [(0, 0.7, 1.3), (1, -0.6, 0.9), (3, 0.4, -0.2), (5, 0.5, 0.0)]
    sol = synthesize(p, spec, modes=modes)
    lams = np.geomspace(0.3, 0.02, 8)
    target = modes[1]
    fourier_coefficient(sol, target, lams[0])
    trace(sol, [0.4, 0.1], method="quadrature")
    calls = []
    for name in ("__call__", "deriv"):
        original = getattr(AngularProfile, name)

        def counted(self, psi, _original=original, _name=name):
            calls.append(_name)
            return _original(self, psi)

        monkeypatch.setattr(AngularProfile, name, counted)
    for lam in lams[1:]:
        fourier_coefficient(sol, target, lam)
    assert calls == []
    again = synthesize(p, [(i, -2.0 * c1, 0.5 * d1) for i, c1, d1 in spec[1:]], modes=modes)
    trace(again, [0.4, 0.1], method="quadrature")
    assert calls == []


class _StubMode:
    """A mode with a prescribed exponent, outside the spectrum on purpose."""

    def __init__(self, params, sigma_plus):
        self.params, self.sigma_plus, self.mu, self.k = params, sigma_plus, 0.0, 0


def test_divergent_exponent_and_vanishing_H_still_raise(p3):
    from almgren_lab.synthesis import SeparableSolution, Term

    # 2 sigma + N + b - 1 <= 0 with an active c1: the ball integral diverges at 0
    stub = Term(mode=_StubMode(p3, -1.5), c1=1.0, d1=0.0)
    divergent = SeparableSolution(params=p3, terms=(stub,))
    with pytest.raises(DomainError, match="diverges"):
        trace(divergent, [0.5, 0.1])
    with pytest.raises(DomainError, match="diverges"):
        compute_DH(divergent, 0.5)
    # H = r^{2 sigma} underflows to 0 below 1e-40: the error names the first such radius
    sol = synthesize(p3, [(polynomial_mode(p3, 2), 1.0, 0.0)])
    with pytest.raises(VanishingDenominatorError, match=r"H\(1e-50\)"):
        trace(sol, [0.5, 1e-30, 1e-50, 1e-60])
    # the zero solution, which only a hand-built SeparableSolution can hold
    zero = SeparableSolution(params=p3, terms=(Term(polynomial_mode(p3, 0), 0.0, 0.0),))
    with pytest.raises(VanishingDenominatorError, match=r"H\(0\.5\)"):
        trace(zero, [0.5, 0.25])


def test_trace_arrays_read_only(mixed):
    tr = trace(mixed, [0.5, 0.25, 0.125])
    for arr in (tr.r, tr.D, tr.H, tr.N, tr.nu1, tr.nu2):
        assert not arr.flags.writeable


@pytest.mark.parametrize("radii, bad", [([5.0], "5.0"), ([0.5, 0.0], "0.0"),
                                        ([-0.5, 0.25], "-0.5"), ([0.5, np.nan], "nan"),
                                        ([1.0 + 1e-9], "1.000000001")])
@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_trace_rejects_radii_outside_the_ball(mixed, radii, bad, method):
    with pytest.raises(DomainError, match=rf"radius {bad} outside \(0, 1\.0\]"):
        trace(mixed, radii, method=method)


_RADIUS_OPS = {
    "compute_DH": compute_DH,
    "nu_decomposition": nu_decomposition,
    "check_pohozaev": check_pohozaev,
    "trace": lambda sol, r, method: trace(sol, [r], method),
}


@pytest.mark.parametrize("r", [0.0, -0.25, 1.0 + 1e-9, 3.0])
@pytest.mark.parametrize("method", ["closed", "quadrature"])
@pytest.mark.parametrize("op", sorted(_RADIUS_OPS))
def test_every_operation_rejects_radii_outside_the_ball_alike(mixed, op, method, r):
    with pytest.raises(DomainError, match=rf"^radius {re.escape(str(r))} outside \(0, 1\.0\]$"):
        _RADIUS_OPS[op](mixed, r, method)


def test_trace_accepts_radius_R(mixed):
    tr = trace(mixed, [1.0, 0.5])
    D, H = compute_DH(mixed, 1.0)
    assert tr.D[0] == pytest.approx(D, rel=1e-14) and tr.H[0] == pytest.approx(H, rel=1e-14)


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_nu_decomposition_accepts_radius_R(mixed, method):
    # the same radius check as trace and compute_DH: r = R is inside
    nu1, nu2 = nu_decomposition(mixed, 1.0, method=method)
    tr = trace(mixed, [1.0], method=method)
    assert nu1 == pytest.approx(tr.nu1[0], abs=1e-13 * max(1.0, abs(tr.nu1[0])))
    assert nu2 == pytest.approx(tr.nu2[0], abs=1e-13 * max(1.0, abs(tr.nu2[0])))
    with pytest.raises(DomainError, match=r"radius 1.000000001 outside \(0, 1\.0\]"):
        nu_decomposition(mixed, 1.0 + 1e-9, method=method)


def test_quadrature_serves_the_constant_mode_below_n_plus_b_one():
    # N = 1, s = 1.508: the constant mode has sigma+ = -b = 0.016 and a ball
    # integrand rho^{-2(N+b)} that no polynomial rule resolves; both paths sum
    # its power laws in closed form, so they agree to roundoff (measured: 7e-16
    # on H, 4e-17 elsewhere; Pohozaev residuals at most 4.6e-16)
    p = WeightParams(s=1.508, N=1)
    sol = synthesize(p, [(polynomial_mode(p, 0), 1.0, 0.5), (polynomial_mode(p, 1), 0.3, 0.0)])
    radii = [0.45, 0.1, 0.014]
    closed, quad = trace(sol, radii), trace(sol, radii, method="quadrature")
    for name in ("D", "H", "N", "nu1", "nu2"):
        want = getattr(closed, name)
        assert np.all(np.abs(getattr(quad, name) - want) <= 4e-15 * np.maximum(np.abs(want), 1.0))
    assert np.all(closed.nu1 >= 0) and np.all(quad.nu1 >= 0)
    for r in (0.45, 0.3, 0.1, 0.014):
        assert max(check_pohozaev(sol, r)) <= 2e-15
        assert max(check_pohozaev(sol, r, method="quadrature")) <= 2e-15
    for op in (compute_DH, nu_decomposition):
        np.testing.assert_allclose(op(sol, 0.3, method="quadrature"), op(sol, 0.3),
                                   rtol=4e-15, atol=0.0)
    # without the constant mode the quadrature path still serves N + b < 1
    upper = synthesize(p, [(polynomial_mode(p, 1), 0.3, 0.7), (polynomial_mode(p, 2), 1.0, 0.0)])
    np.testing.assert_allclose(trace(upper, radii, method="quadrature").D, trace(upper, radii).D,
                               rtol=1e-12)


def test_nu1_is_exact_in_sign_and_digits():
    # one term: nu1 = 2 r (phi phi~' - phi~ phi')^2 / (phi^2 + phi~^2)^2, whose
    # determinant is -2 e d1 r^{2 sigma + 1} while each product is ~ c1 d1 r^{2 sigma - 1};
    # the difference s_nu s_u2 - s_uu^2 kept only a few digits of it
    mpmath = pytest.importorskip("mpmath")
    p = WeightParams(s=1.3, N=1)
    sol = synthesize(p, [(polynomial_mode(p, 1), 1.0, 0.8)])
    radii = np.geomspace(0.9, 1e-3, 25)
    tr = trace(sol, radii)
    assert np.all(tr.nu1 >= 0.0)
    t = sol.terms[0]
    with mpmath.workdps(40):
        s, c1, e, d1 = (mpmath.mpf(v) for v in (t.sigma, t.c1, t.e, t.d1))
        for r, got in zip(radii, tr.nu1):
            r = mpmath.mpf(float(r))
            phi, dphi = c1 * r ** s + e * r ** (s + 2), c1 * s * r ** (s - 1) + e * (s + 2) * r ** (s + 1)
            phit, dphit = d1 * r ** s, d1 * s * r ** (s - 1)
            u2 = phi ** 2 + phit ** 2
            want = 2 * r * (u2 * (dphi ** 2 + dphit ** 2) - (phi * dphi + phit * dphit) ** 2) / u2 ** 2
            assert abs(got - want) <= 1e-12 * want, (float(r), got, float(want))


def test_nu1_stays_finite_where_s_u2_squared_underflows():
    # sigma = 40: s_u2 ~ r^81.4 is about 1e-170 at r = 0.008, so s_u2^2 underflows
    # while D and H are finite; nu1 is formed from ratios that do not
    mpmath = pytest.importorskip("mpmath")
    p = WeightParams(s=1.3, N=1)
    sol = synthesize(p, [(polynomial_mode(p, 40), 1.0, 0.5)])
    radii = np.array([0.008, 0.004])
    tr = trace(sol, radii)
    t = sol.terms[0]
    with mpmath.workdps(40):
        s, c1, e, d1 = (mpmath.mpf(v) for v in (t.sigma, t.c1, t.e, t.d1))
        for r, got in zip(radii, tr.nu1):
            r = mpmath.mpf(float(r))
            phi, dphi = c1 * r ** s + e * r ** (s + 2), c1 * s * r ** (s - 1) + e * (s + 2) * r ** (s + 1)
            phit, dphit = d1 * r ** s, d1 * s * r ** (s - 1)
            u2 = phi ** 2 + phit ** 2
            want = 2 * r * (u2 * (dphi ** 2 + dphit ** 2) - (phi * dphi + phit * dphit) ** 2) / u2 ** 2
            assert abs(got - want) <= 1e-10 * want, (float(r), got, float(want))


def test_degree_40_mode_on_the_default_rules():
    # the Gauss node counts follow the synthesis' largest degree
    p = WeightParams(s=1.3, N=1)
    mode = polynomial_mode(p, 40)
    sol = synthesize(p, [(mode, 1.0, 0.7)])
    radii = np.geomspace(0.9, 0.05, 8)
    closed, quad = trace(sol, radii), trace(sol, radii, method="quadrature")
    for name in ("D", "H", "N"):
        np.testing.assert_allclose(getattr(quad, name), getattr(closed, name), rtol=1e-10)
    t = sol.terms[0]
    for lam in (0.6, 0.2, 0.05):
        f, ft = fourier_coefficient(sol, mode, lam)
        phi, _, phit, _ = _power_law(t, lam)
        assert f == pytest.approx(phi, rel=1e-10)
        assert ft == pytest.approx(phit, rel=1e-10)


# coefficients are 0 or at least 1e-3, so that H stays in range at r = 0.01
_COEF = st.floats(min_value=-2.0, max_value=2.0).map(lambda c: 0.0 if abs(c) < 1e-3 else c)


def _exact_synthesis(draw, N, s):
    p = WeightParams(s=s, N=N)
    spec = []
    for _ in range(draw(st.integers(min_value=1, max_value=4), label="terms")):
        sigma = draw(st.integers(min_value=0, max_value=24), label="sigma")
        k = 0 if N == 1 else draw(st.sampled_from(range(sigma % 2, sigma + 1, 2)), label="k")
        c1, d1 = (draw(_COEF, label=n) for n in ("c1", "d1"))
        spec.append((polynomial_mode(p, sigma, k), c1, d1))
    return p, spec


# s stays below 1.999: as b -> -1 the angular Gauss weights lose digits
# (about 1e-16 / (b + 1), see CHANGES.md)
@settings(max_examples=40)
@given(N=st.integers(min_value=1, max_value=6), data=st.data())
def test_quadrature_matches_closed_on_random_exact_syntheses(N, data):
    # N + b < 1 (N = 1, s > 3/2) included: both paths sum the radial power laws
    # in closed form.  2500 random syntheses measured at most 1.7e-14
    s = data.draw(st.floats(min_value=1.0, max_value=1.999, exclude_min=True), label="s")
    p, spec = _exact_synthesis(data.draw, N, s)
    assume(any(c1 != 0.0 or d1 != 0.0 for _, c1, d1 in spec))
    sol = synthesize(p, spec)
    radii = np.geomspace(0.9, 0.01, 6)
    closed, quad = trace(sol, radii), trace(sol, radii, method="quadrature")
    scale = np.maximum(np.abs(closed.N), 1.0)
    assert np.all(np.abs(quad.H - closed.H) <= 1e-11 * closed.H)
    assert np.all(np.abs(quad.D - closed.D) <= 1e-11 * closed.H * scale)
    assert np.all(np.abs(quad.N - closed.N) <= 1e-11 * scale)


@settings(max_examples=60)
@given(N=st.integers(min_value=1, max_value=6), data=st.data())
def test_monotone_quantity_on_random_exact_syntheses(N, data):
    # (N(r) + r^2/(N+b-1))' = nu1 + nu2 + 2r/(N+b-1) >= 0 on the closed path, for
    # N + b > 1 (s < 3/2 at N = 1, every s at N >= 2), with d1 = 0 or not
    top = 1.5 if N == 1 else 1.999
    s = data.draw(st.floats(min_value=1.0, max_value=top, exclude_min=True, exclude_max=True),
                  label="s")
    p, spec = _exact_synthesis(data.draw, N, s)
    assume(any(c1 != 0.0 or d1 != 0.0 for _, c1, d1 in spec))
    tr = trace(synthesize(p, spec), np.geomspace(0.9, 0.01, 25))
    slope = tr.nu1 + tr.nu2 + 2.0 * tr.r / (p.N + p.b - 1.0)
    assert np.all(slope >= -1e-12 * (1.0 + np.abs(tr.nu1) + np.abs(tr.nu2))), slope.min()



@settings(max_examples=40)
@given(N=st.integers(min_value=1, max_value=6), data=st.data())
def test_pohozaev_identities_on_random_exact_syntheses(N, data):
    # both residuals, at a random radius, N + b < 1 (N = 1, s > 3/2) included;
    # 2500 random syntheses measured at most 1.6e-14 on the closed path.  The
    # quadrature path exceeds 1e-10 where a constant mode with d1 = 0 shares
    # its block with a high-degree term (4 of the 2500, see CHANGES.md)
    s = data.draw(st.floats(min_value=1.0, max_value=1.999, exclude_min=True), label="s")
    p, spec = _exact_synthesis(data.draw, N, s)
    assume(any(c1 != 0.0 or d1 != 0.0 for _, c1, d1 in spec))
    sol = synthesize(p, spec)
    r = data.draw(st.floats(min_value=0.01, max_value=0.95), label="r")
    assert max(check_pohozaev(sol, r)) <= 1e-12
    assert max(check_pohozaev(sol, r, method="quadrature")) <= 1e-10


def _assembled(coefs, pairs, r, beta):
    """The pieces summed term pair by term pair, each ball piece as C r^q / q.

    The per-pair assembly the stored plans replace, kept as their oracle:
    `pairs` is (i, j, a, m); with |coefficients|, |a| and |m| it gives each
    piece's scale, the sum of its contributions' sizes.
    """
    from almgren_lab.synthesis import _radial_parts

    i, j, a, m = pairs
    s, c1, e, d1 = coefs
    si, sj, ci, cj, ei, ej, di, dj = s[i], s[j], c1[i], c1[j], e[i], e[j], d1[i], d1[j]
    ti, tj, cej, ecj = si + 2.0, sj + 2.0, ci * ej, ei * cj
    zero = np.zeros_like(si)
    C = np.array([
        [(ci * cj + di * dj) * (a * si * sj + m), zero, zero],
        [a * (cej * si * tj + ecj * ti * sj) + m * (cej + ecj), a * ci * dj, a * di * cj * sj],
        [ei * ej * (a * ti * tj + m), a * ei * dj, a * di * ej * tj],
    ])
    Q = si + sj + beta + np.array([[-1.0], [1.0], [3.0]])
    active = (C != 0.0).any(axis=1)
    Q = np.where(active, Q, 1.0)[:, :, None]
    ball = np.einsum("jkt,jtn->kn", C, np.where(active[:, :, None], r ** Q / Q, 0.0))
    phi, dphi, phit, dphit = _radial_parts(coefs[:, :, None], r)
    u2 = phi[i] * phi[j] + phit[i] * phit[j]
    du2 = a @ (dphi[i] * dphi[j] + dphit[i] * dphit[j])
    rb = r ** beta
    return np.vstack([ball, rb * (a @ u2), rb * (a @ (phi[i] * dphi[j] + phit[i] * dphit[j])),
                      rb * (du2 + (m @ u2) / r ** 2), rb * du2, rb * (a @ (phi[i] * phit[j]))])


def _check_planned_pieces(sol, radii):
    beta = sol.params.N + sol.params.b
    n = len(sol.terms)
    mu = np.array([t.mode.mu for t in sol.terms])
    for method, pairs in (("closed", (np.arange(n), np.arange(n), np.ones(n), mu)),
                          ("quadrature", almgren._angular_pairs(sol))):
        pc = almgren._pieces(sol, radii, method)
        got = np.array([getattr(pc, f.name) for f in dataclasses.fields(pc)])
        want = _assembled(sol.coefs, pairs, radii, beta)
        i, j, a, m = pairs
        scale = _assembled(np.abs(sol.coefs), (i, j, np.abs(a), np.abs(m)), radii, beta)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), method


@settings(max_examples=40)
@given(N=st.integers(min_value=1, max_value=6), data=st.data())
def test_planned_pieces_match_the_pair_by_pair_assembly(N, data):
    # N + b < 1 (N = 1, s > 3/2) and terms with d1 = 0 included
    s = data.draw(st.floats(min_value=1.0, max_value=1.999, exclude_min=True), label="s")
    p, spec = _exact_synthesis(data.draw, N, s)
    assume(any(c1 != 0.0 or d1 != 0.0 for _, c1, d1 in spec))
    _check_planned_pieces(synthesize(p, spec), np.geomspace(0.9, 0.01, 6))


def test_planned_pieces_serve_the_constant_mode_below_n_plus_b_one():
    p = WeightParams(s=1.6, N=1)   # N + b = 0.8: the constant mode has sigma+ = 0.2
    sol = synthesize(p, [(polynomial_mode(p, 0), 0.9, 0.0), (polynomial_mode(p, 1), 0.0, 0.6),
                         (polynomial_mode(p, 3), -0.4, 0.0), (polynomial_mode(p, 6), 0.3, 0.2)])
    assert sol.terms[0].sigma > 0.0
    _check_planned_pieces(sol, np.geomspace(0.9, 0.001, 7))


def _bits(x):
    """Every number in x (arrays, floats, tuples and dataclass fields) as its exact bits."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x.hex() if isinstance(x, float) else x


def test_stored_tables_give_the_same_bits_in_any_order(p3):
    spec = [(polynomial_mode(p3, 1), 0.7, 0.4), (polynomial_mode(p3, 2, k=0), -0.3, 0.0),
            (polynomial_mode(p3, 3, k=1), 0.5, -0.8)]

    def run(order):
        sol = synthesize(p3, spec)
        steps = {"trace": lambda: trace(sol, [0.45, 0.1, 0.01]),
                 "quadrature": lambda: trace(sol, [0.45, 0.1], method="quadrature"),
                 "limit": lambda: frequency_limit(sol),
                 "pohozaev": lambda: check_pohozaev(sol, 0.3)}
        out = {name: steps[name]() for name in order}
        return [_bits(out[name]) for name in sorted(out)]

    order = ["trace", "limit", "pohozaev", "quadrature"]
    assert run(order[::-1]) == run(order)
