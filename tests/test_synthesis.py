import math

import numpy as np
import pytest

from almgren_lab import (
    ClassificationError,
    DomainError,
    InputError,
    WeightParams,
    eval_solution,
    fit_blowup,
    fourier_coefficient,
    hemisphere_eigs,
    k_constant,
    polynomial_mode,
    synthesize,
)
from almgren_lab.core import integrate_halfball
from almgren_lab.hemisphere import hemisphere_modes, sphere_harmonic_value
from almgren_lab.synthesis import _point_values


@pytest.fixture(scope="module")
def p3():
    return WeightParams(s=1.25, N=3)


def test_pure_mode_is_harmonic(p3):
    mode = polynomial_mode(p3, 1)
    sol = synthesize(p3, [(mode, 1.0, 0.0)])
    res = eval_solution(sol, 0.5, 0.7)
    assert res.V == 0.0
    # homogeneity U(2r)/U(r) = 2^sigma
    u1 = eval_solution(sol, 0.25, 0.7).U
    u2 = eval_solution(sol, 0.5, 0.7).U
    assert u2 / u1 == pytest.approx(2.0 ** mode.sigma_plus, rel=1e-12)


def test_radial_identity_symbolic(p3):
    # direct substitution: the r^{sigma+2} correction maps onto V through K
    import sympy

    s, N, b, mu, r = sympy.symbols("sigma N b mu r", positive=True)
    phi = r ** (s + 2)
    radial = sympy.diff(phi, r, 2) + (N + b) / r * sympy.diff(phi, r) - mu / r ** 2 * phi
    K = (s + 2) * (s + 1) + (N + b) * (s + 2) - mu
    assert sympy.simplify(radial - K * r ** s) == 0
    # and the leading power is annihilated when mu = sigma (sigma + N + b - 1)
    lead = r ** s
    radial0 = sympy.diff(lead, r, 2) + (N + b) / r * sympy.diff(lead, r) \
        - s * (s + N + b - 1) / r ** 2 * lead
    assert sympy.simplify(radial0) == 0


def test_mixed_mode_satisfies_system_weakly(p3):
    # weak residual of D_b U = V against random compact axisymmetric bumps:
    # int t^b grad U . grad phi + int t^b V phi = 0 (weighted Neumann natural)
    mode = polynomial_mode(p3, 2)  # k = 0, axisymmetric
    sol = synthesize(p3, [(mode, 0.8, 1.7)])
    rng = np.random.default_rng(11)
    # the radial parts written out: phi = c1 r^s + e r^{s+2}, phi~ = d1 r^s
    s, c1, e, d1 = (getattr(sol.terms[0], name) for name in ("sigma", "c1", "e", "d1"))
    for _ in range(10):
        # supported away from both r = 0 and the outer sphere r = 1
        c_r = rng.uniform(0.4, 0.55)
        w_r = rng.uniform(0.09, 0.12)
        c_a = rng.uniform(0.3, math.pi / 2 - 0.3)
        w_a = rng.uniform(0.15, 0.3)

        bump = lambda rho, a: np.exp(-((rho - c_r) / w_r) ** 2
                                     - ((a - c_a) / w_a) ** 2)

        def d_rho(rho, a):
            return -2 * (rho - c_r) / w_r ** 2 * bump(rho, a)

        def d_ang(rho, a):
            return -2 * (a - c_a) / w_a ** 2 * bump(rho, a)

        def integrand_grad(rho, a):
            p_v = mode.profile(a)
            dp_v = mode.profile.deriv(a)
            du_r = (c1 * s * rho ** (s - 1) + e * (s + 2) * rho ** (s + 1)) * p_v
            du_a = (c1 * rho ** s + e * rho ** (s + 2)) * dp_v
            # polar-form test bumps have 1/rho^2 angular-gradient products;
            # the origin node carries negligible mass, mask it
            safe = np.where(rho > 0, rho, 1.0)
            out = du_r * d_rho(rho, a) + du_a * d_ang(rho, a) / safe ** 2
            return np.where(rho > 0, out, 0.0)

        def integrand_mass(rho, a):
            return d1 * rho ** s * mode.profile(a) * bump(rho, a)

        lhs = integrate_halfball(integrand_grad, p3, 1.0,
                                 n_radial=512, n_angular=1024)
        rhs = -integrate_halfball(integrand_mass, p3, 1.0,
                                  n_radial=512, n_angular=1024)
        # absolute tolerance against the O(1) field and bump energies
        assert abs(lhs - rhs) < 2e-5


def test_zero_synthesis_is_refused(p3):
    # there is no way to synthesize the zero solution, whose frequency is undefined
    mode = polynomial_mode(p3, 0)
    for spec in ([(mode, 0.0, 0.0)], [(mode, 1.0, 0.5), (mode, -1.0, -0.5)], []):
        with pytest.raises(DomainError, match="all coefficients vanish"):
            synthesize(p3, spec)
    with pytest.raises(TypeError):
        synthesize(p3, [(mode, 0.0, 0.0)], allow_zero=True)


@pytest.mark.parametrize("index", [2, 7, -1])
def test_integer_mode_index_out_of_range(p3, index):
    modes = [polynomial_mode(p3, 0), polynomial_mode(p3, 1)]
    with pytest.raises(InputError, match="out of range for 2 modes"):
        synthesize(p3, [(index, 1.0, 0.0)], modes=modes)


def test_duplicate_modes_merge(p3):
    mode = polynomial_mode(p3, 1)
    sol = synthesize(p3, [(mode, 1.0, 0.0), (mode, 0.5, 0.25)])
    assert len(sol.terms) == 1
    assert sol.terms[0].c1 == pytest.approx(1.5)
    assert sol.terms[0].d1 == pytest.approx(0.25)
    # a mode is named (degree, sector): the two sectors of degree 2 stay apart
    sol = synthesize(p3, [(polynomial_mode(p3, 2, k), 1.0, 0.0) for k in (0, 2)])
    assert [(t.mode.ell, t.mode.k) for t in sol.terms] == [(2, 0), (2, 2)]
    # so does a finite-volume mode and the closed form of its (degree, sector):
    # their difference is two terms, not a vanishing one
    fv = hemisphere_eigs(p3, k_max=0, per_k=2, resolution=128, refinements=0)[1]
    exact = polynomial_mode(p3, 2, 0)
    assert (fv.ell, fv.k) == (exact.ell, exact.k)
    sol = synthesize(p3, [(fv, 1.0, 0.0), (exact, -1.0, 0.0)])
    assert [(t.mode, t.c1) for t in sol.terms] == [(fv, 1.0), (exact, -1.0)]


def test_eval_domain_guard(p3):
    sol = synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0)])
    with pytest.raises(DomainError):
        eval_solution(sol, 1.5, 0.3)
    with pytest.raises(DomainError):
        eval_solution(sol, 0.0, 0.3)


@pytest.mark.parametrize("N, chi", [(1, 0.0), (3, 0.4), (4, 1.1)])
def test_point_values_on_arrays_match_scalar_eval_solution(N, chi):
    # the array evaluator on a broadcast (rho, angle) grid against
    # eval_solution point by point, with d1 != 0 terms and sectors k >= 1
    p = WeightParams(s=1.4, N=N)
    modes = hemisphere_modes(p, 9)
    sol = synthesize(p, [(i, 1.0 / (i + 1), 0.5 * (i % 3 == 1)) for i in range(9)], modes)
    rho = np.array([0.02, 0.3, 0.75, 1.0])[:, None]
    angle = np.linspace(0.0, math.pi if N == 1 else math.pi / 2, 7)
    got = np.array(_point_values(sol, rho, angle, chi))
    assert got.shape == (3, 2, 4, 7)
    for i, j in np.ndindex(4, 7):
        r = float(rho[i, 0])
        res = eval_solution(sol, r, float(angle[j]), chi)
        want = [[res.U, res.V], [res.grad_U[0], res.grad_V[0]],
                [res.grad_U[1] * r, res.grad_V[1] * r]]
        np.testing.assert_allclose(got[:, :, i, j], want, rtol=1e-15, atol=1e-300)


def test_eval_gradient_against_finite_differences(p3):
    mode = polynomial_mode(p3, 2)
    sol = synthesize(p3, [(mode, 1.0, 0.4)])
    r, psi = 0.5, 0.8
    h = 1e-5 * r
    du_fd = (eval_solution(sol, r + h, psi).U - eval_solution(sol, r - h, psi).U) / (2 * h)
    res = eval_solution(sol, r, psi)
    assert abs(du_fd - res.grad_U[0]) < 1e-8
    # closed form sigma r^{sigma-1} Psi for the pure part: compare full radial
    # derivative instead on a pure mode
    pure = synthesize(p3, [(polynomial_mode(p3, 1), 1.0, 0.0)])
    du_fd = (eval_solution(pure, r + h, psi).U - eval_solution(pure, r - h, psi).U) / (2 * h)
    sigma = 1.0
    want = sigma * r ** (sigma - 1.0) * polynomial_mode(p3, 1).profile(psi) \
        * sphere_harmonic_value(3, 1, 0.0)
    assert abs(du_fd - want) < 1e-8


def test_fourier_roundtrip_single_mode(p3):
    mode = polynomial_mode(p3, 1)
    c1, d1 = 0.9, -1.2
    sol = synthesize(p3, [(mode, c1, d1)])
    K = k_constant(p3, mode)
    for lam in (0.1, 0.45, 0.9):
        f, ft = fourier_coefficient(sol, mode, lam)
        want = c1 * lam ** 1.0 + d1 / K * lam ** 3.0
        assert f == pytest.approx(want, rel=1e-8)
        assert ft == pytest.approx(d1 * lam, rel=1e-8)


def test_fourier_orthogonality(p3):
    # a mode absent from the synthesis reads zero: exactly for a different
    # wavenumber (horizontal harmonics), to quadrature tolerance otherwise
    m1 = polynomial_mode(p3, 1)           # k = 1
    m0 = polynomial_mode(p3, 0)           # k = 0
    m2 = polynomial_mode(p3, 2)           # k = 0
    sol = synthesize(p3, [(m1, 1.0, 0.0)])
    f, ft = fourier_coefficient(sol, m0, 0.5)
    assert f == 0.0 and ft == 0.0
    sol2 = synthesize(p3, [(m0, 1.0, 0.5)])
    f, ft = fourier_coefficient(sol2, m2, 0.5)
    assert abs(f) < 1e-7 and abs(ft) < 1e-7


def test_parseval_reconstructs_H(p3):
    from almgren_lab import compute_DH

    m0, m1 = polynomial_mode(p3, 0), polynomial_mode(p3, 1)
    sol = synthesize(p3, [(m0, 0.6, 0.8), (m1, -0.4, 0.3)])
    for lam in (0.2, 0.6):
        total = 0.0
        for mode in (m0, m1):
            f, ft = fourier_coefficient(sol, mode, lam)
            total += f * f + ft * ft
        _, H = compute_DH(sol, lam)
        assert total == pytest.approx(H, rel=1e-8)


def test_fit_recovers_synthetic_coefficients(p3):
    lam = np.geomspace(0.25, 0.02, 12)
    sigma = 1.0
    K = k_constant(p3, sigma * (sigma + p3.N + p3.b - 1.0))
    phi = 2.0 * lam ** sigma + 0.5 * lam ** (sigma + 2)
    samples = np.column_stack([lam, phi, np.zeros_like(lam)])
    fit = fit_blowup(samples, [0.0, 1.0, 2.0], p3)
    assert fit.sigma_used == pytest.approx(1.0)
    assert fit.c1_hat == pytest.approx(2.0, rel=1e-6)
    assert fit.d1_hat == pytest.approx(0.5 * K, rel=1e-6)
    assert fit.residual <= 1e-8
    assert fit.branch == "sigma_plus" and fit.delta1 == pytest.approx(1.0)



def test_fit_reads_K_at_the_candidate_itself():
    # N + b = 0.5 < 1: the exponent 0 is the smaller root of sigma (sigma - 0.5) = 0,
    # so K must be taken at sigma = 0 (K = 3), not at the larger root 0.5 (K = 5)
    p = WeightParams(s=1.75, N=1)
    lam = np.geomspace(0.3, 0.02, 8)
    fit = fit_blowup(np.column_stack([lam, 0.8 + 0.3 * lam ** 2, np.zeros_like(lam)]), [0.0], p)
    assert fit.sigma_used == 0.0 and fit.branch == "sigma_plus"
    assert fit.c1_hat == pytest.approx(0.8, rel=1e-12)
    assert fit.d1_hat == pytest.approx(0.3 * 3.0, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("s", [1.01, 1.25, 1.5, 1.75, 1.99])
def test_k_constant_against_40_digits(N, s):
    # the long form (sigma+2)(sigma+1) + (N+b)(sigma+2) - mu at sigma_plus, in 40 digits
    mpmath = pytest.importorskip("mpmath")
    p = WeightParams(s=s, N=N)
    with mpmath.workdps(40):
        b = 3 - 2 * mpmath.mpf(s)
        half = (N + b - 1) / 2
        for sigma in range(60):
            mu = sigma * (sigma + N + b - 1)
            sp = -half + mpmath.sqrt(half * half + mu)
            want = (sp + 2) * (sp + 1) + (N + b) * (sp + 2) - mu
            mode = polynomial_mode(p, sigma)
            term = synthesize(p, [(mode, 0.0, 1.0)]).terms[0]
            for got in (k_constant(p, mode), k_constant(p, mode.mu), term.K):
                assert abs(got - want) <= 1e-15 * want, (sigma, got, float(want))


def test_fit_zero_phi_tilde_reads_d1_zero():
    # phi~ = 0 on every sample means d1 = 0: phi = 0.9 lam^3 is sigma = 3 with
    # c1 = 0.9, not sigma = 1 on the sigma + 2 branch with d1 = e K != 0
    p = WeightParams(s=1.4, N=3)
    lam = np.geomspace(0.3, 0.02, 10)
    fit = fit_blowup(np.column_stack([lam, 0.9 * lam ** 3, np.zeros_like(lam)]),
                     [0.0, 1.0, 2.0, 3.0], p)
    assert fit.sigma_used == 3.0
    assert fit.branch == "sigma_plus"
    assert fit.c1_hat == pytest.approx(0.9, rel=1e-12)
    assert fit.d1_hat == 0.0
    assert fit.delta2 is None

def test_fit_degenerate_branch(p3):
    mode = polynomial_mode(p3, 1)
    sol = synthesize(p3, [(mode, 0.0, 1.0)])
    rows = []
    for lam in np.geomspace(0.25, 0.002, 14):
        f, ft = fourier_coefficient(sol, mode, lam)
        rows.append([lam, f, ft])
    fit = fit_blowup(rows, [0.0, 1.0, 2.0], p3)
    assert fit.branch == "sigma_plus_two"
    assert fit.delta1 == pytest.approx(mode.sigma_plus + 2.0)
    assert fit.delta2 == pytest.approx(mode.sigma_plus)   # V leads at sigma


def test_fit_scaling_invariance(p3):
    lam = np.geomspace(0.3, 0.02, 10)
    phi = 1.3 * lam ** 2 + 0.2 * lam ** 4
    phit = 0.7 * lam ** 2
    base = fit_blowup(np.column_stack([lam, phi, phit]), [0.0, 1.0, 2.0], p3)
    scaled = fit_blowup(np.column_stack([lam, 10 * phi, 10 * phit]),
                        [0.0, 1.0, 2.0], p3)
    assert scaled.c1_hat == pytest.approx(10 * base.c1_hat, rel=1e-10)
    assert scaled.d1_hat == pytest.approx(10 * base.d1_hat, rel=1e-10)


def test_fit_guards(p3):
    lam = np.geomspace(0.25, 0.02, 12)
    good = np.column_stack([lam, lam ** 1.5, np.zeros_like(lam)])
    with pytest.raises(DomainError):
        fit_blowup(good[:4], [1.0], p3)
    narrow = np.column_stack([lam[:8], lam[:8], np.zeros(8)])
    with pytest.raises(DomainError):
        fit_blowup(narrow[np.abs(narrow[:, 0] - 0.2) < 0.05], [1.0], p3)
    with pytest.raises(ClassificationError):
        fit_blowup(np.column_stack([lam, np.exp(-1.0 / lam), np.zeros_like(lam)]),
                   [0.0, 1.0, 2.0], p3, residual_tol=1e-12)


def test_min_exponent_matches_logH_slope(p3):
    # leading exponent of the synthesis equals the slope of log H at small r
    from almgren_lab import compute_DH

    m1, m2 = polynomial_mode(p3, 1), polynomial_mode(p3, 2)
    sol = synthesize(p3, [(m1, 0.5, 0.0), (m2, 2.0, 0.0)])
    r1, r2 = 2e-3, 1e-3
    _, h1 = compute_DH(sol, r1)
    _, h2 = compute_DH(sol, r2)
    slope = (math.log(h1) - math.log(h2)) / (math.log(r1) - math.log(r2))
    assert abs(slope / 2.0 - 1.0) < 1e-3  # gamma = min sigma = 1


def _fit_by_lstsq(samples, sigmas):
    """Per-candidate lstsq of the two-exponent model: (relative residual, sigma, c1, d1)."""
    lam, phi, phit = np.asarray(samples, dtype=float).T
    total = float(phi @ phi + phit @ phit)
    fits = []
    for sigma in sorted(sigmas):
        A = np.column_stack([lam ** sigma, lam ** (sigma + 2.0)])
        cu, *_ = np.linalg.lstsq(A, phi, rcond=None)
        cv, *_ = np.linalg.lstsq(A[:, :1], phit, rcond=None)
        res = float(np.sum((phi - A @ cu) ** 2) + np.sum((phit - A[:, :1] @ cv) ** 2))
        fits.append((math.sqrt(res / total), sigma, float(cu[0]), float(cv[0])))
    return min(fits, key=lambda f: f[0])


def test_batched_fit_matches_per_candidate_lstsq(p3, rng):
    # noisy two-layer samples: the stacked QR picks the candidate and the
    # coefficients that one lstsq per candidate does; at sigma = 200 the
    # columns underflow to 0, which must not stop the others from fitting
    lam = np.geomspace(0.3, 0.02, 8)
    cands = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 200.0]
    for _ in range(20):
        sigma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        c1, d1 = rng.uniform(0.3, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        e = d1 / k_constant(p3, sigma * (sigma + p3.N + p3.b - 1.0))
        phi = (c1 * lam ** sigma + e * lam ** (sigma + 2)) * (1 + 1e-4 * rng.normal(size=lam.size))
        phit = d1 * lam ** sigma * (1 + 1e-4 * rng.normal(size=lam.size))
        samples = np.column_stack([lam, phi, phit])
        fit = fit_blowup(samples, cands, p3)
        rel, sigma_ref, c1_ref, d1_ref = _fit_by_lstsq(samples, cands)
        assert fit.sigma_used == sigma_ref == sigma
        assert fit.residual == pytest.approx(rel, rel=1e-8)
        assert fit.c1_hat == pytest.approx(c1_ref, rel=1e-10)
        assert fit.d1_hat == pytest.approx(d1_ref, rel=1e-10)


def test_one_mode_in_two_syntheses_reads_each_synthesis(p3):
    # the projections are kept by each solution, not by the mode
    mode, other = polynomial_mode(p3, 1), polynomial_mode(p3, 3, k=1)
    first = synthesize(p3, [(mode, 0.9, -1.2), (other, 0.5, 0.0)])
    second = synthesize(p3, [(mode, -0.3, 0.7), (other, 0.5, 0.0)])
    K = k_constant(p3, mode)
    for lam in (0.4, 0.1, 0.4):
        for sol, c1, d1 in ((first, 0.9, -1.2), (second, -0.3, 0.7), (first, 0.9, -1.2)):
            f, ft = fourier_coefficient(sol, mode, lam)
            assert f == pytest.approx(c1 * lam + d1 / K * lam ** 3, rel=1e-8)
            assert ft == pytest.approx(d1 * lam, rel=1e-8)


def test_fit_with_one_kept_phi_sample_is_pinvs_minimum_norm_answer(p3):
    # phi is below 1e-13 of the scale on all samples but one: the two columns
    # meet one equation, and (c1, e) is the minimum-norm solution pinv gives
    lam = np.geomspace(0.3, 0.02, 8)
    phi = np.zeros_like(lam)
    phi[2] = 0.05
    phit = 0.8 * lam
    fit = fit_blowup(np.column_stack([lam, phi, phit]), [1.0, 2.0], p3)
    assert fit.sigma_used == 1.0
    row = np.array([[lam[2], lam[2] ** 3]])
    c1, e = np.linalg.pinv(row) @ [phi[2]]
    assert fit.c1_hat == pytest.approx(c1, rel=1e-14)
    assert fit.d1_hat == pytest.approx(0.8, rel=1e-14)
    assert fit.branch == "sigma_plus" and fit.residual <= 1e-15
