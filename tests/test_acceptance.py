"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and time budgets are fixed here, not tuned at
runtime.
"""

import math
import time

import numpy as np
import pytest

import almgren_lab as al
from almgren_lab.hemisphere import _sector_eigs
from almgren_lab.inequalities import (
    MARGIN_ANGULAR_NODES,
    SPLIT_BODY_NODES,
    TestFamily,
    check_hardy_trace,
)

BUDGETS = {1: 1.0, 2: 5.0, 3: 1.0, 4: 2.0, 5: 10.0, 6: 5.0, 7: 5.0, 8: 10.0,
           9: 10.0, 10: 2.0, 11: 30.0, 12: 10.0, 13: 20.0}


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} ({elapsed:6.2f}s) {self.label}")
        assert elapsed < BUDGETS[self.number], (
            f"criterion {self.number} exceeded its {BUDGETS[self.number]}s budget")
        return False


def sigma_to_mu(p, sigma):
    return sigma * (sigma + p.N + p.b - 1.0)


def test_criterion_01_hemisphere_n1():
    with _Criterion(1, "hemisphere N=1 b=0: first five eigenvalues"):
        p = al.WeightParams(s=1.5, N=1)
        modes = al.hemisphere_eigs(p, per_k=5, resolution=256, refinements=2)
        mus = np.array([m.mu for m in modes[:5]])
        err = np.max(np.abs(mus - np.array([0.0, 1.0, 4.0, 9.0, 16.0])))
        assert err <= 1e-6, f"max eigenvalue error {err:.2e}"


def test_criterion_02_hemisphere_general():
    with _Criterion(2, "hemisphere (3,0.5) and (4,-0.5): sigma ladder + order"):
        for p in (al.WeightParams(s=1.25, N=3), al.WeightParams.from_b(-0.5, 4)):
            modes = al.hemisphere_eigs(p, k_max=3, per_k=4, resolution=256,
                                       refinements=2)
            mus = np.array([m.mu for m in modes])
            for sigma in (0, 1, 2):
                gap = np.min(np.abs(mus - sigma_to_mu(p, sigma)))
                assert gap <= 1e-5, f"sigma={sigma} missing at {p}: gap {gap:.2e}"
            # Richardson order on the converging sigma = 2 (k = 0) eigenvalue
            target = sigma_to_mu(p, 2)
            errs = []
            for n in (128, 256, 512):
                vals, *_ = _sector_eigs(p, 0, n, 3)
                errs.append(abs(vals[np.argmin(np.abs(vals - target))] - target))
            order = min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))
            assert order >= 1.8, f"observed order {order:.2f}"


def test_criterion_03_bessel_zeros():
    with _Criterion(3, "Bessel zeros: half-integer closed form + bisection"):
        for m in range(1, 21):
            assert abs(al.bessel_zero(-0.5, m) - (m - 0.5) * math.pi) <= 1e-10
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if al.bessel_j(0.0, lo) * al.bessel_j(0.0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(al.bessel_zero(0.0, 1) - 0.5 * (lo + hi)) <= 1e-10


def test_criterion_04_profile_b0():
    with _Criterion(4, "profile b=0: closed form (1+t)e^-t and J = 2"):
        sol = al.solve_profile(0.0)
        exact = (1.0 + sol.t) * np.exp(-sol.t)
        mask = sol.t <= 10.0
        err = float(np.max(np.abs(sol.phi - exact)[mask]))
        assert err <= 1e-6, f"max profile error {err:.2e}"
        assert abs(sol.J - 2.0) <= 1e-5, f"J error {abs(sol.J - 2.0):.2e}"


def test_criterion_05_trace_relation():
    with _Criterion(5, "trace relation b=0 on the 64^2 torus"):
        p = al.WeightParams(s=1.5, N=2)
        n = 64
        x = np.arange(n) * 2 * math.pi / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.exp(-((X - math.pi) ** 2 + (Y - math.pi) ** 2) / 0.8)
        kappa, spread = al.trace_laplacian_check(p, u, n_shells=10)
        assert spread < 0.005, f"spread {spread:.2%}"
        assert abs(kappa - 2.0) / 2.0 < 0.01, f"kappa {kappa:.4f}"


def test_criterion_06_pure_mode_frequency():
    with _Criterion(6, "pure-mode frequency constant on both paths"):
        cases = [
            (al.WeightParams(s=1.25, N=3), 1, None),
            (al.WeightParams(s=1.25, N=3), 2, 2),
            (al.WeightParams.from_b(-0.5, 4), 2, 0),
            (al.WeightParams(s=1.5, N=1), 1, None),
        ]
        radii = np.geomspace(0.5, 0.005, 20)
        for p, sigma, k in cases:
            mode = al.polynomial_mode(p, sigma, k=k)
            sol = al.synthesize(p, [(mode, 1.0, 0.0)])
            for r in radii:
                assert abs(al.frequency(sol, float(r)) - mode.sigma_plus) <= 1e-10
            for r in (0.5, 0.1, 0.02):
                fq = al.frequency(sol, r, method="quadrature")
                assert abs(fq - mode.sigma_plus) <= 1e-10, (
                    f"quadrature path off by {abs(fq - mode.sigma_plus):.2e}")


def test_criterion_07_H_derivative():
    with _Criterion(7, "H' = 2D/r to 1e-10 closed, order-2 quadrature"):
        p = al.WeightParams(s=1.25, N=3)
        two_term = al.synthesize(p, [(al.polynomial_mode(p, 1), 1.0, 0.0),
                                     (al.polynomial_mode(p, 2), 0.6, 0.0)])
        mixed = al.synthesize(p, [(al.polynomial_mode(p, 0), 0.7, 1.3),
                                  (al.polynomial_mode(p, 2), 0.4, -0.2)])
        for sol in (two_term, mixed):
            res = al.check_H_derivative(sol)
            assert res <= 1e-10, f"closed-form residual {res:.2e}"
        res = []
        for per_decade in (32, 64):
            radii = al.radius_schedule(1.0, per_decade=per_decade, decades=1.0,
                                       r_max=0.5)
            tr = al.trace(mixed, radii, method="quadrature")
            res.append(al.check_H_derivative(tr))
        assert res[1] < res[0] / 3.0, f"no order-2 shrink: {res}"


def test_criterion_08_pohozaev():
    with _Criterion(8, "both radial-multiplier identities on both paths"):
        p = al.WeightParams(s=1.25, N=3)
        sols = [
            al.synthesize(p, [(al.polynomial_mode(p, 1), 1.0, 0.0)]),
            al.synthesize(p, [(al.polynomial_mode(p, 0), 0.7, 1.3),
                              (al.polynomial_mode(p, 2), 0.4, -0.2)]),
        ]
        for sol in sols:
            for r in (0.25, 0.5, 0.75):
                r1, r2 = al.check_pohozaev(sol, r)
                assert max(r1, r2) <= 1e-8, f"closed residuals {r1:.1e}, {r2:.1e}"
                q1, q2 = al.check_pohozaev(sol, r, method="quadrature")
                assert max(q1, q2) <= 1e-8, f"quadrature residuals {q1:.1e}, {q2:.1e}"


def test_criterion_09_frequency_limit():
    with _Criterion(9, "vanishing-order extrapolation and H limit band"):
        p = al.WeightParams(s=1.25, N=3)
        two = al.synthesize(p, [(al.polynomial_mode(p, 1), 1.0, 0.0),
                                (al.polynomial_mode(p, 2), 0.4, 0.0)])
        res = al.frequency_limit(two)
        assert abs(res.gamma - 1.0) <= 1e-10, f"gamma {res.gamma}"
        mode = al.polynomial_mode(p, 1)
        mix = al.synthesize(p, [(mode, 0.5, 2.0)])
        res2 = al.frequency_limit(mix)
        assert abs(res2.gamma - mode.sigma_plus) <= 1e-10
        for r in (res, res2):
            assert r.h_limit > 0
            assert 0.9 <= r.h_band[0] <= r.h_band[1] <= 1.1, f"band {r.h_band}"
        # N + b < 1: the constant mode's sigma+ = -b lies within 1 + b of the next
        for s, positions in ((1.95, (0, 1, 2)), (1.882238, (0, 1)), (1.6, (0, 1, 2))):
            q = al.WeightParams(s=s, N=1)
            low = al.synthesize(q, [(al.polynomial_mode(q, sigma), 1.0 / (1 + sigma), 0.0)
                                    for sigma in positions])
            res3 = al.frequency_limit(low)
            assert abs(res3.gamma + q.b) <= 1e-10, f"gamma {res3.gamma} at s = {s}"
            assert res3.h_limit > 0
            # the quadrature path serves the constant mode at N + b < 1 too
            quad = al.frequency_limit(low, frequency_trace=al.trace(low, method="quadrature"))
            assert abs(quad.gamma + q.b) <= 1e-10, f"quadrature gamma {quad.gamma} at s = {s}"
            assert quad.h_limit > 0


def test_criterion_10_blowup_fitter():
    with _Criterion(10, "coefficient recovery and degenerate classification"):
        p = al.WeightParams(s=1.25, N=3)
        lam = np.geomspace(0.25, 0.02, 12)
        K = al.k_constant(p, sigma_to_mu(p, 1))
        phi = 2.0 * lam ** 1.0 + 0.5 * lam ** 3.0
        fit = al.fit_blowup(np.column_stack([lam, phi, np.zeros_like(lam)]),
                            [0.0, 1.0, 2.0], p)
        assert abs(fit.c1_hat - 2.0) <= 1e-6 * 2.0
        assert abs(fit.d1_hat - 0.5 * K) <= 1e-6 * abs(0.5 * K)
        mode = al.polynomial_mode(p, 1)
        sol = al.synthesize(p, [(mode, 0.0, 1.0)])
        rows = []
        for l in np.geomspace(0.25, 0.002, 14):
            f, ft = al.fourier_coefficient(sol, mode, l)
            rows.append([l, f, ft])
        fit2 = al.fit_blowup(rows, [0.0, 1.0, 2.0], p)
        assert fit2.branch == "sigma_plus_two"
        assert fit2.delta1 == pytest.approx(mode.sigma_plus + 2.0, abs=1e-9)


def test_criterion_11_inequality_suite():
    with _Criterion(11, "Hardy margins: 100 fields x 3 parameter sets"):
        param_sets = [al.WeightParams(s=1.25, N=3),
                      al.WeightParams.from_b(-0.5, 4),
                      al.WeightParams(s=1.5, N=4)]
        # Gauss-Jacobi margins sit at roundoff, so every field must agree with
        # the rule of twice the nodes per axis to 1e-10 of the set's scale.
        n_r, n_a = SPLIT_BODY_NODES, MARGIN_ANGULAR_NODES
        for i, p in enumerate(param_sets):
            fam = TestFamily(params=p, kind="bumps", count=100, seed=100 + i)
            margins, changes = [], []
            for field in fam.fields():
                m1 = check_hardy_trace(p, field, 1.0, n_radial=n_r, n_angular=n_a)
                m2 = check_hardy_trace(p, field, 1.0, n_radial=2 * n_r, n_angular=2 * n_a)
                margins.extend([m1, m2])
                changes.append(abs(m1 - m2))
            scale = max(abs(m) for m in margins)
            assert min(margins) >= -1e-12 * scale, f"violation at {p}"
            assert all(c <= 1e-10 * scale for c in changes), (
                f"margins not converged under doubling at {p}: {max(changes) / scale:.2e}")


def test_criterion_12_nu_decomposition():
    with _Criterion(12, "nu1 >= 0 over random syntheses; nu1+nu2 = N'"):
        p = al.WeightParams(s=1.25, N=3)
        rng = np.random.default_rng(12)
        modes = [al.polynomial_mode(p, s) for s in (0, 1, 2)]
        for _ in range(10):
            picks = rng.choice(3, size=2, replace=False)
            sol = al.synthesize(p, [(modes[i], rng.normal(), rng.normal())
                                    for i in picks])
            for r in rng.uniform(0.05, 0.95, size=50):
                nu1, _ = al.nu_decomposition(sol, float(r))
                assert nu1 >= -1e-9
        mixed = al.synthesize(p, [(modes[0], 0.7, 1.3), (modes[2], 0.4, -0.2)])
        errs = []
        for d_rel in (2e-3, 1e-3):
            worst = 0.0
            for r in (0.2, 0.4, 0.6):
                d = d_rel * r
                fd = (al.frequency(mixed, r + d) - al.frequency(mixed, r - d)) / (2 * d)
                worst = max(worst, abs(fd - sum(al.nu_decomposition(mixed, r))))
            errs.append(worst)
        assert errs[1] < errs[0] / 3.0, f"no order-2 convergence: {errs}"


def test_criterion_13_cross_path_regression():
    with _Criterion(13, "closed vs quadrature D, H, N on the regression set"):
        p3 = al.WeightParams(s=1.25, N=3)
        p4 = al.WeightParams.from_b(-0.5, 4)
        p1 = al.WeightParams(s=1.5, N=1)
        regression = [
            al.synthesize(p3, [(al.polynomial_mode(p3, 1), 1.0, 0.0)]),
            al.synthesize(p3, [(al.polynomial_mode(p3, 0), 0.7, 1.3),
                               (al.polynomial_mode(p3, 2), 0.4, -0.2)]),
            al.synthesize(p4, [(al.polynomial_mode(p4, 2, k=2), 1.0, 0.5),
                               (al.polynomial_mode(p4, 1), -0.3, 0.0)]),
            al.synthesize(p1, [(al.polynomial_mode(p1, 1), 0.5, 0.8),
                               (al.polynomial_mode(p1, 2), 1.0, 0.0)]),
        ]
        for sol in regression:
            for r in (0.2, 0.5, 0.8):
                Dc, Hc = al.compute_DH(sol, r)
                Dq, Hq = al.compute_DH(sol, r, method="quadrature")
                assert abs(Dq - Dc) <= 1e-10 * abs(Dc), f"D mismatch at r={r}"
                assert abs(Hq - Hc) <= 1e-10 * abs(Hc), f"H mismatch at r={r}"
                Nc, Nq = Dc / Hc, Dq / Hq
                assert abs(Nq - Nc) <= 1e-10 * max(abs(Nc), 1.0)
