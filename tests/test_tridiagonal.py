"""`core._Tridiagonal`, its spline and its sector eigensolve, against scipy.linalg as the oracle.

The package imports no scipy.linalg; these tests do, for `solve_banded` and
`eigh_tridiagonal` on the same matrices.
"""

import math

import numpy as np
import pytest

from almgren_lab.core import SolverError, WeightParams, _CubicSpline, _Tridiagonal
from almgren_lab.hemisphere import _lowest_eigenpairs, _sector_eigs, _sector_tridiag, exact_mu

linalg = pytest.importorskip("scipy.linalg")
EPS = np.finfo(float).eps


def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 31, 64, 100, 513])
def test_kernel_solves_batched_dominant_systems(n):
    # unsymmetric and diagonally dominant, with couplings shared by the batch
    # (broadcast) or not; the right side may carry more rows than T
    rng = np.random.default_rng(n)
    diag = rng.uniform(2.5, 4.0, (3, n))
    lower, upper = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (3, n))
    lower[0] = upper[:, -1] = 0.0
    r = rng.standard_normal((3, n))
    x = _Tridiagonal(lower, diag, upper).solve(r)
    for b in range(3):
        want = np.linalg.solve(_dense(lower, diag[b], upper[b]), r[b])
        assert np.max(np.abs(x[b] - want)) <= 1e-14 * np.max(np.abs(want))
    one = _Tridiagonal(lower, diag[0], upper[0]).solve(r)
    assert np.array_equal(one[0], _Tridiagonal(lower, diag[0], upper[0]).solve(r[0]))


@pytest.mark.parametrize("n", [7, 64, 300, 1000])
def test_kernel_counts_negative_eigenvalues_and_solves_indefinite_shifts(n):
    # symmetric, shifted to midpoints between its eigenvalues and to points
    # just off them: the inertia is exact and the solve backward stable
    rng = np.random.default_rng(n)
    diag, off = rng.uniform(-1.0, 3.0, n), rng.uniform(0.2, 1.0, n - 1)
    lower, upper = np.append(0.0, off), np.append(off, 0.0)
    values = np.linalg.eigvalsh(_dense(lower, diag, upper))
    index = np.arange(0, n - 1, max(1, n // 16))
    shifts = np.concatenate([0.5 * (values[index] + values[index + 1]),
                             values[index] * (1.0 + 1e-9) + 1e-9])
    factor = _Tridiagonal(lower, diag - shifts[:, None], upper)
    assert np.array_equal(factor.negatives, np.searchsorted(values, shifts))
    r = rng.standard_normal((shifts.size, n))
    x = factor.solve(r)
    residual = (diag - shifts[:, None]) * x - r
    residual[:, 1:] += lower[1:] * x[:, :-1]
    residual[:, :-1] += upper[:-1] * x[:, 1:]
    assert np.all(np.linalg.norm(residual, axis=1) <= 1e-12 * 4.0 * np.linalg.norm(x, axis=1))


def test_kernel_shift_at_an_exact_eigenvalue_gives_a_finite_null_vector():
    # the path Laplacian with unit couplings is singular, its null vector the
    # constants, and its elimination exact in binary: the last pivot is 0.0
    n = 64
    lower, upper = -np.append(0.0, np.ones(n - 1)), -np.append(np.ones(n - 1), 0.0)
    diag = -(lower + upper)
    factor = _Tridiagonal(lower, diag, upper)
    x = factor.solve(np.linspace(1.0, 2.0, n))
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x / x[0] - 1.0)) < 1e-12
    assert factor.negatives == 1       # the 0 eigenvalue, perturbed, counts as negative


def _not_a_knot_slopes(x, y):
    """The knot slopes of scipy's not-a-knot system, on solve_banded."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    bands = np.zeros((3, x.size))
    bands[0, 1], bands[0, 2:] = d0, dx[:-1]
    bands[1, 0], bands[1, 1:-1], bands[1, -1] = dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]
    bands[2, :-2], bands[2, -2] = dx[1:], d1
    rhs = np.empty(x.size)
    rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    return linalg.solve_banded((1, 1), bands, rhs)


@pytest.mark.parametrize("kind", ["uniform", "graded", "random"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 33, 64, 65, 100, 1000, 4097, 16385])
def test_spline_slopes_match_solve_banded(kind, n):
    rng = np.random.default_rng(n)
    t = np.arange(n) / (n - 1.0)
    x = {"uniform": t, "graded": t ** 3 + 1e-3 * t,
         "random": np.sort(rng.uniform(-1.0, 2.0, n))}[kind]
    y = np.cos(3.0 * x) + 0.1 * rng.standard_normal(n)
    want = _not_a_knot_slopes(x, y)
    spline = _CubicSpline(x, y)
    got = np.append(spline.c[2], spline(x[-1], nu=1))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_spline_rows_share_one_factorization():
    x = np.linspace(0.0, 1.0, 200)
    y = np.stack([np.sin(x), np.exp(x), x ** 3])
    splines = _CubicSpline(x, y)
    for row, values in enumerate(y):
        assert np.array_equal(splines[row].c, _CubicSpline(x, values).c)


def _oracle(params, k, n, count):
    """eigh_tridiagonal on A = M^-1/2 K M^-1/2 of the sector, with ||A|| by Gershgorin."""
    masses, coeffs, centers = _sector_tridiag(params, k, n)
    root, a = np.sqrt(masses), coeffs / (centers[1] - centers[0])
    diag, off = (a[:-1] + a[1:]) / masses, -a[1:-1] / (root[:-1] * root[1:])
    vals, vecs = linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, count))
    norm = np.max(np.abs(diag) + np.abs(np.append(0.0, off)) + np.abs(np.append(off, 0.0)))
    return vals, vecs, root, norm


_S = (1.01, 1.05, 1.3, 1.7, 1.95, 1.99)
_SECTORS = [(N, s, k, n) for i, (N, s) in enumerate((N, s) for N in range(1, 7) for s in _S)
            for k, n in [((0, 1, 3, 10, 40)[i % 5] if N > 1 else i % 2,
                          (64, 256, 1024, 8192)[i % 4])]]


@pytest.mark.parametrize("N, s, k, n", _SECTORS)
def test_sector_eigenpairs_match_eigh_tridiagonal(N, s, k, n):
    # eigenvalues within 2 eps ||A||; unit eigenvectors (A's form) within
    # 1e-10, or a tenth of eps ||A|| / gap where that is larger: both solvers'
    # vectors are off by up to that bound, and at 8192 cells with b near -1
    # LAPACK's own are 1e-10 to 2e-10 from an extended-precision solve
    params, count = WeightParams(s=s, N=N), 6
    vals, q, _, _ = _sector_eigs(params, k, n, count)
    want, vecs, root, norm = _oracle(params, k, n, count)
    shift = k * (k + N + params.b - 1.0)
    assert np.max(np.abs(vals - shift - want[:count])) <= 2.0 * EPS * norm
    gaps = np.minimum(np.diff(want), np.append(np.inf, np.diff(want)[:-1]))
    got = q * root[:, None]
    got *= np.sign(np.sum(got * vecs[:, :count], axis=0))
    err = np.max(np.abs(got - vecs[:, :count]), axis=0)
    assert np.all(err <= np.maximum(1e-10, 0.1 * EPS * norm / gaps)), err


def test_forty_pairs_where_the_closed_form_shifts_miss():
    # at 512 cells the FV eigenvalues of sector 3 fall up to 36 below the
    # closed form, a ninth of the gap: inverse iteration from those shifts
    # lands on wrong pairs, the inertia check sees it, and bisection recovers
    params = WeightParams(s=1.25, N=3)
    vals, q, _, _ = _sector_eigs(params, 3, 512, 40)
    want, vecs, root, norm = _oracle(params, 3, 512, 40)
    shift = 3 * (3 + 3 + params.b - 1.0)
    assert np.max(np.abs(vals - shift - want[:40])) <= 2.0 * EPS * norm
    got = q * root[:, None]
    got *= np.sign(np.sum(got * vecs[:, :40], axis=0))
    assert np.max(np.abs(got - vecs[:, :40])) <= 1e-10
    closed = np.array([exact_mu(params, 3 + 2 * j) for j in range(40)])
    assert np.max(closed - vals) > 30.0


def test_guesses_that_skip_an_eigenvalue_are_caught_by_inertia():
    # guesses at eigenvalues 0, 2 and 3: inverse iteration converges to those
    # three distinct pairs, with small residuals and wide gaps, and only the
    # inertia at the first midpoint (two negatives, not one) shows the skip
    params = WeightParams(s=1.25, N=3)
    masses, coeffs, centers = _sector_tridiag(params, 0, 256)
    want, vecs, root, norm = _oracle(params, 0, 256, 4)
    vals, q = _lowest_eigenpairs(coeffs[1:-1] / (centers[1] - centers[0]), masses, want[[0, 2, 3, 4]])
    assert np.max(np.abs(vals - want[:3])) <= 2.0 * EPS * norm


@pytest.mark.parametrize("N, k", [(1, 0), (1, 1), (3, 0), (3, 2), (5, 7)])
def test_sector_bottom_shift_is_an_exact_eigenvalue_and_gives_no_nan(N, k):
    # the first shift, the sector's bottom, is the exact eigenvalue of the
    # constant Q: the pair comes out finite, with the constant vector
    params = WeightParams(s=1.5, N=N)
    vals, q, masses, _ = _sector_eigs(params, k, 256, 3)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(q))
    assert abs(vals[0] - k * (k + N + params.b - 1.0)) <= 1e-12 * max(1.0, vals[0])
    assert np.max(np.abs(q[:, 0] / q[0, 0] - 1.0)) < 1e-10
    assert np.sum(masses * q[:, 0] ** 2) == pytest.approx(1.0, rel=1e-14)


def test_pairs_closer_than_their_residuals_raise_solver_error():
    # a coupling of 1e-300 splits the path into two equal halves: each
    # eigenvalue of a half comes twice, 1e-300 apart, far below any residual,
    # so no pair can be certified, from the guesses or from the brackets
    couplings, masses = np.ones(63), np.ones(64)
    couplings[31] = 1e-300
    with pytest.raises(SolverError, match="certify"):
        _lowest_eigenpairs(couplings, masses, np.array([0.0, 0.01, 0.02, 0.04, 0.08]))
