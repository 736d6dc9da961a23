import functools
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from almgren_lab import (
    DomainError,
    WeightParams,
    cylinder,
    cylinder_mode,
    cylinder_spectrum,
    dirichlet_eigs,
)
from almgren_lab.core import gauss_jacobi
from almgren_lab.special_functions import _jn_zeros


@pytest.fixture(scope="module")
def params():
    return WeightParams(s=1.5, N=1, R=0.5)   # b = 0, domain (-1, 1) x (0, 1)


def cylinder_quadrature(params, nx=400):
    """Tensor rule for int over B'_{2R} x (0, 2R) of t^b f(x, t)."""
    a = 2.0 * params.R
    x_nodes, x_weights = roots_legendre(nx)
    x_nodes = a * x_nodes
    x_weights = a * x_weights
    t_nodes, t_weights = gauss_jacobi(64, params.b)
    return x_nodes, x_weights, a * t_nodes, a ** (params.b + 1.0) * t_weights


def weighted_inner(params, f, g, quad):
    xn, xw, tn, tw = quad
    F = f(xn[:, None], tn[None, :])
    G = g(xn[:, None], tn[None, :])
    return float(xw @ (F * G) @ tw)


def test_interval_spectrum(params):
    spec = dirichlet_eigs(1, params.R, 4)
    # interval (-2R, 2R): mu_n = (n pi / (4R))^2
    assert spec.mu(1) == pytest.approx((math.pi / 2) ** 2, rel=1e-14)
    assert spec.mu(2) == pytest.approx(math.pi ** 2, rel=1e-14)
    assert spec.mu(1) < spec.mu(2) < spec.mu(3)
    # orthonormal in unweighted L^2
    xn, xw, *_ = cylinder_quadrature(params)
    for i in range(1, 4):
        for j in range(i, 4):
            gram = float(xw @ (spec.evaluator(i)(xn) * spec.evaluator(j)(xn)))
            assert gram == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_disk_spectrum(params):
    spec = dirichlet_eigs(2, params.R, 6)
    from almgren_lab import bessel_zero

    assert spec.mu(1) == pytest.approx(bessel_zero(0.0, 1) ** 2, rel=1e-12)
    assert spec.mu(1) < spec.mu(2) <= spec.mu(3)
    # the first excited level of the unit disk is the double (k=1, p=1) pair
    assert spec.labels[1][:2] == (1, 1)
    assert spec.labels[2][:2] == (1, 1)


@functools.lru_cache(maxsize=None)
def _all_disk_zeros(count):
    """(k, zeros, slopes) of J_k for every k < count + 2, count + 2 zeros each."""
    table, zeros = [], None
    for k in range(count + 2):
        zeros, slopes = _jn_zeros(k, count + 2, zeros)
        table.append((k, zeros.tolist(), slopes.tolist()))
    return table


def _full_disk_table(R, count):
    """Every (k, p) with k, p < count + 2, sorted stably by mu and cut to count."""
    a = 2.0 * R
    entries = []
    for k, zeros, slopes in _all_disk_zeros(count):
        for p, (j, d) in enumerate(zip(zeros, slopes), start=1):
            c = 1.0 / (math.sqrt(math.pi) * a * abs(d))
            if k == 0:
                entries.append(((j / a) ** 2, (0, p, "cos"),
                                lambda rho, phi, j=j, c=c: c * cylinder._disk_radial(0, j * rho / a)))
                continue
            c_k = math.sqrt(2.0) * c
            for parity, trig in (("cos", np.cos), ("sin", np.sin)):
                entries.append(((j / a) ** 2, (k, p, parity),
                                lambda rho, phi, j=j, c=c_k, k=k, trig=trig:
                                    c * cylinder._disk_radial(k, j * rho / a) * trig(k * phi)))
    entries.sort(key=lambda e: e[0])
    return entries[:count]


@pytest.mark.parametrize("R", [0.5, 1.3])
def test_disk_spectrum_equals_the_full_table(R, monkeypatch):
    asked = []
    # the sweep asks cylinder's _jn_zeros; each count runs it afresh
    monkeypatch.setattr(cylinder, "_jn_zeros",
                        lambda k, n, below: asked.append(n) or _jn_zeros(k, n, below))
    rho = np.array([0.0, 0.2, 0.7, 1.0]) * 2.0 * R
    phi = np.array([0.0, 0.4, 2.5, -1.1])
    # every zero left out of a shorter table lies above the 40 smallest, so
    # each cut of the longest table is that shorter table
    full = _full_disk_table(R, 40)
    for count in range(1, 41):
        asked.clear()
        cylinder._disk_zeros.cache_clear()
        spec = dirichlet_eigs(2, R, count)
        assert sum(asked) <= 4 * count        # the full table asks for (count + 2)^2 zeros
        table = full[:count]
        assert spec.labels == tuple(label for _, label, _ in table)   # cos/sin tie order too
        assert spec.mus == tuple(mu for mu, _, _ in table)
        for n, (_, _, f) in enumerate(table, start=1):
            assert np.array_equal(spec.evaluator(n)(rho, phi), f(rho, phi))


def test_disk_table_of_512_against_mpmath_zeros():
    # every eigenvalue of the capped disk table, and the zero under it, against
    # mpmath's j_{k,p}; the zeros reach order 39, index 14 and j = 46.2
    mpmath = pytest.importorskip("mpmath")
    R = 0.7
    spec = dirichlet_eigs(2, R, 512)
    zeros = {(k, p): j for k, p, j, _ in cylinder._disk_zeros(512)}
    assert set(zeros) == {label[:2] for label in spec.labels}
    with mpmath.workdps(20):
        want = {key: mpmath.besseljzero(*key) for key in zeros}
        for key, j in zeros.items():
            assert abs(mpmath.mpf(j) - want[key]) <= 5e-15 * want[key], key
        for mu, label in zip(spec.mus, spec.labels):
            exact = (want[label[:2]] / (2 * R)) ** 2
            assert abs(mpmath.mpf(mu) - exact) <= 5e-15 * exact, label


def test_disk_evaluators_continue_to_negative_radii():
    # J_k(-x) = (-1)^k J_k(x): a point at -rho is the point at rho turned by pi
    spec = dirichlet_eigs(2, 0.5, 12)
    rho = np.array([0.1, 0.45, 0.8, 1.0])
    for n, (k, _, parity) in enumerate(spec.labels, start=1):
        f = spec.evaluator(n)
        assert np.allclose(f(-rho, 0.3), f(rho, 0.3 + math.pi), rtol=0, atol=1e-14), (k, parity)


def test_unsupported_dimension():
    with pytest.raises(DomainError, match="desk-scale"):
        dirichlet_eigs(3, 0.5, 2)


def test_mode_eigenvalue_example(params):
    # N = 1, b = 0, R = 1/2, n = m = 1: lambda = pi^2/2
    mode = cylinder_mode(params, 1, 1)
    assert mode.eigenvalue == pytest.approx(math.pi ** 2 / 2, rel=1e-13)


def test_eigenvalue_monotone_in_each_index(params):
    lams = {(n, m): cylinder_mode(params, n, m).eigenvalue
            for n in (1, 2, 3) for m in (1, 2, 3)}
    for n in (1, 2):
        for m in (1, 2):
            assert lams[(n, m)] < lams[(n + 1, m)]
            assert lams[(n, m)] < lams[(n, m + 1)]


@pytest.mark.parametrize("b", [0.0, 0.5, -0.5])
def test_orthonormality_gram(b):
    params = WeightParams.from_b(b, 1, R=0.5)
    quad = cylinder_quadrature(params, nx=400)
    modes = [cylinder_mode(params, n, m) for n in (1, 2, 3) for m in (1, 2)]
    for i, mi in enumerate(modes):
        for j in range(i, len(modes)):
            mj = modes[j]
            gram = weighted_inner(params, mi, mj, quad)
            want = 1.0 if i == j else 0.0
            assert gram == pytest.approx(want, abs=1e-6)


def test_weighted_neumann_at_zero(params):
    # t^b d_t e_{n,m} -> 0 as t -> 0+, decreasing along t = 1e-2, 1e-3, 1e-4
    mode = cylinder_mode(params, 1, 1)
    vals = [abs(t ** params.b * mode.radial_t_derivative(t))
            for t in (1e-2, 1e-3, 1e-4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3


def test_eigen_residual_weak_form(params):
    # weighted weak form against 5 random smooth test fields vanishing on the
    # Dirichlet part of the boundary (lateral walls and the top lid)
    rng = np.random.default_rng(5)
    quad = cylinder_quadrature(params, nx=300)
    xn, xw, tn, tw = quad
    a = 2 * params.R
    mode = cylinder_mode(params, 2, 1)
    lam = mode.eigenvalue
    c = mode.zero_m / a
    for _ in range(5):
        amps = rng.uniform(-1, 1, size=3)
        ks = rng.integers(1, 4, size=3)
        cs = 2 * rng.integers(0, 2, size=3) + 1  # odd: cos(c pi t/(2a)) kills top

        def phi(x, t):
            out = 0.0
            for A, kx, kt in zip(amps, ks, cs):
                out = out + A * np.sin(kx * math.pi * (x + a) / (2 * a)) \
                    * np.cos(kt * math.pi * t / (2 * a))
            return out

        def phi_x(x, t):
            out = 0.0
            for A, kx, kt in zip(amps, ks, cs):
                out = out + A * (kx * math.pi / (2 * a)) \
                    * np.cos(kx * math.pi * (x + a) / (2 * a)) \
                    * np.cos(kt * math.pi * t / (2 * a))
            return out

        def phi_t(x, t):
            out = 0.0
            for A, kx, kt in zip(amps, ks, cs):
                out = out - A * (kt * math.pi / (2 * a)) \
                    * np.sin(kx * math.pi * (x + a) / (2 * a)) \
                    * np.sin(kt * math.pi * t / (2 * a))
            return out

        X, T = xn[:, None], tn[None, :]
        e_x = mode.radial(T) * (mode.horizontal(X + 1e-7) - mode.horizontal(X - 1e-7)) / 2e-7
        e_t = mode.radial_t_derivative(T) * mode.horizontal(X)
        lhs = float(xw @ (e_x * phi_x(X, T) + e_t * phi_t(X, T)) @ tw)
        rhs = lam * float(xw @ (mode(X, T) * phi(X, T)) @ tw)
        phi_norm = math.sqrt(float(xw @ (phi(X, T) ** 2) @ tw))
        assert abs(lhs - rhs) <= 2e-5 * lam * max(phi_norm, 1e-6)


def test_poisson_coefficient_decay_on_bump(params):
    # Gaussian-bump datum, even in t so the natural bottom condition holds:
    # the iterated identity c = lambda^-l <(-Delta_b)^l psi, e> certifies the
    # o(lambda^-2) coefficient decay, and the rescaled coefficients c lambda^2
    # stay square-summable below the datum norm (Bessel).
    w, c0 = 0.18, 0.30

    def bumps(poly):
        # e^{-q}, q = |z - z0|^2 / w^2, has Delta e^{-q} = (4/w^2) (q - 1) e^{-q}
        # and Delta^2 e^{-q} = (4/w^2)^2 (q^2 - 4q + 2) e^{-q} in the plane (b = 0)
        def f(x, t):
            return sum(poly((x ** 2 + (t - c) ** 2) / w ** 2)
                       * np.exp(-(x ** 2 + (t - c) ** 2) / w ** 2) for c in (c0, -c0))
        return f

    psi_f = bumps(lambda q: 1.0)
    lap1_f = bumps(lambda q: 4.0 / w ** 2 * (q - 1.0))
    lap2_f = bumps(lambda q: (4.0 / w ** 2) ** 2 * (q ** 2 - 4.0 * q + 2.0))

    quad = cylinder_quadrature(params, nx=260)
    norm_lap2 = math.sqrt(weighted_inner(params, lap2_f, lap2_f, quad))
    total = 0.0
    cs = []
    for n in range(1, 11):
        for m in range(1, 11):
            mode = cylinder_mode(params, n, m)
            lam = mode.eigenvalue
            c = weighted_inner(params, psi_f, mode, quad)
            d1 = -weighted_inner(params, lap1_f, mode, quad)
            d2 = weighted_inner(params, lap2_f, mode, quad)
            # iterated integration-by-parts identities (l = 1, 2)
            assert abs(c - d1 / lam) <= 1e-6
            assert abs(c - d2 / lam ** 2) <= 2e-4
            cs.append((lam, c))
            total += (c * lam ** 2) ** 2
    # Bessel bound on the twice-lifted coefficients: the l = 2 decay rate
    assert total <= norm_lap2 ** 2 * (1 + 1e-6)
    # and the lifted coefficients are already saturated at this truncation
    lams = np.array([e[0] for e in cs])
    csq = np.array([(e[1] * e[0] ** 2) ** 2 for e in cs])
    assert csq[lams > np.median(lams)].sum() < 0.5 * total


def test_sup_norm_growth_sanity(params):
    # sup |e_{n,m}| grows no faster than a fixed power of the eigenvalue
    xs = np.linspace(-2 * params.R + 1e-9, 2 * params.R - 1e-9, 301)
    ts = np.linspace(1e-9, 2 * params.R, 301)
    sups, lams = [], []
    for n in (1, 2, 4, 6):
        for m in (1, 2, 4, 6):
            mode = cylinder_mode(params, n, m)
            vals = np.abs(mode(xs[:, None], ts[None, :]))
            sups.append(vals.max())
            lams.append(mode.eigenvalue)
    slope = np.polyfit(np.log(lams), np.log(sups), 1)[0]
    assert -0.2 <= slope < 2.0


def test_modes_vanish_on_dirichlet_boundary(params):
    # e_{n,m} vanishes at the top lid t = 2R and on the lateral walls x = +-2R
    mode = cylinder_mode(params, 2, 2)
    assert abs(mode.radial(2 * params.R)) < 1e-12
    for x in (-2 * params.R, 2 * params.R):
        assert abs(mode.horizontal(x)) < 1e-12


@pytest.mark.parametrize("N", [1, 2])
def test_cylinder_spectrum_is_the_sorted_head_of_the_mode_table(N):
    p = WeightParams(s=1.37, N=N, R=0.7)
    count = 5
    table = sorted((cylinder_mode(p, n, m)
                    for n in range(1, count + 1) for m in range(1, count + 1)),
                   key=lambda mode: mode.eigenvalue)[:count]
    got = cylinder_spectrum(p, count)
    assert [(m.n, m.m) for m in got] == [(m.n, m.m) for m in table]
    for a, b in zip(got, table):
        assert (a.mu_n, a.zero_m, a.gamma_m, a.eigenvalue) == (b.mu_n, b.zero_m, b.gamma_m,
                                                               b.eigenvalue)


@pytest.mark.parametrize("call", [lambda: dirichlet_eigs(1, 1.0, 10 ** 9),
                                  lambda: dirichlet_eigs(2, 1.0, 513),
                                  lambda: cylinder_mode(WeightParams(s=1.5, N=1), 10 ** 9, 1)])
def test_dirichlet_counts_are_capped_at_max_modes(call):
    # one evaluator closure per eigenvalue: the cap refuses before any is made
    with pytest.raises(DomainError, match="within the cap of 512"):
        call()
