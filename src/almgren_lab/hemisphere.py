"""Weighted Laplace-Beltrami eigenpairs on the half sphere and exponent maps.

The eigenproblem on S^N_+ with weight theta_{N+1}^b and weighted-Neumann
condition at the equator has the explicit spectrum mu = sigma (sigma + N +
b - 1), sigma = 0, 1, 2, ...: its eigenfunctions are the h-harmonics for the
weight |t|^b (Dunkl & Xu, Orthogonal Polynomials of Several Variables,
ch. 7).  For N >= 2 they separate into azimuthal sectors k = sigma,
sigma - 2, ..., >= 0, with angular profile sin^k(psi) P_j^{(k+(N-2)/2,
(b-1)/2)}(cos 2 psi), sigma = k + 2j; for N = 1 the profile on the arc
(0, pi) is P_sigma^{(a,a)}(cos phi), a = (b-1)/2.  `polynomial_mode` builds
one such mode with its exact norm (DLMF Table 18.3.1) and derivative, and
`hemisphere_modes` lists them in (sigma, k) order; this is the production
eigenbasis of the command line.

`hemisphere_eigs` is the independent numerical cross-check.  For wavenumber
k >= 1 the angular profile factors as P = sin^k(psi) Q, which turns the
singular-potential reduction into a regular Sturm-Liouville problem for Q
with weight sin^{2k+N-1}(psi) cos^b(psi), natural boundary conditions at both
ends, and eigenvalue shift k (k + N + b - 1).  Each sector is discretized by
conservative (flux-form) second-order finite volumes on a uniform grid and
solved as a symmetric tridiagonal eigenproblem (bisection + inverse
iteration); cell masses integrate the degenerate factor in closed form, so
the weight is never evaluated at the equator.  For N = 1 the problem lives on
the full arc (0, pi) with weight sin^b and weighted-Neumann conditions at
both endpoints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_gegenbauer, gammaln

from .core import (
    AngularGrid1D,
    DegenerateResonanceError,
    DomainError,
    InputError,
    ResolutionError,
    WeightParams,
    unit_sphere_area,
)

MERGE_RTOL = 1e-8
# Longest closed-form mode list (and so the largest spec position + 1): the
# profiles stay orthonormal to ~1e-12 at this degree.
MAX_MODES = 512
_LN2 = math.log(2.0)


def sigma_exponents(params: WeightParams, mu: float) -> tuple[float, float]:
    """Characteristic exponents, the two roots of sigma (sigma + N + b - 1) = mu."""
    if mu < 0:
        if mu < -1e-9:
            raise DomainError(f"eigenvalue mu must be nonnegative, got {mu}")
        mu = 0.0
    half = 0.5 * (params.N + params.b - 1.0)
    root = math.sqrt(half * half + mu)
    return -half + root, -half - root


def k_constant(params: WeightParams, mode) -> float:
    """Resonance denominator K = (s+2)(s+1) + (N+b)(s+2) - mu at s = sigma_plus.

    Algebraically K = 2 (2 sigma_plus + N + b + 1), hence strictly positive for
    mu >= 0; the guard below still refuses a silent division should a caller
    feed degenerate data.
    """
    if isinstance(mode, SpectralMode):
        sp, mu = mode.sigma_plus, mode.mu
    else:
        mu = float(mode)
        sp, _ = sigma_exponents(params, mu)
    K = (sp + 2.0) * (sp + 1.0) + (params.N + params.b) * (sp + 2.0) - mu
    if abs(K) < 1e-9:
        raise DegenerateResonanceError(
            f"resonance constant K = {K} is numerically zero for mu = {mu}"
        )
    return K


def harmonic_multiplicity(N: int, k: int) -> int:
    """Dimension of the degree-k harmonic space on S^{N-1} (1 for N = 1)."""
    if k < 0:
        raise DomainError("wavenumber must be nonnegative")
    if N == 1:
        return 1
    return math.comb(N + k - 1, k) - (math.comb(N + k - 3, k - 2) if k >= 2 else 0)


def sphere_harmonic_value(N: int, k: int, chi=0.0):
    """Value at meridian angle chi of the normalized representative harmonic.

    The representative of the degree-k space on S^{N-1} is the zonal harmonic
    with axis e_1; chi is the angle from that axis.  For N = 1 there is no
    horizontal sphere and the factor is 1.
    """
    if N == 1:
        return np.ones_like(np.asarray(chi, dtype=float)) if np.ndim(chi) else 1.0
    x = np.cos(np.asarray(chi, dtype=float))
    if N == 2:
        norm = 1.0 / math.sqrt(2.0 * math.pi) if k == 0 else 1.0 / math.sqrt(math.pi)
        val = norm * (np.ones_like(x) if k == 0 else np.cos(k * np.asarray(chi, dtype=float)))
    else:
        lam = (N - 2) / 2.0
        h_k = math.pi * 2.0 ** (1 - 2 * lam) * math.exp(
            gammaln(k + 2 * lam) - gammaln(k + 1) - 2 * gammaln(lam)
        ) / (k + lam)
        c_k = 1.0 / math.sqrt(unit_sphere_area(N - 2) * h_k)
        val = c_k * eval_gegenbauer(k, lam, x)
    return float(val) if np.ndim(chi) == 0 else val


class AngularProfile:
    """Angular eigenfunction profile on the polar interval, exact or sampled.

    An exact profile evaluates its closed form `exact` and `exact_deriv`; a
    sampled one (the finite-volume cross-check) interpolates `values` at
    `psi` with a cubic spline.
    """

    def __init__(self, psi=None, values=None, *, exact=None, exact_deriv=None,
                 solver_centers=None, solver_q=None, solver_masses=None):
        self.exact = exact
        self.exact_deriv = exact_deriv
        self.solver_centers = solver_centers
        self.solver_q = solver_q
        self.solver_masses = solver_masses
        if exact is None:
            from scipy.interpolate import CubicSpline   # FV cross-check only

            self.psi = np.asarray(psi, dtype=float)
            self.values = np.asarray(values, dtype=float)
            self._spline = CubicSpline(self.psi, self.values)
            self._dspline = self._spline.derivative()

    def __call__(self, psi):
        if self.exact is not None:
            return self.exact(np.asarray(psi, dtype=float))
        return self._spline(np.asarray(psi, dtype=float))

    def deriv(self, psi):
        if self.exact_deriv is not None:
            return self.exact_deriv(np.asarray(psi, dtype=float))
        return self._dspline(np.asarray(psi, dtype=float))

    def rescaled(self, factor: float) -> "AngularProfile":
        """The sampled profile times `factor`."""
        return AngularProfile(
            self.psi, self.values * factor,
            solver_centers=self.solver_centers,
            solver_q=None if self.solver_q is None else self.solver_q * factor,
            solver_masses=self.solver_masses,
        )


@dataclass(frozen=True)
class SpectralMode:
    """One hemisphere eigenpair: eigenvalue, exponents and angular profile.

    `ell` indexes the distinct eigenvalue: it is sigma for the closed-form
    modes of `polynomial_mode`, and the position among the distinct merged
    eigenvalues for the finite-volume modes of `hemisphere_eigs`.
    `multiplicity` is the total M_ell of that eigenvalue (harmonic dimensions
    summed over its sectors).  The profile is normalized so that the full
    eigenfunction P(psi) * Omega(w) has unit theta^b-weighted L^2 norm on
    S^N_+, with Omega the normalized representative harmonic of the sector.
    """

    params: WeightParams
    ell: int
    k: int
    mu: float
    multiplicity: int
    profile: AngularProfile

    @property
    def sigma_plus(self) -> float:
        return sigma_exponents(self.params, self.mu)[0]

    @property
    def sigma_minus(self) -> float:
        return sigma_exponents(self.params, self.mu)[1]

    def equator_value(self) -> float:
        psi_eq = math.pi / 2.0 if self.params.N >= 2 else 0.0
        return float(self.profile(psi_eq))

    def block_key(self) -> int:
        return 0 if self.params.N == 1 else self.k


def _cell_masses(p: float, lo: np.ndarray, hi: np.ndarray, smooth) -> np.ndarray:
    """Per-cell integrals of u^p * G(u) with G fitted quadratically per cell."""
    mom = []
    for j in range(3):
        q = p + j
        mom.append((hi ** (q + 1) - lo ** (q + 1)) / (q + 1))
    mid = 0.5 * (lo + hi)
    g0, g1, g2 = smooth(lo), smooth(mid), smooth(hi)
    # Lagrange basis on (lo, mid, hi) expanded in monomials.
    d0 = (lo - mid) * (lo - hi)
    d1 = (mid - lo) * (mid - hi)
    d2 = (hi - lo) * (hi - mid)
    c2 = g0 / d0 + g1 / d1 + g2 / d2
    c1 = -(g0 * (mid + hi) / d0 + g1 * (lo + hi) / d1 + g2 * (lo + mid) / d2)
    c0 = (g0 * mid * hi / d0 + g1 * lo * hi / d1 + g2 * lo * mid / d2)
    return c0 * mom[0] + c1 * mom[1] + c2 * mom[2]


def _sinc(u):
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    nz = u != 0
    out[nz] = np.sin(u[nz]) / u[nz]
    return out


def _sector_tridiag(params: WeightParams, k: int, n: int):
    """Masses, face coefficients and centers for one azimuthal sector."""
    N, b = params.N, params.b
    if N == 1:
        L = math.pi
        faces = np.linspace(0.0, L, n + 1)
        lo, hi = faces[:-1], faces[1:]
        masses = np.empty(n)
        left = hi <= L / 2 + 1e-14
        # weight sin^b(phi) = u^b (sin u / u)^b measured from the nearer endpoint
        masses[left] = _cell_masses(b, lo[left], hi[left], lambda u: _sinc(u) ** b)
        right = ~left
        masses[right] = _cell_masses(
            b, L - hi[right], L - lo[right], lambda u: _sinc(u) ** b
        )
        coeffs = np.zeros(n + 1)
        coeffs[1:-1] = np.sin(faces[1:-1]) ** b
        return masses, coeffs, 0.5 * (lo + hi)
    M = 2 * k + N - 1
    L = math.pi / 2.0
    faces = np.linspace(0.0, L, n + 1)
    lo, hi = faces[:-1], faces[1:]
    # u = pi/2 - psi: weight sin^M(psi) cos^b(psi) = u^b (sinc u)^b cos^M(u)
    masses = _cell_masses(b, L - hi, L - lo, lambda u: _sinc(u) ** b * np.cos(u) ** M)
    coeffs = np.zeros(n + 1)
    interior = faces[1:-1]
    coeffs[1:-1] = np.sin(interior) ** M * np.cos(interior) ** b
    return masses, coeffs, 0.5 * (lo + hi)


def _sector_eigs(params: WeightParams, k: int, n: int, count: int):
    """Lowest eigenpairs of one sector at resolution n (cell-centered FV)."""
    masses, coeffs, centers = _sector_tridiag(params, k, n)
    if not (np.all(np.isfinite(masses)) and np.all(masses > 0)):
        # the weight sin^{2k+N-1}(psi) drives the masses next to the pole
        # below the floating-point range for high sectors
        raise ResolutionError(
            f"sector k = {k} at resolution {n}: cell masses underflow; "
            f"ask for fewer sectors (a lower l or k_max)"
        )
    # products of square roots: the plain products of the tiny masses next
    # to the pole are subnormal for high sectors and keep only a few bits
    root = np.sqrt(masses)
    h = centers[1] - centers[0]
    a = coeffs / h
    diag = (a[:-1] + a[1:]) / masses
    off = -a[1:-1] / (root[:-1] * root[1:])
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    q = vecs / root[:, None]
    shift = 0.0 if params.N == 1 else k * (k + params.N + params.b - 1.0)
    return vals + shift, q, masses, centers


def _richardson(levels: list[np.ndarray]) -> np.ndarray:
    """Repeated order-2 Richardson extrapolation across grid doublings."""
    table = [np.asarray(v, dtype=float) for v in levels]
    order = 2.0
    while len(table) > 1:
        fac = 2.0 ** order
        table = [(fac * b - a) / (fac - 1.0) for a, b in zip(table[:-1], table[1:])]
        order += 2.0
    return table[0]


def hemisphere_eigs(
    params: WeightParams,
    k_max: int = 4,
    per_k: int = 6,
    resolution: int = 512,
    refinements: int = 1,
    normalization_grid: AngularGrid1D | None = None,
) -> list[SpectralMode]:
    """Lowest eigenmodes by finite volumes, merged and ordered: the cross-check.

    Per-sector solves run at `resolution` times 2^j for j = 0..refinements and
    the eigenvalues are Richardson extrapolated; profiles come from the finest
    grid.  Eigenvalues agreeing to relative 1e-8 are merged into a single
    distinct eigenvalue index ell with summed multiplicity.
    """
    if resolution < 64:
        raise ResolutionError(
            f"resolution {resolution} too low; use at least 64 (and >= 8*per_k)"
        )
    if per_k < 1 or k_max < 0:
        raise DomainError("need per_k >= 1 and k_max >= 0")
    if per_k > resolution // 8:
        raise ResolutionError(
            f"resolution {resolution} too low for {per_k} eigenvalues per sector; "
            f"try resolution >= {8 * per_k}"
        )
    grid = normalization_grid or AngularGrid1D.for_params(params, 2048)
    sectors = [0] if params.N == 1 else list(range(k_max + 1))
    resolutions = [resolution * 2 ** j for j in range(refinements + 1)]

    entries = []
    for k in sectors:
        levels = [_sector_eigs(params, k, n, per_k) for n in resolutions]
        mus = _richardson([lv[0] for lv in levels])
        _, qvecs, masses, centers = levels[-1]
        sin_k = np.sin(centers) ** k if params.N >= 2 else 1.0
        for j, mu in enumerate(mus):
            q = qvecs[:, j]
            p_vals = sin_k * q
            prof = AngularProfile(centers, p_vals, solver_centers=centers,
                                  solver_q=q, solver_masses=masses)
            # normalize against the reference quadrature and orient at equator
            norm2 = grid.integrate_bare(prof(grid.nodes) ** 2)
            psi_eq = math.pi / 2.0 if params.N >= 2 else 0.0
            sign = 1.0 if prof(psi_eq) >= 0 else -1.0
            prof = prof.rescaled(sign / math.sqrt(norm2))
            entries.append((0.0 if abs(mu) < 1e-9 else float(mu), k, prof))
    entries.sort(key=lambda e: e[0])

    # merge numerically coincident eigenvalues into distinct indices
    groups: list[list[int]] = []
    for idx, (mu, _, _) in enumerate(entries):
        if groups and abs(mu - entries[groups[-1][0]][0]) <= MERGE_RTOL * max(1.0, abs(mu)):
            groups[-1].append(idx)
        else:
            groups.append([idx])
    modes = []
    for ell, group in enumerate(groups):
        mult = sum(harmonic_multiplicity(params.N, entries[i][1]) for i in group)
        for i in group:
            mu, k, prof = entries[i]
            modes.append(SpectralMode(params=params, ell=ell, k=k, mu=mu,
                                      multiplicity=mult, profile=prof))
    return modes




def exact_mu(params: WeightParams, sigma: int) -> float:
    """Eigenvalue mu_sigma = sigma (sigma + N + b - 1) of the degree-sigma modes."""
    return 0.0 if sigma == 0 else sigma * (sigma + params.N + params.b - 1.0)


def sigma_multiplicity(N: int, sigma: int) -> int:
    """M_sigma, the sum of dim H_k(S^{N-1}) over k <= sigma, k = sigma (mod 2).

    The modes of degree sigma are the weighted-harmonic extensions of the
    homogeneous degree-sigma polynomials in x, so M_sigma is their dimension
    C(sigma + N - 1, N - 1); for N = 1 it is 1.
    """
    return math.comb(sigma + N - 1, N - 1)


def _jacobi(n: int, a1: float, b1: float, x):
    """P_n^{(a1-1, b1-1)}(x) by the three-term recurrence (DLMF 18.9.2).

    The parameters enter shifted by one, and every factor adds its integer
    part to them last: for N = 1 near s = 2, a1 = b1 = (b+1)/2 is ~1e-16, and
    forming it as (b-1)/2 + 1, or a factor such as 2m + alpha + beta - 2 as
    (2m + alpha + beta) - 2, would lose its digits.
    """
    c = a1 + b1
    prev, cur = np.ones_like(x), a1 + 0.5 * c * (x - 1.0)
    if n == 0:
        return prev
    for m in range(2, n + 1):
        q0, q1, q2 = (2 * m - 4) + c, (2 * m - 3) + c, (2 * m - 2) + c
        prev, cur = cur, (
            q1 * (q2 * q0 * x + (a1 - b1) * (c - 2.0)) * cur
            - 2.0 * ((m - 2) + a1) * ((m - 2) + b1) * q2 * prev
        ) / (2.0 * m * ((m - 2) + c) * q0)
    return cur


def _log_jacobi_norm2(j: int, a1: float, b1: float) -> float:
    """log h_j, h_j = int_{-1}^1 (1-x)^{a1-1} (1+x)^{b1-1} P_j^{(a1-1,b1-1)}(x)^2 dx.

    DLMF Table 18.3.1 with alpha = a1 - 1, beta = b1 - 1.  The general form
    divides by alpha + beta + 1 and takes Gamma(alpha + beta + 1), which is
    negative for N = 1, s > 3/2 (alpha + beta + 1 = b < 0); the j = 0 form
    Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+2) has no such factor.
    """
    c = a1 + b1
    if j == 0:
        return float((c - 1.0) * _LN2 + gammaln(a1) + gammaln(b1) - gammaln(c))
    return float((c - 1.0) * _LN2 - math.log((2 * j - 1) + c) + gammaln(j + a1)
                 + gammaln(j + b1) - gammaln((j - 1) + c) - gammaln(j + 1.0))


def polynomial_mode(params: WeightParams, sigma: int, k: int | None = None) -> SpectralMode:
    """Exact eigenmode of degree sigma in sector k, in closed form.

    For N >= 2 the sectors are k = sigma, sigma - 2, ..., >= 0 (default
    sigma mod 2) and the profile is A sin^k(psi) P_j^{(alpha,beta)}(cos 2 psi)
    with sigma = k + 2j, alpha = k + (N-2)/2 and beta = (b-1)/2; substituting
    x = cos 2 psi turns the bare norm into A^2 2^{-alpha-beta-2} h_j.  For
    N = 1 there is the one sector k = 0 and the profile is
    A P_sigma^{(beta,beta)}(cos phi), with bare norm A^2 h_sigma.  A
    normalizes the mode and orients it positive at the equator; derivatives
    use d/dx P_j^{(alpha,beta)} = (j+alpha+beta+1)/2 P_{j-1}^{(alpha+1,beta+1)}.
    """
    N = params.N
    if isinstance(sigma, bool) or not isinstance(sigma, (int, np.integer)) or sigma < 0:
        raise DomainError(f"sigma must be a non-negative integer, got {sigma!r}")
    sigma = int(sigma)
    k_eff = (0 if N == 1 else sigma % 2) if k is None else k
    if (isinstance(k_eff, bool) or not isinstance(k_eff, (int, np.integer))
            or not 0 <= k_eff <= sigma or (N == 1 and k_eff != 0)
            or (N >= 2 and (sigma - k_eff) % 2)):
        raise DomainError(f"no mode of degree sigma={sigma} in sector k={k} at N={N}")
    k_eff = int(k_eff)
    b1 = 0.5 * (params.b + 1.0)          # beta + 1
    if N == 1:
        j, a1, log_norm2, sign = sigma, b1, _log_jacobi_norm2(sigma, b1, b1), 1.0
    else:
        j = (sigma - k_eff) // 2
        a1 = k_eff + 0.5 * N             # alpha + 1
        log_norm2 = _log_jacobi_norm2(j, a1, b1) - (a1 + b1) * _LN2
        sign = -1.0 if j % 2 else 1.0    # P_j^{(alpha,beta)}(-1) has the sign (-1)^j
    A = sign * math.exp(-0.5 * log_norm2)
    dA = A * 0.5 * ((j - 1) + (a1 + b1))

    def djac(x):
        return dA * _jacobi(j - 1, a1 + 1.0, b1 + 1.0, x) if j else np.zeros_like(x)

    if N == 1:
        def fn(phi):
            return A * _jacobi(j, a1, b1, np.cos(phi))

        def dfn(phi):
            return -np.sin(phi) * djac(np.cos(phi))
    else:
        def fn(psi):
            return A * np.sin(psi) ** k_eff * _jacobi(j, a1, b1, np.cos(2.0 * psi))

        def dfn(psi):
            sin, x = np.sin(psi), np.cos(2.0 * psi)
            out = -2.0 * np.sin(2.0 * psi) * sin ** k_eff * djac(x)
            if k_eff:
                out += k_eff * sin ** (k_eff - 1) * np.cos(psi) * A * _jacobi(j, a1, b1, x)
            return out

    return SpectralMode(params=params, ell=sigma, k=k_eff, mu=exact_mu(params, sigma),
                        multiplicity=sigma_multiplicity(N, sigma),
                        profile=AngularProfile(exact=fn, exact_deriv=dfn))


def hemisphere_modes(params: WeightParams, count: int, k_max: int | None = None) -> list[SpectralMode]:
    """The first `count` closed-form modes, ordered by sigma, then by k.

    A synthesis spec's "l" is a position in this list.  With `k_max`, sectors
    k > k_max are left out; every mode still reports the full multiplicity
    M_sigma.  `count` lies in [1, MAX_MODES].
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) \
            or not 1 <= count <= MAX_MODES:
        raise InputError(f"mode count must be an integer in [1, {MAX_MODES}], got {count!r}")
    if k_max is not None and k_max < 0:
        raise InputError(f"k_max must be non-negative, got {k_max}")
    keys = ((sigma, k) for sigma in itertools.count()
            for k in ([0] if params.N == 1 else range(sigma % 2, sigma + 1, 2))
            if k_max is None or k <= k_max)
    return [polynomial_mode(params, sigma, k) for sigma, k in itertools.islice(keys, count)]
