"""Weighted Laplace-Beltrami eigenpairs on the half sphere and exponent maps.

The eigenproblem on S^N_+ with weight theta_{N+1}^b and weighted-Neumann
condition at the equator separates into azimuthal sectors.  For wavenumber
k >= 1 the angular profile factors as P = sin^k(psi) Q, which turns the
singular-potential reduction into a regular Sturm-Liouville problem for Q
with weight sin^{2k+N-1}(psi) cos^b(psi), natural boundary conditions at both
ends, and eigenvalue shift k (k + N + b - 1).  Each sector is discretized by
conservative (flux-form) second-order finite volumes on a uniform grid and
solved as a symmetric tridiagonal eigenproblem (bisection + inverse
iteration); cell masses integrate the degenerate factor in closed form, so
the weight is never evaluated at the equator.

For N = 1 the problem lives on the full arc (0, pi) with weight sin^b and
weighted-Neumann conditions at both endpoints.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_gegenbauer, gammaln

from .core import (
    AngularGrid1D,
    DegenerateResonanceError,
    DomainError,
    ResolutionError,
    WeightParams,
    unit_sphere_area,
    weighted_angular_moment,
)

MERGE_RTOL = 1e-8


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
    """Sampled (or exact) angular eigenfunction profile on the polar interval."""

    def __init__(self, psi, values, *, exact=None, exact_deriv=None,
                 solver_centers=None, solver_q=None, solver_masses=None):
        self.psi = np.asarray(psi, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.exact = exact
        self.exact_deriv = exact_deriv
        self.solver_centers = solver_centers
        self.solver_q = solver_q
        self.solver_masses = solver_masses
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
        ex = self.exact
        exd = self.exact_deriv
        return AngularProfile(
            self.psi, self.values * factor,
            exact=None if ex is None else (lambda p, f=factor, g=ex: f * g(p)),
            exact_deriv=None if exd is None else (lambda p, f=factor, g=exd: f * g(p)),
            solver_centers=self.solver_centers,
            solver_q=None if self.solver_q is None else self.solver_q * factor,
            solver_masses=self.solver_masses,
        )


@dataclass(frozen=True)
class SpectralMode:
    """One hemisphere eigenpair: eigenvalue, exponents and angular profile.

    `ell` is the position of the eigenvalue among the distinct merged
    eigenvalues; `multiplicity` is the total M_ell of that eigenvalue
    (harmonic dimensions summed over numerically coincident sectors).  The
    profile is normalized so that the full eigenfunction P(psi) * Omega(w)
    has unit theta^b-weighted L^2 norm on S^N_+, with Omega the normalized
    representative harmonic of the sector.
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
    pair = masses[:-1] * masses[1:]
    if not (np.all(np.isfinite(masses)) and np.all(masses > 0) and np.all(pair > 0)):
        # the weight sin^{2k+N-1}(psi) drives the masses next to the pole
        # below the floating-point range for high sectors
        raise ResolutionError(
            f"sector k = {k} at resolution {n}: cell masses underflow; "
            f"ask for fewer sectors (a lower l or k_max)"
        )
    h = centers[1] - centers[0]
    a = coeffs / h
    diag = (a[:-1] + a[1:]) / masses
    off = -a[1:-1] / np.sqrt(pair)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    q = vecs / np.sqrt(masses)[:, None]
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


def _default_workers() -> int:
    env = os.environ.get("ALMGREN_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


def hemisphere_eigs(
    params: WeightParams,
    k_max: int = 4,
    per_k: int = 6,
    resolution: int = 512,
    refinements: int = 1,
    normalization_grid: AngularGrid1D | None = None,
) -> list[SpectralMode]:
    """Lowest eigenmodes of the weighted hemisphere problem, merged and ordered.

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

    def solve_sector(k):
        levels = [_sector_eigs(params, k, n, per_k) for n in resolutions]
        mus = _richardson([lv[0] for lv in levels])
        _, qvecs, masses, centers = levels[-1]
        return k, mus, qvecs, masses, centers

    if len(sectors) > 1:
        with ThreadPoolExecutor(max_workers=_default_workers()) as pool:
            results = list(pool.map(solve_sector, sectors))
    else:
        results = [solve_sector(sectors[0])]

    entries = []
    for k, mus, qvecs, masses, centers in results:
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


def _angular_norm_factors(params: WeightParams):
    """Closed-form moments used to normalize the polynomial modes."""
    N, b = params.N, params.b
    I = weighted_angular_moment
    if N == 1:
        return {
            0: 2.0 * I(b, 0),
            1: 2.0 * I(b, 2),
            2: 2.0 * (I(b, 4) - 2.0 / (1 + b) * I(b + 2, 2)
                      + 1.0 / (1 + b) ** 2 * I(b + 4, 0)),
        }
    return {
        0: I(N - 1, b),
        1: I(N + 1, b),
        2: (I(N + 3, b) / N ** 2 - 2.0 / (N * (1 + b)) * I(N + 1, b + 2)
            + I(N - 1, b + 4) / (1 + b) ** 2),
        "2k": I(N + 3, b),
    }


def polynomial_mode(params: WeightParams, sigma: int, k: int | None = None) -> SpectralMode:
    """Exact eigenmode built from a degree-sigma harmonic polynomial.

    Available anchors: sigma = 0 (constants), sigma = 1 (the coordinate x_i,
    wavenumber 1), sigma = 2 with k = 0 (|x|^2/N - t^2/(1+b)) and, for N >= 2,
    sigma = 2 with k = 2 (x_i x_j).  Profiles and derivatives are closed form,
    normalized with exact Beta-function moments.
    """
    N, b = params.N, params.b
    mu = sigma * (sigma + N + b - 1.0)
    norms = _angular_norm_factors(params)
    if N == 1:
        builders = {
            (0, 0): (lambda p: np.ones_like(p), lambda p: np.zeros_like(p), norms[0]),
            (1, 0): (np.cos, lambda p: -np.sin(p), norms[1]),
            (2, 0): (lambda p: np.cos(p) ** 2 - np.sin(p) ** 2 / (1 + b),
                     lambda p: -2 * np.cos(p) * np.sin(p) * (1 + 1.0 / (1 + b)),
                     norms[2]),
        }
        key = (sigma, 0)
        k_eff = 0
    else:
        default_k = {0: 0, 1: 1, 2: 0}
        k_eff = default_k[sigma] if k is None else k
        builders = {
            (0, 0): (lambda p: np.ones_like(p), lambda p: np.zeros_like(p), norms[0]),
            (1, 1): (np.sin, np.cos, norms[1]),
            (2, 0): (lambda p: np.sin(p) ** 2 / N - np.cos(p) ** 2 / (1 + b),
                     lambda p: 2 * np.sin(p) * np.cos(p) * (1.0 / N + 1.0 / (1 + b)),
                     norms[2]),
            (2, 2): (lambda p: np.sin(p) ** 2,
                     lambda p: 2 * np.sin(p) * np.cos(p), norms["2k"]),
        }
        key = (sigma, k_eff)
    if key not in builders:
        raise DomainError(f"no closed-form mode for sigma={sigma}, k={k} at N={N}")
    fn, dfn, norm2 = builders[key]
    A = 1.0 / math.sqrt(norm2)
    psi_max = math.pi if N == 1 else math.pi / 2.0
    psi = np.linspace(0.0, psi_max, 257)
    prof = AngularProfile(psi, A * fn(psi),
                          exact=lambda p, f=fn, A=A: A * f(np.asarray(p, dtype=float)),
                          exact_deriv=lambda p, f=dfn, A=A: A * f(np.asarray(p, dtype=float)))
    return SpectralMode(params=params, ell=sigma, k=k_eff, mu=mu,
                        multiplicity=harmonic_multiplicity(N, k_eff), profile=prof)
