"""Weighted Laplace-Beltrami eigenpairs on the half sphere and exponent maps.

The eigenproblem on S^N_+ with weight theta_{N+1}^b and weighted-Neumann
condition at the equator has the explicit spectrum mu = sigma (sigma + N +
b - 1), sigma = 0, 1, 2, ...: its eigenfunctions are the h-harmonics for the
weight |t|^b (Dunkl & Xu, Orthogonal Polynomials of Several Variables,
ch. 7).  For N >= 2 they separate into azimuthal sectors k = sigma,
sigma - 2, ..., >= 0, with angular profile sin^k(psi) P_j^{(k+(N-2)/2,
(b-1)/2)}(cos 2 psi), sigma = k + 2j; N = 1 has one sector on the arc (0, pi),
labelled k = 0, whose profile is the same at psi = pi/2 - phi in sector sigma
mod 2 (the quadratic transformation of P_sigma^{(a,a)}(cos phi), a = (b-1)/2,
DLMF 18.7.13-14).  `polynomial_mode` builds one such mode with its exact norm
(DLMF Table 18.3.1) and derivative, and `hemisphere_modes` lists them in
(sigma, k) order; this is the production eigenbasis of the command line.

`hemisphere_eigs` is the independent numerical cross-check.  For wavenumber
k >= 1 the angular profile factors as P = sin^k(psi) Q, which turns the
singular-potential reduction into a regular Sturm-Liouville problem for Q
with weight sin^{2k+N-1}(psi) cos^b(psi), natural boundary conditions at both
ends, and eigenvalue shift k (k + N + b - 1).  Each sector is discretized by
conservative (flux-form) second-order finite volumes on a uniform grid and
solved as a symmetric tridiagonal pencil by shifted inverse iteration from
the closed-form eigenvalues, each index certified by inertia
(`_lowest_eigenpairs`); cell masses integrate the degenerate factor in
closed form, so the weight is never evaluated at the equator.  N = 1 is
solved the same way: its even and odd functions are sectors 0 and 1,
mirrored onto the arc.  The sector spectra are those of the closed form, so
eigenpair j of sector k is named (sigma, k) = (k + 2j, k) before any
eigenvalue is compared.  Each sampled profile is normalized on the
Gauss-Jacobi rule `AngularGrid1D.gauss(N, b, DEFAULT_ANGULAR_NODES)`, the
rule family of every angular integral that later checks it.

The closed forms and the cross-check need numpy and `math` only: the sector
eigensolves and the splines run on `core._Tridiagonal`, which takes the
shifted pencil K - theta M as row excesses -theta m and face couplings.
The resonance constant K of a separable term belongs to its radial model and is formed in
`synthesis`, at the exponent itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ANGULAR_NODES,
    AngularGrid1D,
    DomainError,
    InputError,
    ResolutionError,
    SolverError,
    WeightParams,
    _LN2,
    _CubicSpline,
    _Tridiagonal,
    _count,
    _log_gamma_ratio,
    _number,
    _power_fit,
    _sinc_ratio,
    unit_sphere_area,
)

# Longest closed-form mode list (and so the largest spec position + 1): the
# profiles stay orthonormal to ~1e-12 at this degree.  `cylinder_spectrum`
# takes the same cap.
MAX_MODES = 512
# Most unknowns per_k x resolution x 2^refinements of one sector's batched
# eigensolve in `hemisphere_eigs`: at the cap one sector took 0.35-0.6 s and
# a peak of 175-190 MiB (2 cores, per_k from 4 to 128).
MAX_SECTOR_UNKNOWNS = 2 ** 20
# `_lowest_eigenpairs`: the residual it iterates to, in units of eps ||A||, and
# its cap on inverse-iteration steps per start.
_RESIDUAL_EPS = 16.0
_MAX_ITERATIONS = 8


def sigma_exponents(params: WeightParams, mu: float) -> tuple[float, float]:
    """Characteristic exponents, the two roots of sigma (sigma + N + b - 1) = mu.

    A finite mu >= -1e-9 is accepted; a negative one (roundoff) is read as 0."""
    mu = max(_number(mu, "eigenvalue mu", -1e-9, ends="[)"), 0.0)
    half = 0.5 * (params.N + params.b - 1.0)
    root = math.sqrt(half * half + mu)
    return -half + root, -half - root


def sphere_harmonic_value(N: int, k: int, chi=0.0):
    """Value at meridian angle chi of the normalized representative harmonic.

    The representative of the degree-k space on S^{N-1} is the zonal harmonic
    with axis e_1; chi is the angle from that axis.  For N = 1 there is no
    horizontal sphere and the factor is 1.  For N >= 3 it is the Jacobi
    polynomial P_k^{(a, a)}(cos chi), a = (N-3)/2, over the square root of
    |S^{N-2}| h_k.
    """
    if N == 1:
        return np.ones_like(np.asarray(chi, dtype=float)) if np.ndim(chi) else 1.0
    x = np.cos(np.asarray(chi, dtype=float))
    if N == 2:
        norm = 1.0 / math.sqrt(2.0 * math.pi) if k == 0 else 1.0 / math.sqrt(math.pi)
        val = norm * (np.ones_like(x) if k == 0 else np.cos(k * np.asarray(chi, dtype=float)))
    else:
        # C_k^lam, lam = (N-2)/2, is a positive multiple of P_k^{(lam-1/2, lam-1/2)}
        # (both positive at x = 1), and the normalization is scale-free
        a1 = 0.5 * (N - 1)
        val = _jacobi(k, a1, a1, x) / math.sqrt(
            unit_sphere_area(N - 2) * math.exp(_log_jacobi_norm2(k, a1, a1)))
    return float(val) if np.ndim(chi) == 0 else val


class AngularProfile:
    """Angular eigenfunction profile on the polar interval: P and P' as callables.

    A closed-form mode passes its Jacobi form and derivative; a finite-volume
    mode passes its normalized cubic spline.  The samples on a Gauss rule
    are kept once made (`_on_gauss`), so repeated angular integrals cost no
    evaluation.
    """

    def __init__(self, value, deriv):
        self._value = value
        self._deriv = deriv
        self._gauss_samples: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, psi):
        return self._value(np.asarray(psi, dtype=float))

    def deriv(self, psi):
        return self._deriv(np.asarray(psi, dtype=float))

    def _on_gauss(self, N: int, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(P, P') on the nodes of `AngularGrid1D.gauss(N, b, n)`, sampled once (read-only)."""
        key = (N, b, n)
        cached = self._gauss_samples.get(key)
        if cached is None:
            nodes = AngularGrid1D.gauss(N, b, n).nodes
            cached = (np.array(self(nodes), dtype=float), np.array(self.deriv(nodes), dtype=float))
            for arr in cached:
                arr.flags.writeable = False
            self._gauss_samples[key] = cached
        return cached


@dataclass(frozen=True)
class SpectralMode:
    """One hemisphere eigenpair: degree, sector, eigenvalue, exponent and profile.

    Closed-form and finite-volume modes alike: `ell` is the degree sigma and
    `k` the azimuthal sector (sigma = k + 2j; k = 0 for N = 1), and
    `multiplicity` is the full M_sigma of the degree, over all its sectors.
    `sigma_plus` is exact for a closed-form mode and the larger root for the
    computed mu of a finite-volume one; `sigma_minus` is the other root,
    1 - N - b - sigma_plus.  The profile is normalized so that
    P(psi) * Omega(w) has unit theta^b-weighted L^2 norm on S^N_+, with Omega
    the normalized representative harmonic of the sector.
    """

    params: WeightParams
    ell: int
    k: int
    mu: float
    multiplicity: int
    profile: AngularProfile
    sigma_plus: float

    @property
    def sigma_minus(self) -> float:
        return 1.0 - self.params.N - self.params.b - self.sigma_plus

    def equator_value(self) -> float:
        psi_eq = math.pi / 2.0 if self.params.N >= 2 else 0.0
        return float(self.profile(psi_eq))


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


def _sector_tridiag(params: WeightParams, k: int, n: int):
    """Masses, face coefficients and centers for one azimuthal sector on (0, pi/2)."""
    N, b = params.N, params.b
    M = 2 * k + N - 1
    L = math.pi / 2.0
    faces = np.linspace(0.0, L, n + 1)
    lo, hi = faces[:-1], faces[1:]
    # u = pi/2 - psi: weight sin^M(psi) cos^b(psi) = u^b (sinc u)^b cos^M(u)
    masses = _cell_masses(b, L - hi, L - lo, lambda u: _sinc_ratio(u) ** b * np.cos(u) ** M)
    coeffs = np.zeros(n + 1)
    interior = faces[1:-1]
    coeffs[1:-1] = np.sin(interior) ** M * np.cos(interior) ** b
    return masses, coeffs, 0.5 * (lo + hi)


def _sector_eigs(params: WeightParams, k: int, n: int, count: int):
    """Lowest eigenpairs of one sector at resolution n (cell-centered FV).

    The sector's pencil K q = lambda M q, with K the path Laplacian of the
    face coefficients and M the cell masses, goes to `_lowest_eigenpairs`
    with the closed-form eigenvalues of the sector as its guesses: eigenpair
    j is the mode of degree k + 2j.
    """
    masses, coeffs, centers = _sector_tridiag(params, k, n)
    if not (np.all(np.isfinite(masses)) and np.all(masses > 0)):
        # the weight sin^{2k+N-1}(psi) drives the masses next to the pole
        # below the floating-point range for high sectors
        raise ResolutionError(
            f"sector k = {k} at resolution {n}: cell masses underflow; "
            f"ask for fewer sectors (a lower l or k_max)"
        )
    shift = k * (k + params.N + params.b - 1.0)
    guesses = np.array([exact_mu(params, k + 2 * j) - shift for j in range(count + 1)])
    h = centers[1] - centers[0]
    vals, q = _lowest_eigenpairs(coeffs[1:-1] / h, masses, guesses)
    return vals + shift, q.T, masses, centers


def _lowest_eigenpairs(couplings: np.ndarray, masses: np.ndarray, guesses: np.ndarray):
    """The len(guesses) - 1 lowest eigenpairs of K q = lambda M q, certified by inertia.

    K is the path Laplacian of `couplings` (K q at i is the flux difference
    of c (q_{i+1} - q_i)) and M = diag(masses); guesses[j] approximates
    eigenvalue j, and guesses[-1] lies above the last one wanted.  The
    eigenvectors come back as M-orthonormal rows q, and each eigenvalue as
    the energy quotient sum c (q_{i+1} - q_i)^2 / sum m q^2, a ratio of sums
    of nonnegative terms, so the constants' 0 comes out as roundoff squared.

    Shifted inverse iteration on `core._Tridiagonal` factors K - theta M
    (row excesses -theta m, couplings c) from theta = the guesses, then goes
    on with Rayleigh-quotient shifts until every residual is at most
    _RESIDUAL_EPS eps ||A|| (A = M^-1/2 K M^-1/2, the residual measured in
    A's norm; ||A|| by Gershgorin).  The
    indices are then certified by Sylvester's law, as K - x M is congruent
    to A - x: at the midpoint between eigenvalues j and j + 1 (between the
    last and guesses[-1]) it has j + 1 negative pivots, and each residual is
    below half its gaps, so eigenvalue j lies within its residual of the
    j-th quotient (Parlett, The Symmetric Eigenvalue Problem, 3.3 and
    ch. 4).  If that fails, inertia bisection brackets eigenvalues 0 to
    len(guesses) - 1 from the Gershgorin interval, and the iteration runs
    again from the brackets, the last bracket's floor in place of
    guesses[-1]; a pair still not certified raises `SolverError`.  Factored
    in this form, not in A's, and from excesses, not from a diagonal
    c_l + c_r - theta m, the solve cancels nothing: one step at a computed
    pair lands within a few eps of the pencil's eigenvector, so the residual
    rule sets the vectors' error (at 8192 cells and s = 1.99, 5e-15 against
    a 30-digit solve; from a diagonal 2e-11, LAPACK's 2e-10).
    """
    count = guesses.size - 1
    root = np.sqrt(masses)
    off = couplings / (root[:-1] * root[1:])
    degree = np.append(0.0, couplings) + np.append(couplings, 0.0)      # K's diagonal
    norm = float(np.max(degree / masses + np.append(0.0, off) + np.append(off, 0.0)))
    tol = _RESIDUAL_EPS * np.finfo(float).eps * norm

    def quotients(q):
        flux = couplings * np.diff(q, axis=1)
        kq = np.zeros_like(q)
        kq[:, :-1] -= flux
        kq[:, 1:] += flux
        theta = np.einsum("ij,ij->i", flux, np.diff(q, axis=1))
        return theta, np.linalg.norm((kq - theta[:, None] * masses * q) / root, axis=1)

    # a fixed start with no symmetry, so no eigenvector is missing from it
    start = np.random.default_rng(0).uniform(-1.0, 1.0, masses.size) / root

    def iterate(theta):
        q = np.tile(start, (count, 1))
        for _ in range(_MAX_ITERATIONS):
            q = _Tridiagonal(-theta[:, None] * masses, couplings, couplings).solve(masses * q)
            q /= np.sqrt(q ** 2 @ masses)[:, None]
            theta, res = quotients(q)
            if np.all(res <= tol):
                break
        return q, theta, res

    def certified(theta, res, top):
        tops = np.append(theta[1:], top)
        mids = 0.5 * (theta + tops)
        negatives = _Tridiagonal(-mids[:, None] * masses, couplings, couplings).negatives
        gaps = np.minimum(tops - theta, np.append(np.inf, np.diff(theta)))
        return (np.array_equal(negatives, np.arange(1, count + 1))
                and bool(np.all(res <= tol)) and bool(np.all(2.0 * res < gaps)))

    q, theta, res = iterate(guesses[:-1])
    if certified(theta, res, guesses[-1]):
        return theta, q
    # bracket eigenvalues 0 .. count; the last bracket's floor replaces guesses[-1]
    lo, hi = np.zeros(count + 1), np.full(count + 1, norm)
    index = np.arange(count + 1)
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        below = _Tridiagonal(-mid[:, None] * masses, couplings, couplings).negatives <= index
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    q, theta, res = iterate(0.5 * (lo + hi)[:-1])
    if certified(theta, res, lo[-1]):
        return theta, q
    raise SolverError(
        f"inverse iteration did not certify the {count} lowest eigenpairs "
        f"(residuals up to {float(np.max(res)):.3g} against {tol:.3g})"
    )


def hemisphere_eigs(
    params: WeightParams,
    k_max: int = 4,
    per_k: int = 6,
    resolution: int = 512,
    refinements: int = 1,
) -> list[SpectralMode]:
    """Lowest eigenmodes by finite volumes, named (sigma, k): the cross-check.

    Each sector is solved on `resolution` cells of (0, pi/2) times 2^j for
    j = 0..refinements; an eigenvalue is the value at h = 0 of the fit of its
    levels on h^{0, 2, ..., 2 refinements}, h = 2^-j (`core._power_fit`, as
    repeated Richardson extrapolation would give);
    per_k x resolution x 2^refinements above MAX_SECTOR_UNKNOWNS is refused
    with `DomainError` before any solve.
    Eigenpair j of sector k is the mode of degree sigma = k + 2j, so each
    mode carries ell = sigma and the full multiplicity M_sigma, and the list
    is in (sigma, k) order as in `hemisphere_modes`, whatever the roundoff in
    mu.  N >= 2 solves per_k eigenpairs in each sector k <= k_max.  For N = 1
    the horizontal sphere S^0 = {-1, 1} has the even and the odd sector,
    k = 0 and 1, which share the per_k degrees sigma = 0 .. per_k - 1 (the
    even one takes the larger half); their modes are labelled k = 0 and live
    on the arc phi = pi/2 -/+ psi, where an odd sector's samples change sign.
    Each profile is the cubic spline of the finest grid's samples (constant
    samples for sigma = 0, sector 0's discrete kernel), normalized on
    `AngularGrid1D.gauss(N, b, DEFAULT_ANGULAR_NODES)` and positive at the
    equator.
    """
    resolution, per_k = _count(resolution, "resolution", 0), _count(per_k, "per_k")
    k_max, refinements = _count(k_max, "k_max", 0), _count(refinements, "refinements", 0)
    if per_k * resolution << min(refinements, 64) > MAX_SECTOR_UNKNOWNS:
        raise DomainError(
            f"per_k x resolution x 2^refinements = {per_k} x {resolution} x 2^{refinements} "
            f"unknowns per sector is above the cap MAX_SECTOR_UNKNOWNS = {MAX_SECTOR_UNKNOWNS}"
        )
    if resolution < 64:
        raise ResolutionError(
            f"resolution {resolution} too low; use at least 64 (and >= 8*per_k)"
        )
    if per_k > resolution // 8:
        raise ResolutionError(
            f"resolution {resolution} too low for {per_k} eigenvalues per sector; "
            f"try resolution >= {8 * per_k}"
        )
    N = params.N
    grid = AngularGrid1D.gauss(N, params.b, DEFAULT_ANGULAR_NODES)
    psi_eq = math.pi / 2.0 if N >= 2 else 0.0
    counts = [(per_k + 1) // 2, per_k // 2] if N == 1 else [per_k] * (k_max + 1)

    modes = []
    for k, count in enumerate(counts):
        if not count:
            continue
        levels = [_sector_eigs(params, k, resolution * 2 ** j, count)
                  for j in range(refinements + 1)]
        powers = np.arange(refinements + 1)
        mus = _power_fit(0.5 ** powers, np.array([lv[0] for lv in levels]), 2.0 * powers)[0][0]
        _, qvecs, _, centers = levels[-1]
        samples = np.sin(centers)[:, None] ** k * qvecs
        if N == 1:
            centers = np.concatenate([math.pi / 2.0 - centers[::-1], math.pi / 2.0 + centers])
            samples = np.concatenate([samples[::-1], (-1.0) ** k * samples])
        if k == 0:      # the constants: sector 0's discrete kernel (below)
            samples[:, 0] = 1.0
        splines = _CubicSpline(centers, samples.T)
        for j, mu in enumerate(mus):
            sigma = k + 2 * j
            # the constants span sector 0's discrete kernel: the solver's mu
            # and samples for them carry roundoff, so the mode is built exact
            # (samples set to 1 above), with a slope of exactly 0
            mu = 0.0 if sigma == 0 else float(mu)
            spline = splines[j]
            # normalize on the Gauss-Jacobi rule and orient at the equator; a
            # piecewise polynomial scales with its coefficients
            sign = 1.0 if spline(psi_eq) >= 0 else -1.0
            spline.c *= sign / math.sqrt(grid.integrate_bare(spline(grid.nodes) ** 2))
            modes.append(SpectralMode(
                params=params, ell=sigma, k=0 if N == 1 else k, mu=mu,
                multiplicity=sigma_multiplicity(N, sigma),
                profile=AngularProfile(spline, functools.partial(spline, nu=1)),
                sigma_plus=sigma_exponents(params, mu)[0]))
    return sorted(modes, key=lambda m: (m.ell, m.k))


def exact_mu(params: WeightParams, sigma: int) -> float:
    """Eigenvalue mu_sigma = sigma (sigma + N + b - 1) of the degree-sigma modes."""
    return 0.0 if sigma == 0 else sigma * (sigma + params.N + params.b - 1.0)


def _exact_sigma_plus(params: WeightParams, sigma: int) -> float:
    """sigma_plus of the degree-sigma modes without a square root: max(sigma, 1 - N - b - sigma)."""
    return max(float(sigma), 1.0 - params.N - params.b - sigma)


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
    part to them last: near s = 2, b1 = (b+1)/2 is ~1e-16 (the modes take a1
    = k + N/2, so k + 1/2 at N = 1), and forming it as (b-1)/2 + 1, or a
    factor 2m + alpha + beta - 2 as (2m + alpha + beta) - 2, would lose it.
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
    negative at N = 1, even degree, s > 3/2 (a1 = 1/2: alpha + beta + 1 = b/2 < 0);
    the j = 0 form Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+2) has none.
    The Gammas enter as two ratios of arguments one apart at most in
    degree, so neither overflows before its arguments do, and each ratio is
    given its exact argument difference, a1 - 1 or 1 - a1, so rounding j + b1
    costs no digits at high degree.
    """
    c = a1 + b1
    if j == 0:
        return (c - 1.0) * _LN2 + _log_gamma_ratio(a1, 1.0) + _log_gamma_ratio(b1, c)
    return ((c - 1.0) * _LN2 - math.log((2 * j - 1) + c)
            + _log_gamma_ratio(j + a1, j + 1.0, a1 - 1.0)
            + _log_gamma_ratio(j + b1, (j - 1) + c, 1.0 - a1))


def polynomial_mode(params: WeightParams, sigma: int, k: int | None = None) -> SpectralMode:
    """Exact eigenmode of degree sigma in sector k (default sigma mod 2), in closed form.

    The profile is A sin^k(psi) P_j^{(alpha,beta)}(cos 2 psi), sigma = k + 2j,
    alpha = k + (N-2)/2, beta = (b-1)/2: x = cos 2 psi turns the bare norm on
    (0, pi/2) into A^2 2^{-alpha-beta-2} h_j.  The one sector of N = 1,
    labelled k = 0, takes it at psi = pi/2 - phi with k = sigma mod 2 over two
    quarter arcs.  A normalizes the mode and orients it positive at the
    equator; d/dx P_j^{(alpha,beta)} = (j+alpha+beta+1)/2 P_{j-1}^{(alpha+1,beta+1)}.
    """
    N, sigma = params.N, _count(sigma, "sigma", 0)
    sectors = [0] if N == 1 else range(sigma % 2, sigma + 1, 2)
    label = sectors[0] if k is None else _count(k, "sector k", 0)
    if label not in sectors:
        raise DomainError(f"no mode of degree sigma={sigma} in sector k={k} at N={N}")
    # N = 1 takes sector sigma mod 2 over two quarter arcs in psi = pi/2 - phi: sin psi =
    # cos phi, cos psi = sin phi, cos 2 psi = -cos 2 phi, sin 2 psi = sin 2 phi, d/dphi = -d/dpsi
    kt, turn, arcs, sin_psi, cos_psi = ((sigma % 2, -1.0, 2.0, np.cos, np.sin) if N == 1
                                        else (int(label), 1.0, 1.0, np.sin, np.cos))
    j = (sigma - kt) // 2
    a1, b1 = kt + 0.5 * N, 0.5 * (params.b + 1.0)    # alpha + 1, beta + 1
    log_norm2 = _log_jacobi_norm2(j, a1, b1) - (a1 + b1) * _LN2 + math.log(arcs)
    # P_j^{(alpha,beta)}(-1) has the sign (-1)^j, and the equator is x = -1
    A = (-1.0 if j % 2 else 1.0) * math.exp(-0.5 * log_norm2)
    dA = A * 0.5 * ((j - 1) + (a1 + b1))

    def fn(angle):
        return A * sin_psi(angle) ** kt * _jacobi(j, a1, b1, turn * np.cos(2.0 * angle))

    def dfn(angle):
        sin, x = sin_psi(angle), turn * np.cos(2.0 * angle)
        out = -2.0 * np.sin(2.0 * angle) * sin ** kt * (
            dA * _jacobi(j - 1, a1 + 1.0, b1 + 1.0, x) if j else np.zeros_like(x))
        if kt:
            out += kt * sin ** (kt - 1) * cos_psi(angle) * A * _jacobi(j, a1, b1, x)
        return turn * out

    return SpectralMode(params=params, ell=sigma, k=int(label), mu=exact_mu(params, sigma),
                        multiplicity=sigma_multiplicity(N, sigma),
                        profile=AngularProfile(fn, dfn),
                        sigma_plus=_exact_sigma_plus(params, sigma))


def hemisphere_modes(params: WeightParams, count: int, k_max: int | None = None) -> list[SpectralMode]:
    """The first `count` closed-form modes, ordered by sigma, then by k.

    A synthesis spec's "l" is a position in this list.  With `k_max`, sectors
    k > k_max are left out; every mode still reports the full multiplicity
    M_sigma.  `count` lies in [1, MAX_MODES].
    """
    count = _count(count, "mode count", 1, MAX_MODES, error=InputError)
    if k_max is not None:   # a position into the mode list, so InputError as the count
        k_max = _count(k_max, "k_max", 0, error=InputError)
    keys = ((sigma, k) for sigma in itertools.count()
            for k in ([0] if params.N == 1 else range(sigma % 2, sigma + 1, 2))
            if k_max is None or k <= k_max)
    return [polynomial_mode(params, sigma, k) for sigma, k in itertools.islice(keys, count)]
