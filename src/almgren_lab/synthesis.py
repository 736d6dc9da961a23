"""Exact separable solutions of the extended system and the blow-up fitter.

A synthesized solution is a finite sum of terms built on hemisphere modes.
The extended problem is the pair D_b U = V, D_b V = 0, and a mode with
exponent sigma = sigma_plus and eigenvalue mu solves it with the radial parts

    phi(r)  = c1 r^sigma + e r^{sigma+2},      phi~(r) = d1 r^sigma,

e = d1 / K, where the resonance constant

    K(sigma) = (sigma+2)(sigma+1) + (N+b)(sigma+2) - sigma (sigma+N+b-1)
             = 2 (2 sigma + N + b + 1) >= 2

is formed in its short form at the exponent itself.  This module is the one
home of that model: `SeparableSolution.coefs` is the table of (sigma, c1, e,
d1) rows of a synthesis, which the Almgren machinery and the Fourier
coefficients read and `_radial_parts` evaluates for the point evaluator
(`_point_values` on points); the blow-up fitter takes K at each candidate
exponent.  A solution also keeps, from their first use, the
tables of its later calls that do not depend on the radius
(`SeparableSolution._table`): the Almgren plans and, per mode, the Fourier
projections (`_projection`).  The blow-up fit of phi is one `core._power_fit`
on two powers for every candidate at once.  The angular factor is the mode
profile times the normalized representative harmonic of its sector, so modes
are orthonormal on the weighted half sphere and all quadratic functionals decouple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    AngularGrid1D,
    ClassificationError,
    DomainError,
    InputError,
    WeightParams,
    _LOG_RANGE,
    _finite,
    _instance,
    _number,
    _power_fit,
    _radius,
)
from .hemisphere import SpectralMode, sigma_exponents, sphere_harmonic_value

# Angular Gauss nodes beyond the largest degree, for the pair integrals of
# the Almgren quadrature path and the Fourier coefficients (no radial rule
# reads it: the radial integrals are power laws, taken in closed form).
# Products of two modes of degree <= sigma are trigonometric polynomials of
# degree <= 2 sigma in the polar angle; 10 + sigma angular nodes reach 1e-13
# for sigma <= 24, and 0.8 sigma + 20 beyond (measured at N = 1..6).
GAUSS_MARGIN = 16


def gauss_nodes(sigma: float) -> int:
    """Angular Gauss nodes that resolve pair integrals of modes up to degree sigma."""
    return GAUSS_MARGIN + math.ceil(sigma)


def _resonance(params: WeightParams, sigma):
    """K = 2 (2 sigma + N + b + 1) at the exponent sigma (a number or an array)."""
    return 2.0 * (2.0 * sigma + params.N + params.b + 1.0)


def k_constant(params: WeightParams, mode) -> float:
    """Resonance constant K at sigma_plus of a mode, or of an eigenvalue mu."""
    if isinstance(mode, SpectralMode):
        return _resonance(params, mode.sigma_plus)
    return _resonance(params, sigma_exponents(params, mode)[0])


def _radial_parts(coefs, r):
    """phi, phi', phi~, phi~' of the rows (sigma, c1, e, d1), broadcast against r (r >= 0)."""
    s, c1, e, d1 = coefs
    rs = r ** s
    ds = s * r ** np.where(s == 0.0, 0.0, s - 1.0)     # (r^0)' = 0 at r = 0 too
    return (c1 * rs + e * r ** (s + 2.0), c1 * ds + e * (s + 2.0) * r ** (s + 1.0),
            d1 * rs, d1 * ds)


@dataclass(frozen=True)
class Term:
    """One separable building block (mode, c1, d1); sigma, K and e are kept on first use."""

    mode: SpectralMode
    c1: float
    d1: float

    @cached_property
    def sigma(self) -> float:
        return self.mode.sigma_plus

    @cached_property
    def K(self) -> float:
        return _resonance(self.mode.params, self.sigma)

    @cached_property
    def e(self) -> float:
        """Coefficient of the r^{sigma+2} correction in the U radial part."""
        return self.d1 / self.K if self.d1 != 0.0 else 0.0


@dataclass(frozen=True)
class SeparableSolution:
    """Finite list of separable terms, evaluable for radii up to R = params.R."""

    params: WeightParams
    terms: tuple[Term, ...]

    @property
    def R(self) -> float:
        return self.params.R

    @cached_property
    def coefs(self) -> np.ndarray:
        """Read-only rows (sigma, c1, e, d1), one column per term."""
        table = np.array([(t.sigma, t.c1, t.e, t.d1) for t in self.terms],
                         dtype=float).reshape(-1, 4).T
        table.flags.writeable = False
        return table

    @cached_property
    def _tables(self) -> dict:
        """The tables `_table` keeps, by key; they go with the solution."""
        return {}

    def _table(self, key, build):
        """The radius-independent table `key`, made by `build(self)` on first use and kept
        with the solution, as `coefs` is: the Almgren plans and the Fourier projections."""
        try:
            return self._tables[key]
        except KeyError:
            return self._tables.setdefault(key, build(self))


def synthesize(params: WeightParams, spec, modes=None) -> SeparableSolution:
    """Build an exact solution pair from (mode, c1, d1) triples.

    Entries may reference modes directly or by integer position into `modes`
    (as produced by `hemisphere_modes` or `hemisphere_eigs`).  Entries naming
    the same mode, (degree ell, sector k, eigenvalue mu), are merged by adding
    coefficients, so a finite-volume mode and the closed form of its (ell, k)
    stay two terms.  An entry that is not such a triple of a mode and two
    finite real numbers raises `InputError`; a synthesis whose coefficients
    all vanish raises `DomainError`, since the zero solution has no frequency.
    """
    resolved: dict[tuple, Term] = {}
    for entry in spec if isinstance(spec, (list, tuple)) else [spec]:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
            raise InputError(f"a synthesis entry is a triple (mode, c1, d1), got {entry!r}")
        mode, c1, d1 = entry
        c1, d1 = (_number(c, "coefficient", error=InputError) for c in (c1, d1))
        if isinstance(mode, (int, np.integer)):
            if modes is None:
                raise InputError("integer mode references require the modes list")
            if not 0 <= mode < len(modes):
                raise InputError(f"mode index {mode} is out of range for {len(modes)} modes")
            mode = modes[int(mode)]
        if not (isinstance(mode, SpectralMode) and mode.params == params):
            raise InputError("a synthesis entry's mode is not a mode of the synthesis parameters")
        key = (mode.ell, mode.k, mode.mu)
        if key in resolved:
            prev = resolved[key]
            resolved[key] = Term(mode=prev.mode, c1=prev.c1 + c1, d1=prev.d1 + d1)
        else:
            resolved[key] = Term(mode=mode, c1=c1, d1=d1)
    terms = tuple(sorted(resolved.values(), key=lambda t: (t.sigma, t.mode.k)))
    if all(t.c1 == 0.0 and t.d1 == 0.0 for t in terms):
        raise DomainError("all coefficients vanish: the zero solution has no frequency")
    return SeparableSolution(params=params, terms=terms)


@dataclass(frozen=True)
class EvalResult:
    U: float
    V: float
    grad_U: tuple[float, float]   # (d/dr, (1/r) d/dpsi)
    grad_V: tuple[float, float]


def _term_parts(sol: SeparableSolution, rho, angle, chi=0.0):
    """Per term: itself, its radial parts on rho, and (P, P') Omega on angle with Omega at chi."""
    rho, angle = np.asarray(rho, dtype=float), np.asarray(angle, dtype=float)
    radial = _radial_parts(sol.coefs.reshape(4, -1, *(1,) * rho.ndim), rho)
    for term, *parts in zip(sol.terms, *radial):
        omega = sphere_harmonic_value(sol.params.N, term.mode.k, chi)
        yield term, parts, term.mode.profile(angle) * omega, term.mode.profile.deriv(angle) * omega


def _point_values(sol: SeparableSolution, rho, angle, chi=0.0):
    """Rows (values, d/drho, d/dangle) of (U, V) on broadcast rho, angle and chi, unchecked:
    the sums over `_term_parts`; V stays the number 0.0 when every d1 is 0."""
    rows = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for term, (phi, dphi, phit, dphit), p, dp in _term_parts(sol, rho, angle, chi):
        for uv, (f, df) in enumerate([(phi, dphi), (phit, dphit)][:2 if term.d1 else 1]):
            rows[0][uv] = rows[0][uv] + f * p
            rows[1][uv] = rows[1][uv] + df * p
            rows[2][uv] = rows[2][uv] + f * dp
    return rows


def eval_solution(sol: SeparableSolution, r: float, psi: float, chi: float = 0.0) -> EvalResult:
    """(U, V) and their gradients (d/dr, (1/r) d/dpsi) at one point: `_point_values`, checked.

    The angles psi and chi lie in [-2 pi, 2 pi]."""
    sol = _instance(sol, SeparableSolution, "solution")
    r = _radius(r, at_most=sol.R, array=True)   # more than one radius fails the point's shape
    r = float(_finite([r, psi, chi], "point (r, psi, chi)", shape=(3,))[0])
    psi, chi = (_number(a, name, -2.0 * math.pi, 2.0 * math.pi, "[]")
                for a, name in ((psi, "angle psi"), (chi, "angle chi")))
    (U, V), (dUr, dVr), (dUp, dVp) = np.array(_point_values(sol, r, psi, chi), float).tolist()
    return EvalResult(U=U, V=V, grad_U=(dUr, dUp / r), grad_V=(dVr, dVp / r))


def _projection(sol: SeparableSolution, mode: SpectralMode) -> tuple[np.ndarray, np.ndarray]:
    """The (sigma, c1, e, d1) columns of the mode's block and their angular integrals g_i.

    g_i = int P_i P_mode on the Gauss-Jacobi grid of `gauss_nodes` of the
    largest degree among the mode and the block's terms, from the profiles'
    kept Gauss samples; both arrays are read-only.
    """
    block = [i for i, t in enumerate(sol.terms) if t.mode.k == mode.k]
    g = np.zeros(len(block))
    if block:
        N, b = sol.params.N, sol.params.b
        n = gauss_nodes(max(mode.sigma_plus, *(sol.terms[i].sigma for i in block)))
        P = np.array([sol.terms[i].mode.profile._on_gauss(N, b, n)[0] for i in block])
        g = P @ (AngularGrid1D.gauss(N, b, n).weights * mode.profile._on_gauss(N, b, n)[0])
    table = (sol.coefs[:, block], g)
    for arr in table:
        arr.flags.writeable = False
    return table


def fourier_coefficient(sol: SeparableSolution, mode: SpectralMode,
                        lam: float) -> tuple[float, float]:
    """Weighted angular coefficients (phi, phi~) of (U, V) against a mode at radius lam.

    Blocks with a wavenumber different from the mode's integrate to zero
    exactly by horizontal-harmonic orthogonality; the polar integrals
    g_i = int P_i P_mode of the block's terms are numerical quadrature on the
    Gauss-Jacobi grid of `gauss_nodes` of the largest degree among the mode
    and the block's terms.  The solution keeps them, with the block's
    coefficient columns, per mode on first use (`_projection`), so each
    blow-up sample is one radial evaluation at lam and two dot products.  A
    coefficient that is not finite raises `InputError`.
    """
    sol = _instance(sol, SeparableSolution, "solution")
    mode = _instance(mode, SpectralMode, "mode")
    lam = _radius(lam, at_most=sol.R)
    (s, c1, e, d1), g = sol._table(("fourier", mode), lambda sol: _projection(sol, mode))
    rs = lam ** s
    phi, phit = float((c1 + e * (lam * lam)) * rs @ g), float(d1 * rs @ g)
    if not (math.isfinite(phi) and math.isfinite(phit)):
        raise InputError("non-finite field sample")
    return phi, phit


@dataclass(frozen=True)
class CoefficientFit:
    """Result of fitting radial samples to the two-exponent separable model."""

    sigma_used: float
    c1_hat: float
    d1_hat: float
    residual: float
    delta1: float
    delta2: float | None
    branch: str  # "sigma_plus" or "sigma_plus_two"


def fit_blowup(samples, sigma_candidates, params: WeightParams,
               residual_tol: float = 1e-3) -> CoefficientFit:
    """Least-squares fit of (c1, d1) over candidate exponents; classifies delta.

    `samples` is an array of (lambda, phi, phi~) rows covering at least six
    positive radii spanning a decade.  For each candidate sigma the model is
    linear in (c1, d1/K), with K that of sigma itself: phi is fitted on the
    powers {sigma, sigma + 2} of lam and phi~ on {sigma}, each by one
    `core._power_fit` over every candidate (pinv's minimum-norm answer where
    a candidate's columns are degenerate or underflow).  The candidate with
    minimal relative residual wins.  When phi~ vanishes on every sample, a
    fit of phi on {sigma} alone (d1 = 0) is preferred whenever one meets
    `residual_tol`.  If every candidate leaves a relative residual above
    `residual_tol` a ClassificationError reports the failure.
    A candidate whose squared column lam^(2 sigma) or lam^(2 sigma + 4)
    overflows raises DomainError.
    """
    params = _instance(params, WeightParams, "params")
    data = _finite(samples, "samples (lambda, phi, phi_tilde)", shape=(None, 3))
    if data.shape[0] < 6:
        raise DomainError("need at least 6 radii")
    lam, phi, phit = _radius(data[:, 0], "sample radius", array=True), data[:, 1], data[:, 2]
    if lam.max() / lam.min() < 9.99:
        raise DomainError("radii must span at least a decade")
    residual_tol = _number(residual_tol, "residual tolerance", 0.0)
    scale = float(np.max(np.abs(np.column_stack([phi, phit]))))
    if scale == 0.0:
        raise DomainError("all samples vanish; nothing to classify")

    keep = np.abs(phi) >= 1e-13 * scale
    keep_v = np.abs(phit) >= 1e-13 * scale
    total = float(phi @ phi) + float(phit @ phit)
    # the squared columns lam^(2 sigma) and lam^(2 sigma + 4) stay below the float range
    # (a column that underflows to 0 is fitted with coefficient 0)
    lo, hi = np.log(lam.min()), np.log(lam.max())
    low = _LOG_RANGE / (2.0 * lo) if lo < 0 else -math.inf
    high = _LOG_RANGE / (2.0 * hi) - 2.0 if hi > 0 else math.inf
    sigmas = np.unique(_number(_finite(sigma_candidates, "sigma candidates", shape=(None,)),
                               "sigma candidates", low, high, array=True))
    if sigmas.size == 0:
        raise InputError("sigma candidates must be a non-empty list")
    lam_u, phi_u = lam[keep], phi[keep]
    coef, res_u = _power_fit(lam_u, phi_u, sigmas[:, None] + np.array([0.0, 2.0]))
    if np.any(keep_v):
        d1, res_v = _power_fit(lam[keep_v], phit[keep_v], sigmas[:, None])
        d1, ss_v = d1[:, 0], np.sum(res_v * res_v, axis=1)
    else:
        d1, ss_v = coef[:, 1] * _resonance(params, sigmas), 0.0
    rel = np.sqrt((np.sum(res_u * res_u, axis=1) + ss_v) / total)
    i = int(np.argmin(rel))
    best = (float(rel[i]), float(sigmas[i]), float(coef[i, 0]), float(coef[i, 1]), float(d1[i]))
    if not np.any(keep_v):
        # phi~ = d1 lam^sigma vanishes on every sample, so d1 = e = 0 whenever
        # lam^sigma alone explains phi.  Only when no candidate does are the
        # samples read as the U layer alone, with d1 = e K from the
        # lam^{sigma+2} coefficient.
        c1, res = _power_fit(lam_u, phi_u, sigmas[:, None])
        rel = np.sqrt(np.sum(res * res, axis=1) / total)
        j = int(np.argmin(rel))
        if rel[j] <= residual_tol:
            best = (float(rel[j]), float(sigmas[j]), float(c1[j, 0]), 0.0, 0.0)
    rel, sigma, c1, e_coef, d1 = best
    if not rel <= residual_tol:
        raise ClassificationError(
            f"no candidate exponent fits the samples; best relative residual {rel:.3e} "
            f"at sigma = {sigma}"
        )
    lam_ref = float(np.exp(np.mean(np.log(lam))))
    c1_scale = abs(c1) * lam_ref ** sigma
    e_scale = abs(e_coef) * lam_ref ** (sigma + 2.0)
    if c1_scale >= 1e-7 * max(c1_scale + e_scale, 1e-300):
        branch, delta1 = "sigma_plus", sigma
    else:
        branch, delta1 = "sigma_plus_two", sigma + 2.0
    d_scale = abs(d1) * lam_ref ** sigma
    delta2 = sigma if d_scale > 1e-12 * scale else None
    return CoefficientFit(sigma_used=sigma, c1_hat=c1, d1_hat=d1, residual=rel,
                          delta1=delta1, delta2=delta2, branch=branch)
