"""First-kind Bessel functions of real order in (-1, 1), zeros and norm constants.

The eigenbasis machinery only needs orders nu = -alpha with alpha = (1-b)/2 in
(0, 1).  Values are delegated to scipy's Bessel kernels; the regularized
companion h(t) = t^alpha J_{-alpha}(t) is smooth at t = 0 and is used both for
boundary-safe evaluation and as the zero-finding objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import jv as _jv

from .core import DomainError, WeightParams

_SERIES_CUTOFF = 0.5


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu with |nu| < 1; the basis order is nu = -alpha = -(1-b)/2."""

    nu: float

    def __post_init__(self):
        if not abs(self.nu) < 1.0:
            raise DomainError(f"Bessel order must satisfy |nu| < 1, got {self.nu}")

    @classmethod
    def for_weight(cls, params: WeightParams) -> "BesselOrder":
        return cls(nu=-params.alpha)


def _order_value(nu) -> float:
    nu = nu.nu if isinstance(nu, BesselOrder) else float(nu)
    if not abs(nu) < 1.0:
        raise DomainError(f"Bessel order must satisfy |nu| < 1, got {nu}")
    return nu


def bessel_j(nu, t):
    """J_nu(t) for real order |nu| < 1 and t >= 0.

    For nu < 0 the value diverges at t = 0; callers needing the regularized
    limit should use `bessel_h`, as the raised error points out.
    """
    nu = _order_value(nu)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("argument t must be nonnegative")
    if nu < 0 and np.any(t_arr == 0.0):
        raise DomainError(
            "J_nu(0) diverges for nu < 0; use bessel_h for the t^alpha-regularized value"
        )
    out = _jv(nu, t_arr)
    return float(out) if np.isscalar(t) else out


def _h_series(alpha: float, t: np.ndarray) -> np.ndarray:
    # h(t) = 2^alpha sum_k (-1)^k (t^2/4)^k / (k! Gamma(k+1-alpha)); rapid for small t.
    q = t * t / 4.0
    term = np.full_like(q, 2.0 ** alpha / _gamma(1.0 - alpha))
    acc = term.copy()
    for k in range(1, 24):
        term = term * (-q) / (k * (k - alpha))
        acc += term
        if np.max(np.abs(term)) < 1e-17 * max(np.max(np.abs(acc)), 1e-300):
            break
    return acc


def bessel_h(alpha: float, t):
    """Regularized radial factor h(t) = t^alpha J_{-alpha}(t), smooth at t = 0.

    h(0) = 2^alpha / Gamma(1 - alpha) and h'(0) = 0; for larger t the value is
    assembled from J_{-alpha} directly.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise DomainError("argument t must be nonnegative")
    out = np.empty_like(t_arr)
    small = t_arr < _SERIES_CUTOFF
    if np.any(small):
        out[small] = _h_series(alpha, t_arr[small])
    if np.any(~small):
        tl = t_arr[~small]
        out[~small] = tl ** alpha * _jv(-alpha, tl)
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def bessel_h_deriv(alpha: float, t):
    """h'(t) = -t^alpha J_{1-alpha}(t); vanishes at t = 0."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    t_arr = np.asarray(t, dtype=float)
    out = -(t_arr ** alpha) * _jv(1.0 - alpha, t_arr)
    return float(out) if np.isscalar(t) else out


class SolverBracketError(DomainError):
    def __init__(self, nu, m, lo, hi):
        super().__init__(f"could not bracket zero j_({nu},{m}) in [{lo}, {hi}]")


def _mcmahon_guess(nu: float, m: int) -> float:
    # McMahon expansion anchored at beta = (m + nu/2 - 1/4) pi.
    beta = (m + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu - 1.0) / (8.0 * beta) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)


def bessel_zero(nu, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu, for real |nu| < 1.

    McMahon-type initial guess refined by bracketed root finding on the
    regularized objective (h for negative order), absolute error well below
    1e-10; zeros are strictly increasing in m.  Each call is one root solve;
    scipy.optimize is imported here, on first use, not with the package.
    """
    from scipy.optimize import brentq

    nu = _order_value(nu)
    if m < 1 or int(m) != m:
        raise DomainError(f"zero index m must be a positive integer, got {m}")
    if nu < 0:
        alpha = -nu
        f = lambda t: bessel_h(alpha, t)
    else:
        f = lambda t: _jv(nu, t)
    guess = _mcmahon_guess(nu, int(m))
    lo, hi = guess - 0.45 * math.pi, guess + 0.45 * math.pi
    lo = max(lo, 1e-12)
    flo, fhi = f(lo), f(hi)
    width = 0.05 * math.pi
    while flo * fhi > 0 and hi - lo < 4 * math.pi:
        lo = max(lo - width, 1e-12)
        hi += width
        flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise SolverBracketError(nu, m, lo, hi)
    return float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))


def radial_norm_gamma(params: WeightParams, m: int) -> float:
    """Normalization gamma_m = [int_0^{2R} t J_{-alpha}(j_m t / (2R))^2 dt]^{-1/2}.

    Solves for the zero j_m = j_{-alpha,m}; `_radial_norm_at_zero` takes one
    already solved.
    """
    if m < 1 or int(m) != m:
        raise DomainError(f"index m must be a positive integer, got {m}")
    return _radial_norm_at_zero(params, bessel_zero(-params.alpha, int(m)))


def _radial_norm_at_zero(params: WeightParams, zero: float) -> float:
    """gamma_m at the zero j_m = j_{-alpha,m} of J_{-alpha}.

    Evaluated through the Lommel closed form of the integral at a zero,
    int_0^j t J_nu(t)^2 dt = j^2 J_nu'(j)^2 / 2 with J_nu'(j) = -J_{nu+1}(j),
    giving gamma_m = 1 / (sqrt(2) R |J_{1-alpha}(j_m)|).
    """
    jprime = -_jv(1.0 - params.alpha, zero)
    return float(1.0 / (math.sqrt(2.0) * params.R * abs(jprime)))
