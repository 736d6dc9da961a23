"""First-kind Bessel functions of real order in (-1, 1), zeros and norm constants.

The eigenbasis machinery only needs orders nu = -alpha with alpha = (1-b)/2 in
(0, 1).  Values are delegated to scipy's Bessel kernels; the regularized
companion h(t) = t^alpha J_{-alpha}(t) is smooth at t = 0 and is used for
boundary-safe evaluation.  Its generalization t^{-nu} J_nu(t) is the objective
of the zero solver, one vectorised Newton pass over every requested index.
`scipy.special` is the only scipy module used; it is imported inside the
functions that call it, on first use, so importing the module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, SolverError, WeightParams, _count, _number

_SERIES_CUTOFF = 0.5


def bessel_j(nu, t):
    """J_nu(t) for real order |nu| < 1 and t >= 0.

    For nu < 0 the value diverges at t = 0; callers needing the regularized
    limit should use `bessel_h`, as the raised error points out.
    """
    from scipy.special import jv

    nu = _number(nu, "Bessel order nu", -1.0, 1.0)
    t_arr = _number(t, "argument t", 0.0, ends="[)", array=True)
    if nu < 0 and np.any(t_arr == 0.0):
        raise DomainError(
            "J_nu(0) diverges for nu < 0; use bessel_h for the t^alpha-regularized value"
        )
    out = jv(nu, t_arr)
    return float(out) if np.isscalar(t) else out


def _h_series(alpha: float, t: np.ndarray) -> np.ndarray:
    # h(t) = 2^alpha sum_k (-1)^k (t^2/4)^k / (k! Gamma(k+1-alpha)); rapid for small t.
    q = t * t / 4.0
    term = np.full_like(q, 2.0 ** alpha / math.gamma(1.0 - alpha))
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
    from scipy.special import jv

    alpha = _number(alpha, "alpha", 0.0, 1.0)
    t_arr = np.atleast_1d(_number(t, "argument t", 0.0, ends="[)", array=True))
    out = np.empty_like(t_arr)
    small = t_arr < _SERIES_CUTOFF
    if np.any(small):
        out[small] = _h_series(alpha, t_arr[small])
    if np.any(~small):
        tl = t_arr[~small]
        out[~small] = tl ** alpha * jv(-alpha, tl)
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def bessel_h_deriv(alpha: float, t):
    """h'(t) = -t^alpha J_{1-alpha}(t); vanishes at t = 0."""
    from scipy.special import jv

    alpha = _number(alpha, "alpha", 0.0, 1.0)
    t_arr = _number(t, "argument t", 0.0, ends="[)", array=True)
    out = -(t_arr ** alpha) * jv(1.0 - alpha, t_arr)
    return float(out) if np.isscalar(t) else out


def _mcmahon_guess(nu: float, m):
    # McMahon expansion anchored at beta = (m + nu/2 - 1/4) pi (DLMF 10.21.19).
    beta = (m + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu - 1.0) / (8.0 * beta) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)


def _bessel_zeros(nu: float, m) -> np.ndarray:
    """Zeros j_{nu,m} of J_nu for every index in the array `m`, solved together.

    Safeguarded Newton on t^{-nu} J_nu(t), whose derivative is
    -t^{-nu} J_{nu+1}(t) (DLMF 10.6.6), so the step t + J_nu(t)/J_{nu+1}(t)
    serves both signs of nu.  Each zero starts at McMahon's guess inside the
    bracket guess -+ 0.45 pi, which shrinks on the sign of J_nu; a step that
    leaves it bisects instead.  An entry stops moving once its step is below
    4 eps relative, so its value does not depend on the other indices requested.
    """
    from scipy.special import jv

    t = _mcmahon_guess(nu, np.asarray(m, dtype=float))
    lo, hi = np.maximum(t - 0.45 * math.pi, 1e-12), t + 0.45 * math.pi
    sign_lo = np.sign(jv(nu, lo))
    if np.any(sign_lo * np.sign(jv(nu, hi)) >= 0):
        raise SolverError(f"J_{nu} keeps its sign across a bracket of McMahon's guesses")
    active = np.ones(t.shape, dtype=bool)
    for _ in range(60):
        f = jv(nu, t)
        lo = np.where(f * sign_lo > 0, t, lo)
        hi = np.where(f * sign_lo < 0, t, hi)
        new = t + f / jv(nu + 1.0, t)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        new = np.where(active, new, t)
        active &= np.abs(new - t) > 4.0 * np.finfo(float).eps * t
        t = new
        if not active.any():
            return t
    raise SolverError(f"Newton for the zeros of J_{nu} did not settle in 60 steps")


def bessel_zero(nu, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu, for real |nu| < 1.

    The entry m of `_bessel_zeros`, bit for bit.  Over nu in [-0.999, 0.999]
    and m <= 200 its relative error against 40-digit mpmath is at most
    2.2e-15, and zeros are strictly increasing in m.  scipy.special is
    imported on first use.
    """
    return float(_bessel_zeros(_number(nu, "Bessel order nu", -1.0, 1.0),
                               [_count(m, "zero index m")])[0])


def radial_norm_gamma(params: WeightParams, m: int) -> float:
    """Normalization gamma_m = [int_0^{2R} t J_{-alpha}(j_m t / (2R))^2 dt]^{-1/2}.

    Solves for the zero j_m = j_{-alpha,m} (`bessel_zero` gates m);
    `_radial_norm_at_zero` takes one already solved.
    """
    return _radial_norm_at_zero(params, bessel_zero(-params.alpha, m))


def _radial_norm_at_zero(params: WeightParams, zero: float) -> float:
    """gamma_m at the zero j_m = j_{-alpha,m} of J_{-alpha}.

    Evaluated through the Lommel closed form of the integral at a zero,
    int_0^j t J_nu(t)^2 dt = j^2 J_nu'(j)^2 / 2 with J_nu'(j) = -J_{nu+1}(j),
    giving gamma_m = 1 / (sqrt(2) R |J_{1-alpha}(j_m)|).
    """
    from scipy.special import jv

    jprime = -jv(1.0 - params.alpha, zero)
    return float(1.0 / (math.sqrt(2.0) * params.R * abs(jprime)))
