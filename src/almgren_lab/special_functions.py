"""Bessel functions on numpy: J_nu and its zeros, and the power x^nu K_nu(x).

The eigenbasis machinery needs J_nu at the orders nu = -alpha, 1 - alpha
(alpha = (1-b)/2 in (0, 1)) and at the integer orders of the disk; the
extension profile needs x^nu K_nu(x) at nu = s and s - 1.  Each family has
one kernel, `_bessel_j` and `_power_bessel_k`, on numpy and `math` alone;
their rules and per-order tables are built on first use and cached, so
importing the module builds nothing.

`_bessel_j` picks one of four methods per point.  The errors below are the
largest seen against mpmath, relative to the envelope
max(|J_nu(x)|, sqrt(2/(pi x))), on random points of each region for 24
orders in (-1, 2) and 37 integer orders up to 64:
- x <= 2: the power series (DLMF 10.2.2), 14 terms, relative to J itself
  near 0: <= 9e-16;
- x >= max(30, nu^2): Hankel's expansion (DLMF 10.17.3), 20 terms, with
  cos(x - c) formed from cos x and sin x and c = (nu/2 + 1/4) pi reduced
  mod 2 pi exactly: <= 8e-16;
- between, for fractional orders, Bessel's integral (DLMF 10.9.6) on a
  64-node Gauss-Legendre rule (`_legendre_rule`) for both integrals: <= 8e-15,
  the rounding of the phase x sin t, about x eps per node;
- between, for integer orders, Miller's backward recurrence (DLMF 3.6(vi))
  normalized by J_0 + 2 sum J_2k = 1 (DLMF 10.12.4): <= 2.9e-15 on (2, 30]
  and <= 6.5e-15 on (30, 60]; past 60 (orders above 7) its rounding grows
  with x, to 1.6e-14 on (60, 200] and 2.7e-13 on (200, 4096].
Every method works point by point, so a value does not depend on the other
points of the call.  The regularized h(t) = t^alpha J_{-alpha}(t) is
2^alpha times the series' entire part up to t = 2, so it is smooth at 0.

`_power_bessel_k` sums K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt
(DLMF 10.32.9) by the trapezoid rule for x < 30, with e^{-x} factored out,
and uses the expansion DLMF 10.40.2 beyond; against mpmath its error is
<= 9e-16 relative for nu in (0, 2) and x in [1e-8, 50], and <= 4.4e-15 down
to x = 1e-139.

The zero solver (`_newton_zeros`) is a safeguarded Newton iteration on
t^{-nu} J_nu(t); `_bessel_zeros` starts it from McMahon's expansion and the
power series, and `_jn_zeros` from the zeros of the order below.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import DomainError, SolverError, WeightParams, _count, _number

_SERIES_END = 2.0           # J: power series on [0, 2]
_SERIES_TERMS = 14          # (x^2/4)^14 / (14!)^2 < 1e-21 at x = 2
_HANKEL_START = 30.0        # J: Hankel's expansion for x >= max(30, nu^2)
_HANKEL_TERMS = 20          # at x = 30 the 20th term is below 1e-17
_INTEGRAL_NODES = 64        # Gauss-Legendre nodes of Bessel's integral, fractional orders
_INTEGRAL_SPAN = math.asinh(25.0)  # the second integral on [0, T]: x sinh T = 50 at x = 2
_K_STEP = 1.0 / 8.0         # K: trapezoid step in t
_K_TAIL = 48.0              # K: the sum stops where x (cosh t - 1) = 48
_K_ASYMPTOTIC_START = 30.0  # K: DLMF 10.40.2 beyond x = 30, with 30 terms
_K_TERMS = 30
_K_TINY = 1e-140            # K: below, the two leading terms of the small-x expansion
_K_UNDERFLOW = 750.0        # K: e^{-x} is 0 in double precision


@lru_cache(maxsize=256)
def _series_coefficients(orders: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The orders as a column and the (orders, terms) table of
    (-1/4)^k / (k! Gamma(k + nu + 1)), DLMF 10.2.2 (read-only)."""
    nus = np.array(orders, dtype=float)[:, None]
    k = np.arange(1, _SERIES_TERMS)
    c = np.empty((len(orders), _SERIES_TERMS))
    c[:, 0] = [1.0 / math.gamma(nu + 1.0) for nu in orders]
    c[:, 1:] = c[:, :1] * np.cumprod(-0.25 / (k * (k + nus)), axis=1)
    nus.flags.writeable = False
    c.flags.writeable = False
    return nus, c


def _j_entire(orders: tuple, x: np.ndarray) -> np.ndarray:
    """(x/2)^{-nu} J_nu(x) = sum_k (-x^2/4)^k / (k! Gamma(k + nu + 1)) per order, 14 terms."""
    return np.einsum("ok,ik->oi", _series_coefficients(orders)[1],
                     (x * x)[:, None] ** np.arange(_SERIES_TERMS))


@lru_cache(maxsize=256)
def _hankel_coefficients(orders: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P's and Q's coefficient tables (orders, terms) of DLMF 10.17.3 and the phase cos c, sin c."""
    nus = np.array(orders)
    a = np.ones((_HANKEL_TERMS, len(orders)))
    for k in range(1, _HANKEL_TERMS):
        a[k] = a[k - 1] * (4.0 * nus * nus - (2 * k - 1) ** 2) / (8.0 * k)
    a[2::4] *= -1.0
    a[3::4] *= -1.0
    c = np.fmod(nus / 2.0 + 0.25, 2.0) * math.pi    # reduced exactly: no rounding grows with nu
    tables = (np.ascontiguousarray(a[0::2].T), np.ascontiguousarray(a[1::2].T),
              np.stack([np.cos(c), np.sin(c)]))
    for t in tables:
        t.flags.writeable = False
    return tables


def _j_hankel(orders: tuple, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion of J_nu(x) for large x (DLMF 10.17.3), 20 terms.

    J_nu = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - c, c = (nu/2 + 1/4) pi;
    cos w and sin w are formed from cos x and sin x, not from the rounded w.
    """
    infinite = np.isinf(x)
    if infinite.any():                          # J_nu(inf) = 0
        out = np.zeros((len(orders), x.size))
        out[:, ~infinite] = _j_hankel(orders, x[~infinite])
        return out
    p_coef, q_coef, (cos_c, sin_c) = _hankel_coefficients(orders)
    powers = (1.0 / x)[:, None] ** np.arange(0, _HANKEL_TERMS, 2)
    p = np.einsum("ok,ik->oi", p_coef, powers)
    q = np.einsum("ok,ik->oi", q_coef, powers) / x
    cos_x, sin_x = np.cos(x), np.sin(x)
    cos_w = np.outer(cos_c, cos_x) + np.outer(sin_c, sin_x)
    sin_w = np.outer(cos_c, sin_x) - np.outer(sin_c, cos_x)
    return math.sqrt(2.0 / math.pi) / np.sqrt(x) * (p * cos_w - q * sin_w)


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]: increasing nodes and weights summing to 1 (read-only).

    Newton on P_n(cos theta) from Tricomi's guesses, with the three-term
    recurrence written for D_k = P_k - P_{k-1} in y = 1 - cos theta, so the
    nodes near the ends keep their relative digits; the weights are
    2 sin^2 theta / (n P_{n-1})^2 (DLMF 3.5.19), halved for [0, 1].  Only
    the half theta <= pi/2 is solved; the rule is symmetric about 1/2, and
    node i of the upper half is 1 minus node n - 1 - i of the lower.
    """
    theta = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)

    def legendre(theta):
        y = 2.0 * np.sin(theta / 2.0) ** 2
        d = -y
        p = 1.0 + d
        for k in range(1, n):
            d = (k * d - (2 * k + 1) * y * p) / (k + 1)
            p = p + d
        return p, d, y

    for _ in range(12):
        p, d, y = legendre(theta)
        step = p * np.sin(theta) / (n * (d - y * p))
        theta = theta - step
        if np.max(np.abs(step)) <= 1e-17:
            break
    p, d, _ = legendre(theta)
    w = np.sin(theta) ** 2 / (n * (p - d)) ** 2
    low = np.sin(theta / 2.0) ** 2                 # the lower half, increasing
    half = n // 2
    nodes = np.concatenate([low[:half], [0.5] * (n % 2), (1.0 - low[:half])[::-1]])
    weights = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def _integral_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The order-free parts of Bessel's integral on the `_INTEGRAL_NODES` rule (read-only):
    on the lower half of the angles t = pi u, t - pi/2 and sin t; the nodes
    t_j = T u of the second integral on [0, T]; and -sinh t_j."""
    nodes, _ = _legendre_rule(_INTEGRAL_NODES)
    low = math.pi * nodes[:_INTEGRAL_NODES // 2]
    tail = _INTEGRAL_SPAN * nodes
    out = (low - math.pi / 2, np.sin(low), tail, -np.sinh(tail))
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _integral_tables(orders: tuple) -> np.ndarray:
    """The weights (orders, 128) of Bessel's integral against [cos, sin] of the phase
    x sin t on the lower half of the angles, then e^{-x sinh t_j} (read-only).

    t and pi - t share sin t, so the mirrored node's weight is folded into its
    partner's: cos(nu t) + cos(nu (pi - t)) = 2 cos(nu pi / 2) cos(nu (t - pi/2)),
    and the sines likewise with 2 sin(nu pi / 2).  The second integral's
    weights carry -sin(nu pi) / pi, T and e^{-nu t_j}.
    """
    shifted, _, tail, _ = _integral_nodes()
    w = _legendre_rule(_INTEGRAL_NODES)[1]
    nus = np.array(orders, dtype=float)[:, None]
    folded = w[:_INTEGRAL_NODES // 2] * np.cos(nus * shifted)
    factor = np.array([0.0 if float(nu).is_integer() else -math.sin(nu * math.pi) / math.pi
                       for nu in orders])[:, None]
    table = np.concatenate([2.0 * np.cos(nus * (math.pi / 2)) * folded,
                            2.0 * np.sin(nus * (math.pi / 2)) * folded,
                            factor * _INTEGRAL_SPAN * w * np.exp(-nus * tail)], axis=1)
    table.flags.writeable = False
    return table


def _j_integral(orders: tuple, x: np.ndarray) -> np.ndarray:
    """Bessel's integral (DLMF 10.9.6) for orders in (-1, 2) and 2 < x < 30.

    J_nu(x) = (1/pi) int_0^pi cos(x sin t - nu t) dt
              - (sin(nu pi) / pi) int_0^inf e^{-x sinh t - nu t} dt,
    both on the 64-node `_legendre_rule`: the first on the angles pi u, the
    second on [0, T] with 2 sinh T = 50, where the tail is below e^{-46} at
    every x > 2, and the analytic integrand keeps the rule to roundoff up to
    x = 30.  One contraction against `_integral_tables` gives every order.
    """
    _, sines, _, fall = _integral_nodes()
    phase = x[:, None] * sines
    decay = np.exp(np.multiply.outer(x, fall))
    return np.einsum("oj,ij->oi", _integral_tables(orders),
                     np.concatenate([np.cos(phase), np.sin(phase), decay], axis=1))


def _j_miller(orders: tuple, x: np.ndarray) -> np.ndarray:
    """J_n(x) for integer orders by Miller's backward recurrence, normalized by J_0 + 2 sum J_2k = 1.

    Each point starts at its own even index N >= max(n, x) + 10 x^(1/3) + 20,
    so its value does not depend on the other points (a start at
    6 x^(1/3) + 12 lost digits, 6.5e-9 by x = 4096); the running values are
    rescaled before they can overflow.
    """
    want = {int(n): i for i, n in enumerate(orders)}
    start = 2 * np.ceil((np.maximum(max(want), x) + 10.0 * np.cbrt(x) + 20.0) / 2.0)
    starts = set(start.tolist())
    inv_x = 1.0 / x
    out = np.zeros((len(orders), x.size))
    above, here = np.zeros(x.size), np.zeros(x.size)     # J_{k+1}, J_k
    even = np.zeros(x.size)                               # sum of J_2k, k >= 1
    for k in range(int(start.max()), 0, -1):
        if k in starts:
            here[start == k] = 1e-250
        below = (2.0 * k) * inv_x
        below *= here
        below -= above
        if k - 1 in want:
            out[want[k - 1]] = below
        if k % 2 and k > 1:
            even += below
        above, here = here, below
        if k % 16 == 0:
            scale = np.where(np.abs(here) > 1e200, 1e-200, 1.0)
            above *= scale
            here *= scale
            out *= scale
            even *= scale
    return out / (2.0 * even + here)                     # here holds J_0


def _j_series(orders: tuple, x: np.ndarray) -> np.ndarray:
    """J_nu(x) = (x/2)^nu times the entire part, for x <= 2."""
    return (x / 2.0) ** _series_coefficients(orders)[0] * _j_entire(orders, x)


def _bessel_j(orders: tuple, x) -> np.ndarray:
    """J_nu(x) for each order in the tuple `orders` at the points x >= 0; shape (len(orders),) + x.shape.

    The orders are all integers (0 <= n < 170) or all in (-1, 2).  Each point
    takes the method of its region (module docstring): the series for
    x <= 2 and for NaN, which gives NaN, Hankel's expansion beyond
    max(30, nu^2), and in between Bessel's integral (`_j_integral`) for
    fractional orders or Miller's recurrence (`_j_miller`) for integer ones.
    x = inf gives 0 and x = 0 the limit (callers keep x > 0 for nu < 0).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    small = ~(flat > _SERIES_END)
    large = flat > max(_HANKEL_START, max(orders) ** 2)
    n_small, n_large = np.count_nonzero(small), np.count_nonzero(large)
    if n_small == flat.size:
        out = _j_series(orders, flat)
    elif n_large == flat.size:
        out = _j_hankel(orders, flat)
    else:
        # the other regions' points sit at x = 4 meanwhile, which both methods take
        between = _j_miller if all(float(nu).is_integer() for nu in orders) else _j_integral
        out = between(orders, np.where(small | large, 4.0, flat) if n_small or n_large else flat)
        if n_small:
            out[:, small] = _j_series(orders, flat[small])
        if n_large:
            out[:, large] = _j_hankel(orders, flat[large])
    return out.reshape((len(orders),) + x.shape)


def bessel_j(nu, t):
    """J_nu(t) for real order |nu| < 1 and t >= 0.

    For nu < 0 the value diverges at t = 0; callers needing the regularized
    limit should use `bessel_h`, as the raised error points out.
    """
    nu = _number(nu, "Bessel order nu", -1.0, 1.0)
    t_arr = _number(t, "argument t", 0.0, ends="[)", array=True)
    if nu < 0 and np.any(t_arr == 0.0):
        raise DomainError(
            "J_nu(0) diverges for nu < 0; use bessel_h for the t^alpha-regularized value"
        )
    out = _bessel_j((nu,), t_arr)[0]
    return float(out) if np.isscalar(t) else out


def bessel_h(alpha: float, t):
    """Regularized radial factor h(t) = t^alpha J_{-alpha}(t), smooth at t = 0.

    h(0) = 2^alpha / Gamma(1 - alpha) and h'(0) = 0; up to t = 2 the value is
    2^alpha times the series' entire part, beyond it t^alpha J_{-alpha}(t).
    """
    alpha = _number(alpha, "alpha", 0.0, 1.0)
    t_arr = np.atleast_1d(_number(t, "argument t", 0.0, ends="[)", array=True))
    out = np.empty_like(t_arr)
    small = t_arr <= _SERIES_END
    if np.any(small):
        out[small] = 2.0 ** alpha * _j_entire((-alpha,), t_arr[small])[0]
    if np.any(~small):
        tl = t_arr[~small]
        out[~small] = tl ** alpha * _bessel_j((-alpha,), tl)[0]
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def bessel_h_deriv(alpha: float, t):
    """h'(t) = -t^alpha J_{1-alpha}(t); vanishes at t = 0."""
    alpha = _number(alpha, "alpha", 0.0, 1.0)
    t_arr = _number(t, "argument t", 0.0, ends="[)", array=True)
    out = -(t_arr ** alpha) * _bessel_j((1.0 - alpha,), t_arr)[0]
    return float(out) if np.isscalar(t) else out


def _mcmahon_guess(nu: float, m):
    # McMahon expansion anchored at beta = (m + nu/2 - 1/4) pi (DLMF 10.21.19),
    # five terms: for |nu| < 1 off by at most 5e-5 at m = 2 and 2e-8 from m = 4
    beta = (m + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    b = 8.0 * beta
    return beta - (mu - 1.0) / b - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b ** 3) \
        - 32.0 * (mu - 1.0) * (83.0 * mu ** 2 - 982.0 * mu + 3779.0) / (15.0 * b ** 5) \
        - 64.0 * (mu - 1.0) * (6949.0 * mu ** 3 - 153855.0 * mu ** 2 + 1585743.0 * mu
                               - 6277237.0) / (105.0 * b ** 7)


def _series_zero(c: list[float], t: float) -> float:
    """The zero of J_nu next to t below 10.5, to about 1e-12: a start for `_newton_zeros`.

    Newton on the entire part G(t) = sum_k c_k (t^2)^k of (t/2)^{-nu} J_nu,
    on floats; c holds the 35 coefficients of DLMF 10.2.2 (`_bessel_zeros`;
    the last term is below 1e-30 at t = 10.5), and below t = 4.2 the first
    20 suffice (the 20th below 1e-19).
    """
    c = c[:20] if t < 4.2 else c
    for _ in range(8):
        q = t * t
        g, dg = c[-1], 0.0
        for ck in reversed(c[:-1]):       # Horner for G and dG/dq
            dg = dg * q + g
            g = g * q + ck
        step = g / (2.0 * t * dg)
        t -= step
        if abs(step) <= 1e-13 * t:
            break
    return t


def _newton_zeros(nu: float, t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  brackets: str) -> tuple[np.ndarray, np.ndarray]:
    """The zero of J_nu in each bracket (lo, hi), by safeguarded Newton from t, and J_{nu+1} there.

    Newton on t^{-nu} J_nu(t), whose derivative is -t^{-nu} J_{nu+1}(t)
    (DLMF 10.6.6), so the step t + J_nu(t)/J_{nu+1}(t) serves both signs of
    nu; J_nu and J_{nu+1} come from one `_bessel_j` call per step, the first
    of which also reads J_nu at both ends of the brackets.  The bracket
    shrinks on the sign of J_nu, and a step that leaves it bisects instead.
    An entry stops at the point whose step is below 4 eps relative, so its
    value does not depend on the other entries, and J_{nu+1} (the norms'
    -J_nu') was evaluated there.
    """
    n = t.size
    f, f_next = _bessel_j((nu, nu + 1.0), np.concatenate([t, lo, hi]))
    sign_lo = np.sign(f[n:2 * n])
    if np.any(sign_lo * np.sign(f[2 * n:]) >= 0):
        raise SolverError(f"J_{nu} keeps its sign across a bracket of {brackets}")
    f, f_next = f[:n], f_next[:n]
    active = np.ones(n, dtype=bool)
    tol = 4.0 * np.finfo(float).eps
    for _ in range(60):
        side = f * sign_lo
        lo = np.where(side > 0, t, lo)
        hi = np.where(side < 0, t, hi)
        step = f / f_next
        active &= np.abs(step) > tol * t
        if not active.any():
            return t, f_next
        new = t + step
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        t = np.where(active, new, t)
        f, f_next = _bessel_j((nu, nu + 1.0), t)
    raise SolverError(f"Newton for the zeros of J_{nu} did not settle in 60 steps")


def _bessel_zeros(nu: float, m) -> tuple[np.ndarray, np.ndarray]:
    """Zeros j_{nu,m} of J_nu, |nu| < 1, for every index in the array `m`, solved together,
    and J_{nu+1} at them.

    Each zero starts at McMahon's guess (five terms: within 2e-8 from m = 4
    on), the first three refined on the power series (`_series_zero`; the
    first from 2 sqrt(nu + 1) (1 + (nu + 1)/4), where McMahon's expansion
    fails as nu nears -1), so one Newton step settles each and a second
    confirms it; the brackets are guess -+ 0.45 pi (`_newton_zeros`).
    """
    m = np.asarray(m, dtype=float)
    t = _mcmahon_guess(nu, m)
    low = np.flatnonzero(m <= 3.0).tolist()
    if low:
        c = [1.0 / math.gamma(nu + 1.0)]
        for k in range(1, 35):
            c.append(c[-1] * -0.25 / (k * (k + nu)))
        for i in low:
            start = 2.0 * math.sqrt(nu + 1.0) * (1.0 + (nu + 1.0) / 4.0) if m[i] == 1.0 else t[i]
            t[i] = _series_zero(c, start)
    return _newton_zeros(nu, t, np.maximum(t - 0.45 * math.pi, 1e-12), t + 0.45 * math.pi,
                         "McMahon's guesses")


def _jn_zeros(k: int, n: int, below: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The first n zeros j_{k,p} of J_k, integer k >= 0, and J_{k+1} at them.

    Order 0 comes from `_bessel_zeros`.  For k >= 1, `below` holds the first
    n (or more) zeros of J_{k-1}, and each zero is solved (`_newton_zeros`)
    on the bracket (j_{k-1,p}, j_{k-1,p} + pi), which holds j_{k,p} and no
    other zero of J_k: the zeros interlace, j_{k-1,p} < j_{k,p} < j_{k-1,p+1}
    (DLMF 10.21(i)); j_{k,p} exceeds j_{k-1,p} by less than pi/2; and zeros
    of J_{k-1} are more than pi apart for k > 1 (Watson, Bessel Functions,
    15.81), while j_{1,p+1} - j_{0,p} > 4.5.  The sign check at both ends of
    every bracket confirms it.  The start is the first Newton step of J_k at
    j_{k-1,p}, j_{k-1,p} (1 + 1/k), or j_{k-1,p} + pi/2 if that is nearer.
    So each zero depends only on the zeros below it, not on n.
    """
    if k == 0:
        return _bessel_zeros(0.0, np.arange(1, n + 1))
    lo = below[:n]
    return _newton_zeros(float(k), np.minimum(lo * (1.0 + 1.0 / k), lo + math.pi / 2),
                         lo, lo + math.pi, f"the zeros of J_{k - 1}")


def bessel_zero(nu, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu, for real |nu| < 1.

    The entry m of `_bessel_zeros`, bit for bit.  Over nu in [-0.999, 0.999]
    (41 orders) and m in 1..10, 20, 50, 100, 200 its relative error against
    40-digit mpmath is at most 9.7e-16, and zeros are strictly increasing in m.
    """
    return float(_bessel_zeros(_number(nu, "Bessel order nu", -1.0, 1.0),
                               [_count(m, "zero index m")])[0][0])


def radial_norm_gamma(params: WeightParams, m: int) -> float:
    """Normalization gamma_m = [int_0^{2R} t J_{-alpha}(j_m t / (2R))^2 dt]^{-1/2}.

    Solves for the zero j_m = j_{-alpha,m} (m gated as in `bessel_zero`) and
    takes J_{1-alpha} there from the same solve (`_radial_norm`).
    """
    m = _count(m, "zero index m")
    return float(_radial_norm(params, _bessel_zeros(-params.alpha, [m])[1])[0])


def _radial_norm(params: WeightParams, slopes: np.ndarray) -> np.ndarray:
    """gamma_m from J_{1-alpha}(j_m) at each zero j_m = j_{-alpha,m} of J_{-alpha}.

    The Lommel closed form of the integral at a zero,
    int_0^j t J_nu(t)^2 dt = j^2 J_nu'(j)^2 / 2 with J_nu'(j) = -J_{nu+1}(j),
    gives gamma_m = 1 / (sqrt(2) R |J_{1-alpha}(j_m)|).
    """
    return 1.0 / (math.sqrt(2.0) * params.R * np.abs(slopes))


@lru_cache(maxsize=1)
def _k_regions() -> tuple[np.ndarray, tuple[int, ...]]:
    """Increasing bounds of the x regions of `_power_bessel_k` and the node count of each rule region.

    Region 0 is x < 1e-140; regions 1 to 7 take the trapezoid rule on 2617
    (enough at x = 1e-140, where nu t stays below 2 * 327, so cosh(nu t)
    does not overflow), 2048, 1024, ..., 64 nodes, each region from the x
    where its count reaches x (cosh t - 1) = 48 (64 nodes from x = 0.0365
    on, so a profile's usual arguments take one pass); region 8 is
    [30, 750) and region 9 the rest.
    """
    first = math.ceil(math.acosh(1.0 + _K_TAIL / _K_TINY) / _K_STEP) + 1
    counts = (first,) + tuple(2 ** k for k in range(11, 5, -1))
    bounds = np.array([_K_TINY] + [_K_TAIL / (math.cosh((n - 1) * _K_STEP) - 1.0)
                                   for n in counts[1:]] + [_K_ASYMPTOTIC_START, _K_UNDERFLOW])
    bounds.flags.writeable = False
    return bounds, counts


@lru_cache(maxsize=64)
def _k_weights(nu: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """1 - cosh t_j = -2 sinh^2(t_j / 2) and the trapezoid weights h cosh(nu t_j), t_j = j h, j < n."""
    t = _K_STEP * np.arange(n)
    fall = -2.0 * np.sinh(t / 2.0) ** 2
    w = _K_STEP * np.cosh(nu * t)
    w[0] /= 2.0
    fall.flags.writeable = False
    w.flags.writeable = False
    return fall, w


@lru_cache(maxsize=64)
def _k_asymptotic_coefficients(nu: float) -> np.ndarray:
    """a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k) of DLMF 10.40.2, 30 terms (read-only)."""
    a = np.ones(_K_TERMS)
    for k in range(1, _K_TERMS):
        a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
    a.flags.writeable = False
    return a


def _k_region(nu: float, r: int, x: np.ndarray) -> np.ndarray:
    """x^nu K_nu(x) on the points of region r of `_k_regions`."""
    counts = _k_regions()[1]
    if r == 0:
        second = 0.0 if float(nu).is_integer() else 2.0 ** (-nu - 1.0) * math.gamma(-nu)
        return 2.0 ** (nu - 1.0) * math.gamma(nu) + second * x ** (2.0 * nu)
    if r <= len(counts):
        fall, w = _k_weights(nu, counts[r - 1])
        exponent = np.multiply.outer(x, fall)
        np.maximum(exponent, -700.0, out=exponent)  # e^-700 adds nothing, and no exp underflows
        return x ** nu * np.exp(-x) * np.einsum("ij,j->i", np.exp(exponent, out=exponent), w)
    if r == len(counts) + 1:
        series = np.einsum("ik,k->i", (1.0 / x)[:, None] ** np.arange(_K_TERMS),
                           _k_asymptotic_coefficients(nu))
        return x ** nu * np.exp(-x) * np.sqrt(math.pi / (2.0 * x)) * series
    return np.zeros(x.size)


def _power_bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """x^nu K_nu(x) for an order nu in (0, 2) at the points x > 0 (inf gives 0).

    - x < 1e-140: 2^{nu-1} Gamma(nu) + 2^{-nu-1} Gamma(-nu) x^{2 nu}, the two
      leading terms of the small-x expansion (DLMF 10.27.4, 10.25.2); the
      next are O(x^2) relative.
    - x < 30: x^nu e^{-x} h sum' e^{-x (cosh t_j - 1)} cosh(nu t_j),
      t_j = j h, h = 1/8: the trapezoid rule on DLMF 10.32.9, whose
      integrand is analytic in the strip |Im t| < pi/2, so its error is about
      e^{x - pi^2 / h}; the sum, of positive terms, runs at least to
      x (cosh t - 1) = 48, on the node count of the point's region
      (`_k_regions`).
    - x >= 30: DLMF 10.40.2 with 30 terms; 0 from x = 750, where e^{-x} underflows.
    Each point's value does not depend on the other points.
    """
    bounds, _ = _k_regions()
    region = np.searchsorted(bounds, x, side="right")
    present = np.flatnonzero(np.bincount(region, minlength=bounds.size + 1)).tolist()
    if len(present) == 1:
        return _k_region(nu, present[0], x)
    out = np.empty(x.shape)
    for r in present:
        pick = region == r
        out[pick] = _k_region(nu, r, x[pick])
    return out
