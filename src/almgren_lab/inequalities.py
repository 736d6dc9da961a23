"""Numerical verification of the weighted Hardy, Rellich and trace inequalities.

Test fields are axisymmetric, built from primitives whose derivatives are
coded in closed form (axis-centered Gaussians, one-term syntheses of a
separable mode, quadratic polynomials under a smooth radial cutoff), so the
quadrature is the only approximation entering a margin.  Families are
generated reproducibly from a seed.

A margin gates its radius and node counts with `core`'s predicates, builds
the sampled half-ball rule once (its sums refuse non-finite samples), takes
one polar point set per radius from it and samples each
field once on it.  A built-in field evaluates U, grad U and D_b U in one pass,
sharing its exponentials, and its `value`, `grad` and `lap_b` are views of
that pass.  Any other object with `value` and `grad` (and `lap_b` for
Hardy-Rellich) serves as a field too; it is called once per method and point
set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AngularGrid1D,
    DomainError,
    RegimeError,
    WeightParams,
    _count,
    _finite,
    _HalfBallRule,
    _number,
    _Points,
    _radius,
    gauss_jacobi,
    split_gauss_jacobi,
)
from .hemisphere import polynomial_mode, sphere_harmonic_value
from .synthesis import SeparableSolution, Term, _term_parts

# Node counts per axis: the Gauss-Legendre body of the radial
# `split_gauss_jacobi` rule and the angular Gauss-Jacobi rule.  Both doubled
# move every family's margin by <= 1.3e-11 of its largest term (N = 1..4,
# Hardy and Hardy-Rellich); the radial count is set by the smooth cut-off,
# whose flat edge converges slowest.
SPLIT_BODY_NODES = 192
MARGIN_ANGULAR_NODES = 32


def _scattered(q, t) -> _Points:
    q, t = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(t, dtype=float))
    return _Points(np.hypot(q, t), None, q, t)


class _Field:
    """A built-in test field: `value`, `grad` and `lap_b` are views of `_eval`.

    `_eval(points, params=None)` returns (U, U_q, U_t, D_b U) on a `_Points`
    set in one pass, D_b U only when `params` is given (else None).
    """

    def value(self, q, t):
        return self._eval(_scattered(q, t))[0]

    def grad(self, q, t):
        return self._eval(_scattered(q, t))[1:3]

    def lap_b(self, q, t, params: WeightParams):
        return self._eval(_scattered(q, t), params)[3]


def _sample(field, points: _Points, params: WeightParams | None = None):
    """(U, U_q, U_t, D_b U or None) of `field` on `points`.

    The one fork of the sampling: a built-in field evaluates all four in one
    pass; any other object with `value` and `grad` (and `lap_b` when `params`
    is given) is called once per method.
    """
    if isinstance(field, _Field):
        return field._eval(points, params)
    q, t = points.q, points.t
    lap = None if params is None else field.lap_b(q, t, params)
    return (field.value(q, t), *field.grad(q, t), lap)


class GaussianBumps(_Field):
    """Sum of axis-centered Gaussians, optionally mirrored evenly across t = 0.

    A mirrored pair g-(q, t) + g+(q, t), centered at t = c and t = -c, is
    anchored on the bump nearer the point, g_n, with the farther one
    g_f = g_n e^{-2x}, x = 2|c t| / w^2, and g_f - g_n = g_n e (2 + e) for
    e = expm1(-x): one exp and one expm1 per pair and node.  Its t-derivative
    is then -2k [t (g- + g+) + c (g+ - g-)] with k = 1 / w^2, two terms of
    order t, so U_t / t keeps its digits as t -> 0, where the per-bump form
    (t -/+ c) g-/+ cancels like c / t.
    """

    def __init__(self, components, mirrored: bool = False):
        self.components = [
            (_number(a, "bump amplitude"), _number(c, "bump centre"),
             _radius(w, "bump width", power=2.0))
            for a, c, w in _finite(components, "bump components", (None, 3), False).tolist()]
        self.mirrored = mirrored

    def _eval(self, points, params=None):
        q, t = points.q, points.t
        if params is not None:
            tpos = t > 0
            if not (self.mirrored or tpos.all()):
                raise DomainError("lap_b at t = 0 requires a mirrored (even) field")
        q2 = q * q
        u = np.zeros(np.broadcast(q, t).shape)
        kg = np.zeros_like(u)           # sum of g / w^2: U_q = -2 q kg
        ut = np.zeros_like(u)
        lap = None if params is None else np.zeros_like(u)
        if self.mirrored:
            t_abs, t_sign = np.abs(t), np.sign(t)
        for a, c, w in self.components:
            w2 = w ** 2
            k = 1.0 / w2
            if self.mirrored:
                c_abs = abs(c)
                rr = q2 + (t_abs - c_abs) ** 2          # the nearer bump
                g = a * np.exp(-rr / w2)
                e = np.expm1(-2.0 * c_abs * t_abs / w2)
                g_far = g * (1.0 + e) ** 2
                pair = g + g_far
                u += pair
                kg += k * pair
                # t (g- + g+) + c (g+ - g-), where c (g+ - g-) = sign(t) |c| (g_f - g_n)
                ut -= 2.0 * k * (t * pair + t_sign * c_abs * (g * e * (2.0 + e)))
                if lap is not None:
                    rr_far = q2 + (t_abs + c_abs) ** 2
                    lap += ((4.0 * k * rr - 2.0 * (params.N + 1)) * g
                            + (4.0 * k * rr_far - 2.0 * (params.N + 1)) * g_far) * k
            else:
                d = t - c
                rr = q2 + d * d
                g = a * np.exp(-rr / w2)        # the one exponential per bump and node
                u += g
                gk = k * g
                kg += gk
                ut -= 2.0 * d * gk
                if lap is not None:     # D_b g = (4 k rr - 2 (N + 1)) k g + b g_t / t
                    lap += (4.0 * k * rr - 2.0 * (params.N + 1)) * gk
        if lap is not None:
            if tpos.all():
                lap += params.b * (ut / t)
            else:
                # even pair: U_t / t has this finite limit at t = 0
                limit = sum(-4.0 * a / w ** 2 * (1.0 - 2.0 * c * c / w ** 2)
                            * np.exp(-(q2 + c * c) / w ** 2) for a, c, w in self.components)
                lap += params.b * np.where(tpos, ut / np.where(tpos, t, 1.0), limit)
        return u, -2.0 * q * kg, ut, lap


class QuadraticField(_Field):
    """Quadratic polynomial a0 + a1 q^2 + a2 t^2 (meant to sit under a cutoff)."""

    def __init__(self, a0, a1, a2):
        self.a = tuple(_number(a, "coefficient") for a in (a0, a1, a2))

    def _eval(self, points, params=None):
        a0, a1, a2 = self.a
        q, t = points.q, points.t
        u = a0 + a1 * q ** 2 + a2 * t ** 2
        lap = None if params is None else np.full(u.shape, 2 * a1 * params.N
                                                  + a2 * (2 + 2 * params.b))
        return u, 2 * a1 * q, 2 * a2 * t, lap


class CutoffField(_Field):
    """Inner field times the smooth radial cutoff chi(|z| / rho0), chi(s) = exp(1 - 1/(1-s^2))."""

    def __init__(self, inner, rho0: float):
        self.inner = inner
        self.rho0 = _radius(rho0, "cutoff radius", power=2.0)

    def _eval(self, points, params=None):
        f, fq, ft, lap_f = _sample(self.inner, points, params)
        s = points.rho / self.rho0
        inside = s < 1.0 - 1e-12
        one = np.where(inside, 1.0 - s ** 2, 1.0)
        chi = np.where(inside, np.exp(1.0 - 1.0 / one), 0.0)     # the one exponential
        ratio = -2.0 * chi / one ** 2 / self.rho0 ** 2            # chi'(s) / (s rho0^2)
        q, t = points.q, points.t
        fr = f * ratio
        lap = None
        if params is not None:
            second = chi * (4.0 * s ** 2 / one ** 4 - 2.0 / one ** 2 - 8.0 * s ** 2 / one ** 3) \
                / self.rho0 ** 2
            lap_chi = second + (params.N + params.b) * ratio
            lap = chi * lap_f + 2.0 * ratio * (fq * q + ft * t) + f * lap_chi
        return chi * f, chi * fq + fr * q, chi * ft + fr * t, lap


class SeparableModeField(_Field):
    """Separable harmonic c1 r^sigma P(psi), D_b U = V = 0: the one-term synthesis c1 / Omega_0
    at the exponent sigma (sigma_plus is 1 - N - b for the constant mode at N + b < 1), its parts
    from `synthesis._term_parts` multiplied after the unit vectors.  At rho = 0, grad U is its
    limit: phi / rho is taken as phi'(0), so U = c1 A q (sigma = 1, N = 1) has grad U = (c1 A, 0)
    there and every other sigma has 0."""

    def __init__(self, params: WeightParams, sigma: int, c1: float = 1.0):
        self.params = params
        # axisymmetric means sector k = 0: an odd sigma at N >= 2 raises DomainError
        self.mode = polynomial_mode(params, sigma, k=0)
        self.sigma = float(sigma)
        self.c1 = _number(c1, "coefficient c1")
        term = Term(replace(self.mode, sigma_plus=self.sigma),
                    self.c1 / sphere_harmonic_value(params.N, 0), 0.0)
        self._solution = SeparableSolution(params, (term,))

    def _eval(self, points, params=None):
        rho, ang = points.rho, points.angle
        N1 = self.params.N == 1
        if ang is None:
            ang = np.arctan2(points.t, points.q) if N1 else np.arctan2(points.q, points.t)
        [(_, (phi, dphi, phit, _), p, dp)] = _term_parts(self._solution, rho, ang)
        cos, sin = np.cos(ang), np.sin(ang)
        # (q, t) components of the radial and the angular unit vector
        (eq, et), (aq, at) = ((cos, sin), (-sin, cos)) if N1 else ((sin, cos), (cos, -sin))
        origin = rho == 0.0
        over_rho = np.where(origin, dphi, phi / np.where(origin, 1.0, rho))
        grad = (dphi * (p * eq) + over_rho * (dp * aq), dphi * (p * et) + over_rho * (dp * at))
        return phi * p, *grad, None if params is None else phit * p


@dataclass(frozen=True)
class TestFamily:
    """Reproducible generator of axisymmetric test fields.

    kind: "bumps" (random Gaussian sums), "modes" (closed-form separable
    harmonics) or "poly" (quadratic polynomial under a smooth cutoff).
    """

    __test__ = False  # keep pytest from collecting the library type

    params: WeightParams
    kind: str = "bumps"
    count: int = 20
    seed: int = 0
    mirrored: bool = False
    cutoff_radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("bumps", "modes", "poly"):
            raise DomainError(f"unknown family kind {self.kind!r}")
        _count(self.count, "count")
        _count(self.seed, "seed", 0)
        if self.cutoff_radius is not None:
            _radius(self.cutoff_radius, "cutoff radius", power=2.0)

    def fields(self):
        rng = np.random.default_rng(self.seed)
        sigmas = [0, 2] if self.params.N >= 2 else [0, 1, 2]
        for _ in range(self.count):
            if self.kind == "bumps":
                ncomp = int(rng.integers(1, 4))
                comps = [
                    (rng.uniform(-1.0, 1.0),
                     rng.uniform(0.15, 0.6),
                     rng.uniform(0.12, 0.3))
                    for _ in range(ncomp)
                ]
                fld = GaussianBumps(comps, mirrored=self.mirrored)
            elif self.kind == "modes":
                sigma = int(rng.choice(sigmas))
                fld = SeparableModeField(self.params, sigma, c1=rng.uniform(0.5, 2.0))
            else:   # "poly"
                inner = QuadraticField(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                fld = CutoffField(inner, self.cutoff_radius or 0.8)
            if self.cutoff_radius is not None and self.kind == "bumps":
                fld = CutoffField(fld, self.cutoff_radius)
            yield fld


def critical_exponent(params: WeightParams) -> float:
    """Critical trace exponent 2N / (N - 2(s-1))."""
    denom = params.N - 2.0 * (params.s - 1.0)
    if denom <= 0:
        raise DomainError("critical exponent undefined: N <= 2(s-1)")
    return 2.0 * params.N / denom


def _margin_rule(params: WeightParams, extra_power: float,
                 n_radial: int, n_angular: int, r: float) -> _HalfBallRule:
    """One margin call's rule on B_r^+, shared by its integrals: the radial rule is
    `split_gauss_jacobi(n_radial, N+b+extra)`, `n_radial` its Gauss-Legendre body nodes."""
    p = params.N + params.b + extra_power
    radial = split_gauss_jacobi(n_radial, p)
    return _HalfBallRule(params, r, AngularGrid1D.gauss(params.N, params.b, n_angular), radial, p)


# Overflow while sampling or squaring leaves inf or nan in the samples, which
# the rule's gates turn into InputError; numpy's warning would come first.
_QUIET = {"over": "ignore", "invalid": "ignore"}


def check_hardy_trace(params: WeightParams, field, r: float,
                      n_radial: int = SPLIT_BODY_NODES,
                      n_angular: int = MARGIN_ANGULAR_NODES) -> float:
    """Margin (RHS - LHS) of the boundary Hardy inequality on B_r^+.

    LHS = ((N+b-1)/(2r))^2 int t^b U^2, RHS = int t^b |grad U|^2 +
    (N+b-1)/(2r) int_{S_r^+} t^b U^2.  A nonnegative margin (up to roundoff)
    verifies the inequality for this field.  `n_radial` counts the
    Gauss-Legendre body nodes of the radial rule (`split_gauss_jacobi`, whose
    32-node head adds to it) and `n_angular` the angular Gauss-Jacobi nodes.
    """
    r = _radius(r, power=params.N + 3)
    k = (params.N + params.b - 1.0) / (2.0 * r)
    rules = _margin_rule(params, 0.0, n_radial, n_angular, r)
    with np.errstate(**_QUIET):
        u, uq, ut, _ = _sample(field, rules.ball_points())
        i_u2 = rules.ball(u * u)
        i_grad = rules.ball(uq * uq + ut * ut)
        us = _sample(field, rules.sphere_points())[0]
        i_surf = rules.sphere(us * us)
    return i_grad + k * i_surf - k ** 2 * i_u2


def check_hardy_rellich(params: WeightParams, field, support_radius: float,
                        n_radial: int = SPLIT_BODY_NODES,
                        n_angular: int = MARGIN_ANGULAR_NODES) -> float:
    """Margin of the second-order Hardy-Rellich inequality for a compact field.

    Requires the regime N > 2s and a field with lap_b coded; the field must
    vanish near |z| = support_radius (use a cutoff).  All three integrals share
    one radial rule for rho^{N+b-4}; rho^4 and rho^2 multiply the samples.
    The node counts are those of `check_hardy_trace`.
    """
    if not params.paper_regime:
        raise RegimeError(f"Hardy-Rellich requires N > 2s (N = {params.N}, s = {params.s})")
    support_radius = _radius(support_radius, power=params.N + 3)
    gap = params.N - 2.0 * params.s
    rules = _margin_rule(params, -4.0, n_radial, n_angular, support_radius)
    with np.errstate(**_QUIET):
        u, uq, ut, lap = _sample(field, rules.ball_points(), params)
        i_lap = rules.ball(lap * lap, 4)
        i_u2w = rules.ball(u * u)
        i_gradw = rules.ball(uq * uq + ut * ut, 2)
    return i_lap - gap ** 2 * i_u2w - 2.0 * gap * i_gradw


def estimate_sobolev_trace_constant(params: WeightParams, family: TestFamily, r: float,
                                    n_radial: int = SPLIT_BODY_NODES,
                                    n_angular: int = MARGIN_ANGULAR_NODES,
                                    n_trace: int = 64) -> float:
    """Empirical lower-bound candidate for the Sobolev trace constant.

    Minimum over the family of [int t^b |grad U|^2 + (N+b-1)/(2r) surface term]
    divided by the squared critical trace norm of u = U(., 0); the trace is
    read off by one-sided quadratic extrapolation from the three smallest
    t-levels.  Never the sharp constant, only a certified candidate.
    `n_radial` and `n_angular` are those of `check_hardy_trace`; `n_trace`
    counts the Gauss-Jacobi nodes of the trace norm.  The point sets are
    built once per family.
    """
    r, n_trace = _radius(r, power=params.N + 3), _count(n_trace, "n_trace")
    qstar = critical_exponent(params)
    k = (params.N + params.b - 1.0) / (2.0 * r)
    eps = 1e-3 * r
    best = math.inf
    rules = _margin_rule(params, 0.0, n_radial, n_angular, r)
    ball, sphere = rules.ball_points(), rules.sphere_points()
    # the trace rule: Gauss-Jacobi in |x| / r with |x|^{N-1} as its weight.
    # |u|^{q*} has a kink where u changes sign, which caps the rule's order:
    # on bump fields 64 nodes agree with 2048 to 5e-15 in the estimate where
    # the trace keeps its sign and to at most 6.4e-6 where it changes sign.
    x, w = gauss_jacobi(n_trace, float(params.N - 1))
    xw = r ** params.N * w
    # the three smallest t-levels, one row each
    level_q, level_t = np.broadcast_arrays(r * x, eps * np.arange(1.0, 4.0)[:, None])
    for field in family.fields():
        with np.errstate(**_QUIET):
            _, uq, ut, _ = _sample(field, ball)
            us = _sample(field, sphere)[0]
            numerator = rules.ball(uq * uq + ut * ut) + k * rules.sphere(us * us)
            # quadratic extrapolation of U to the t = 0 slice
            v = field.value(level_q, level_t)
            u = np.abs(_finite(3.0 * v[0] - 3.0 * v[1] + v[2]))
        # ||u||_q = M (int (|u|/M)^q)^{1/q} with M = max|u|: q* grows without
        # bound as N nears 2(s-1), and the unscaled |u|^{q*} underflows to 0
        peak = float(u.max())
        mass = float(xw @ (u / peak) ** qstar) if peak > 0.0 else 0.0
        if params.N == 1:
            mass *= 2.0  # even coverage of (-r, r) by the axisymmetric family
        norm_sq = peak ** 2 * (rules.angular.area_factor * mass) ** (2.0 / qstar)
        if norm_sq < 1e-28:
            warnings.warn("trace vanishes for a family member; skipped", stacklevel=2)
            continue
        best = min(best, numerator / norm_sq)
    if not math.isfinite(best):
        raise DomainError("every family member had vanishing trace")
    return float(best)
