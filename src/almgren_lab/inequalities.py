"""Numerical verification of the weighted Hardy, Rellich and trace inequalities.

Test fields are axisymmetric, built from primitives whose derivatives are
coded in closed form (axis-centered Gaussians, closed-form separable modes,
quadratic polynomials under a smooth radial cutoff), so the quadrature is the
only approximation entering a margin.  Families are generated reproducibly
from a seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AngularGrid1D,
    DomainError,
    InputError,
    RegimeError,
    WeightParams,
    angle_to_xt,
    gauss_jacobi,
    split_gauss_jacobi,
    unit_sphere_area,
)
from .hemisphere import polynomial_mode

# Node counts per axis: the Gauss-Legendre body of the radial
# `split_gauss_jacobi` rule and the angular Gauss-Jacobi rule.  Both doubled
# move every family's margin by <= 1.3e-11 of its largest term (N = 1..4,
# Hardy and Hardy-Rellich); the radial count is set by the smooth cut-off,
# whose flat edge converges slowest.
DEFAULT_RADIAL_NODES = 192
DEFAULT_ANGULAR_NODES = 32


class GaussianBumps:
    """Sum of axis-centered Gaussians, optionally mirrored evenly across t = 0."""

    def __init__(self, components, mirrored: bool = False):
        self.components = [(float(a), float(c), float(w)) for a, c, w in components]
        self.mirrored = mirrored

    def value(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast(q, t).shape)
        for a, c, w in self.components:
            out += a * np.exp(-(q ** 2 + (t - c) ** 2) / w ** 2)
            if self.mirrored:
                out += a * np.exp(-(q ** 2 + (t + c) ** 2) / w ** 2)
        return out

    def grad(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        gq = np.zeros(np.broadcast(q, t).shape)
        gt = np.zeros_like(gq)
        for a, c, w in self.components:
            g = a * np.exp(-(q ** 2 + (t - c) ** 2) / w ** 2)
            gq += -2.0 * q / w ** 2 * g
            gt += -2.0 * (t - c) / w ** 2 * g
            if self.mirrored:
                gp = a * np.exp(-(q ** 2 + (t + c) ** 2) / w ** 2)
                gq += -2.0 * q / w ** 2 * gp
                gt += -2.0 * (t + c) / w ** 2 * gp
        return gq, gt

    def lap_b(self, q, t, params: WeightParams):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        N, b = params.N, params.b
        out = np.zeros(np.broadcast(q, t).shape)
        tpos = t > 0
        if np.any(~tpos) and not self.mirrored:
            raise DomainError("lap_b at t = 0 requires a mirrored (even) field")
        for a, c, w in self.components:
            g = a * np.exp(-(q ** 2 + (t - c) ** 2) / w ** 2)
            lap = (-2.0 * N / w ** 2 + 4.0 * q ** 2 / w ** 4) * g \
                + (-2.0 / w ** 2 + 4.0 * (t - c) ** 2 / w ** 4) * g
            drift = -2.0 * (t - c) / w ** 2 * g
            if self.mirrored:
                gp = a * np.exp(-(q ** 2 + (t + c) ** 2) / w ** 2)
                lap += (-2.0 * N / w ** 2 + 4.0 * q ** 2 / w ** 4) * gp \
                    + (-2.0 / w ** 2 + 4.0 * (t + c) ** 2 / w ** 4) * gp
                drift = drift + (-2.0 * (t + c) / w ** 2 * gp)
                # even pair: drift/t has the finite limit below at t = 0
                g0 = a * np.exp(-(q ** 2 + c ** 2) / w ** 2)
                limit = -4.0 / w ** 2 * g0 * (1.0 - 2.0 * c ** 2 / w ** 2)
                ratio = np.where(tpos, drift / np.where(tpos, t, 1.0), limit)
            else:
                ratio = drift / t
            out += lap + b * ratio
        return out


def _chi(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 1.0 - 1e-12
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si ** 2))
    return out


def _chi_ratio(s):
    """chi'(s)/s, analytic: -2 chi(s) / (1 - s^2)^2."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 1.0 - 1e-12
    si = s[inside]
    out[inside] = -2.0 * np.exp(1.0 - 1.0 / (1.0 - si ** 2)) / (1.0 - si ** 2) ** 2
    return out


def _chi_second(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 1.0 - 1e-12
    si = s[inside]
    c = np.exp(1.0 - 1.0 / (1.0 - si ** 2))
    one = 1.0 - si ** 2
    out[inside] = c * (4.0 * si ** 2 / one ** 4 - 2.0 / one ** 2 - 8.0 * si ** 2 / one ** 3)
    return out


class QuadraticField:
    """Quadratic polynomial a0 + a1 q^2 + a2 t^2 (meant to sit under a cutoff)."""

    def __init__(self, a0, a1, a2):
        self.a = (a0, a1, a2)

    def value(self, q, t):
        a0, a1, a2 = self.a
        return a0 + a1 * np.asarray(q, dtype=float) ** 2 + a2 * np.asarray(t, dtype=float) ** 2

    def grad(self, q, t):
        _, a1, a2 = self.a
        return 2 * a1 * np.asarray(q, dtype=float), 2 * a2 * np.asarray(t, dtype=float)

    def lap_b(self, q, t, params: WeightParams):
        _, a1, a2 = self.a
        shape = np.broadcast(np.asarray(q), np.asarray(t)).shape
        return np.full(shape, 2 * a1 * params.N + a2 * (2 + 2 * params.b))


class CutoffField:
    """Inner field times the smooth radial cutoff chi(|z| / rho0)."""

    def __init__(self, inner, rho0: float):
        self.inner = inner
        self.rho0 = float(rho0)

    def value(self, q, t):
        rho = np.sqrt(np.asarray(q, dtype=float) ** 2 + np.asarray(t, dtype=float) ** 2)
        return self.inner.value(q, t) * _chi(rho / self.rho0)

    def grad(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        rho = np.sqrt(q ** 2 + t ** 2)
        s = rho / self.rho0
        chi = _chi(s)
        ratio = _chi_ratio(s) / self.rho0 ** 2   # chi'(s) / (s rho0^2)
        f = self.inner.value(q, t)
        fq, ft = self.inner.grad(q, t)
        return chi * fq + f * ratio * q, chi * ft + f * ratio * t

    def lap_b(self, q, t, params: WeightParams):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        rho = np.sqrt(q ** 2 + t ** 2)
        s = rho / self.rho0
        chi = _chi(s)
        ratio = _chi_ratio(s) / self.rho0 ** 2
        second = _chi_second(s) / self.rho0 ** 2
        f = self.inner.value(q, t)
        fq, ft = self.inner.grad(q, t)
        lap_f = self.inner.lap_b(q, t, params)
        lap_chi = second + (params.N + params.b) * ratio
        cross = 2.0 * ratio * (fq * q + ft * t)
        return chi * lap_f + cross + f * lap_chi


class SeparableModeField:
    """Closed-form axisymmetric separable harmonic c1 r^sigma P(psi)."""

    def __init__(self, params: WeightParams, sigma: int, c1: float = 1.0):
        self.params = params
        # axisymmetric means sector k = 0: an odd sigma at N >= 2 raises DomainError
        self.mode = polynomial_mode(params, sigma, k=0)
        self.sigma = float(sigma)
        self.c1 = float(c1)

    def _polar(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        r = np.sqrt(q ** 2 + t ** 2)
        if self.params.N == 1:
            ang = np.arctan2(t, q)
        else:
            ang = np.arctan2(q, t)
        return r, ang

    def value(self, q, t):
        r, ang = self._polar(q, t)
        return self.c1 * r ** self.sigma * self.mode.profile(ang)

    def grad(self, q, t):
        r, ang = self._polar(q, t)
        safe = np.where(r > 0, r, 1.0)
        fr = self.c1 * self.sigma * safe ** (self.sigma - 1.0) * self.mode.profile(ang)
        fa = self.c1 * safe ** (self.sigma - 1.0) * self.mode.profile.deriv(ang)
        fr = np.where(r > 0, fr, 0.0)
        fa = np.where(r > 0, fa, 0.0)
        if self.params.N == 1:
            return fr * np.cos(ang) - fa * np.sin(ang), fr * np.sin(ang) + fa * np.cos(ang)
        return fr * np.sin(ang) + fa * np.cos(ang), fr * np.cos(ang) - fa * np.sin(ang)

    def lap_b(self, q, t, params: WeightParams):
        r, _ = self._polar(q, t)
        return np.zeros_like(r)


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
    scale: float = 1.0
    mirrored: bool = False
    cutoff_radius: float | None = None

    def fields(self):
        rng = np.random.default_rng(self.seed)
        sigmas = [0, 2] if self.params.N >= 2 else [0, 1, 2]
        for _ in range(self.count):
            if self.kind == "bumps":
                ncomp = int(rng.integers(1, 4))
                comps = [
                    (rng.uniform(-1.0, 1.0),
                     rng.uniform(0.15, 0.6) * self.scale,
                     rng.uniform(0.12, 0.3) * self.scale)
                    for _ in range(ncomp)
                ]
                fld = GaussianBumps(comps, mirrored=self.mirrored)
            elif self.kind == "modes":
                sigma = int(rng.choice(sigmas))
                fld = SeparableModeField(self.params, sigma, c1=rng.uniform(0.5, 2.0))
            elif self.kind == "poly":
                inner = QuadraticField(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                fld = CutoffField(inner, self.cutoff_radius or 0.8 * self.scale)
            else:
                raise DomainError(f"unknown family kind {self.kind!r}")
            if self.cutoff_radius is not None and self.kind == "bumps":
                fld = CutoffField(fld, self.cutoff_radius)
            yield fld


def critical_exponent(params: WeightParams) -> float:
    """Critical trace exponent 2N / (N - 2(s-1))."""
    denom = params.N - 2.0 * (params.s - 1.0)
    if denom <= 0:
        raise DomainError("critical exponent undefined: N <= 2(s-1)")
    return 2.0 * params.N / denom


def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be positive and finite, got {radius}")


class _Rules:
    """Gauss-Jacobi rules of one margin call, built once and shared by its integrals.

    The radial rule is `split_gauss_jacobi(n_radial, N+b+extra)` in rho / r:
    rho^{N+b+extra} is the Jacobi weight of its 32-node head panel, and
    `n_radial` counts the nodes of its Gauss-Legendre body.  The angular rule
    is `AngularGrid1D.gauss`.  Both reject node counts below 1 with
    `DomainError`.
    """

    def __init__(self, params: WeightParams, extra_power: float,
                 n_radial: int, n_angular: int):
        self.params = params
        self.p = params.N + params.b + extra_power
        self.radial = split_gauss_jacobi(n_radial, self.p)
        self.angular = AngularGrid1D.gauss(params.N, params.b, n_angular)

    def ball(self, sampler, r: float, rho_power: int = 0) -> float:
        """int_{B_r^+} t^b rho^{extra + rho_power} sampler dz."""
        x, w = self.radial
        rho = (x * r)[:, None]
        q, t = angle_to_xt(self.params, rho, self.angular.nodes[None, :])
        vals = _finite(sampler(q, t))
        if rho_power:
            vals = vals * rho ** rho_power
        inner = vals @ self.angular.weights
        return float(self.angular.area_factor * r ** (self.p + 1.0) * (w @ inner))

    def sphere(self, sampler, r: float) -> float:
        """int_{S_r^+} t^b sampler dS."""
        ang = self.angular
        q, t = angle_to_xt(self.params, r, ang.nodes)
        vals = _finite(sampler(q, t))
        return float(r ** (self.params.N + self.params.b) * ang.area_factor * (ang.weights @ vals))


def _finite(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InputError("non-finite field sample")
    return values


def _grad2(field):
    def sampler(q, t):
        gq, gt = field.grad(q, t)
        return gq ** 2 + gt ** 2
    return sampler


def _value2(field):
    return lambda q, t: field.value(q, t) ** 2


def check_hardy_trace(params: WeightParams, field, r: float,
                      n_radial: int = DEFAULT_RADIAL_NODES,
                      n_angular: int = DEFAULT_ANGULAR_NODES) -> float:
    """Margin (RHS - LHS) of the boundary Hardy inequality on B_r^+.

    LHS = ((N+b-1)/(2r))^2 int t^b U^2, RHS = int t^b |grad U|^2 +
    (N+b-1)/(2r) int_{S_r^+} t^b U^2.  A nonnegative margin (up to roundoff)
    verifies the inequality for this field.  `n_radial` counts the
    Gauss-Legendre body nodes of the radial rule (`split_gauss_jacobi`, whose
    32-node head adds to it) and `n_angular` the angular Gauss-Jacobi nodes.
    """
    _check_radius(r)
    k = (params.N + params.b - 1.0) / (2.0 * r)
    rules = _Rules(params, 0.0, n_radial, n_angular)
    i_u2 = rules.ball(_value2(field), r)
    i_grad = rules.ball(_grad2(field), r)
    i_surf = rules.sphere(_value2(field), r)
    return i_grad + k * i_surf - k ** 2 * i_u2


def check_hardy_rellich(params: WeightParams, field, support_radius: float,
                        n_radial: int = DEFAULT_RADIAL_NODES,
                        n_angular: int = DEFAULT_ANGULAR_NODES) -> float:
    """Margin of the second-order Hardy-Rellich inequality for a compact field.

    Requires the regime N > 2s and a field with lap_b coded; the field must
    vanish near |z| = support_radius (use a cutoff).  All three integrals share
    one radial rule for rho^{N+b-4}; rho^4 and rho^2 go into the samplers.
    The node counts are those of `check_hardy_trace`.
    """
    if not params.paper_regime:
        raise RegimeError(f"Hardy-Rellich requires N > 2s (N = {params.N}, s = {params.s})")
    _check_radius(support_radius)
    gap = params.N - 2.0 * params.s
    rules = _Rules(params, -4.0, n_radial, n_angular)
    i_lap = rules.ball(lambda q, t: field.lap_b(q, t, params) ** 2, support_radius, 4)
    i_u2w = rules.ball(_value2(field), support_radius)
    i_gradw = rules.ball(_grad2(field), support_radius, 2)
    return i_lap - gap ** 2 * i_u2w - 2.0 * gap * i_gradw


def estimate_sobolev_trace_constant(params: WeightParams, family: TestFamily, r: float,
                                    n_radial: int = DEFAULT_RADIAL_NODES,
                                    n_angular: int = DEFAULT_ANGULAR_NODES,
                                    n_trace: int = 64) -> float:
    """Empirical lower-bound candidate for the Sobolev trace constant.

    Minimum over the family of [int t^b |grad U|^2 + (N+b-1)/(2r) surface term]
    divided by the squared critical trace norm of u = U(., 0); the trace is
    read off by one-sided quadratic extrapolation from the three smallest
    t-levels.  Never the sharp constant, only a certified candidate.
    `n_radial` and `n_angular` are those of `check_hardy_trace`; `n_trace`
    counts the Gauss-Jacobi nodes of the trace norm.
    """
    _check_radius(r)
    qstar = critical_exponent(params)
    k = (params.N + params.b - 1.0) / (2.0 * r)
    eps = 1e-3 * r
    best = math.inf
    skipped = 0
    rules = _Rules(params, 0.0, n_radial, n_angular)
    # the trace rule: Gauss-Jacobi in |x| / r with |x|^{N-1} as its weight.
    # |u|^{q*} has a kink where u changes sign, which caps the rule's order:
    # on bump fields 64 nodes agree with 2048 to 5e-15 in the estimate where
    # the trace keeps its sign and to at most 6.4e-6 where it changes sign.
    x, w = gauss_jacobi(n_trace, float(params.N - 1))
    xq, xw = r * x, r ** params.N * w
    for field in family.fields():
        numerator = rules.ball(_grad2(field), r) + k * rules.sphere(_value2(field), r)
        # quadratic extrapolation of U to the t = 0 slice
        v1 = field.value(xq, np.full_like(xq, eps))
        v2 = field.value(xq, np.full_like(xq, 2 * eps))
        v3 = field.value(xq, np.full_like(xq, 3 * eps))
        u = np.abs(_finite(3.0 * v1 - 3.0 * v2 + v3))
        # ||u||_q = M (int (|u|/M)^q)^{1/q} with M = max|u|: q* grows without
        # bound as N nears 2(s-1), and the unscaled |u|^{q*} underflows to 0
        peak = float(u.max())
        mass = float(xw @ (u / peak) ** qstar) if peak > 0.0 else 0.0
        if params.N == 1:
            mass *= 2.0  # even coverage of (-r, r) by the axisymmetric family
            denom_area = 1.0
        else:
            denom_area = unit_sphere_area(params.N - 1)
        norm_sq = peak ** 2 * (denom_area * mass) ** (2.0 / qstar)
        if norm_sq < 1e-28:
            skipped += 1
            warnings.warn("trace vanishes for a family member; skipped", stacklevel=2)
            continue
        best = min(best, numerator / norm_sq)
    if not math.isfinite(best):
        raise DomainError("every family member had vanishing trace")
    return float(best)
