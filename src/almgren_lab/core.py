"""Parameter bundle, weighted rules and quadrature on the half ball and half sphere.

Geometry conventions used throughout the package:

* Points of the upper half space are z = (x, t) with x in R^N and t > 0;
  the degenerate measure is t^b dz with b in (-1, 1).
* For N >= 2 a point of the unit half sphere S^N_+ is (sin(psi) w, cos(psi))
  with w in S^{N-1} and polar angle psi in [0, pi/2], so the vertical
  coordinate is theta_{N+1} = cos(psi) and the equator is {psi = pi/2}.
* For N = 1 the half circle is parameterized by a single angle phi in (0, pi),
  the point being (cos(phi), sin(phi)); the weight along the arc is sin(phi)^b.

Every quadrature in the package runs on one family of rules, `gauss_jacobi`
(the finite-volume cross-checks integrate with their own cell masses): the
degenerate power of the integration variable is the Jacobi weight, so it is
never evaluated at 0 and smooth integrands converge spectrally.
`split_gauss_jacobi` puts that weight on a short head panel and covers the
rest with Gauss-Legendre, so a new exponent costs a small head only.

Sampled fields are integrated over B_r^+ and S_r^+ by one private tensor
rule, `_HalfBallRule` (a radial rule times an `AngularGrid1D`), behind the
radius gate `_check_radius` and the sample gate `_finite`:
`integrate_halfball`, `integrate_halfsphere` and the inequality margins.

The Gamma functions come from `math` (`_log_gamma_ratio`); `gauss_jacobi`
imports `scipy.linalg` on its first rule, so importing this loads no scipy.
Rules are not changed after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_RADIAL_NODES = 128
DEFAULT_ANGULAR_NODES = 128
# `gauss_jacobi` builds all n^2 eigenvector entries (8 n^2 bytes; 34 GB at
# n = 65536), so its node count is capped.
MAX_GAUSS_NODES = 2048
# `split_gauss_jacobi`: the Jacobi-weighted head panel [0, SPLIT_POINT] and
# its node count, the only part of that rule that depends on the exponent.
SPLIT_POINT = 0.25
SPLIT_HEAD_NODES = 32


class AlmgrenLabError(Exception):
    """Base class for library errors."""


class DomainError(AlmgrenLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InputError(AlmgrenLabError, ValueError):
    """Malformed input (non-finite samples, inconsistent shapes, ...)."""


class RegimeError(DomainError):
    """Operation requires the dimensional regime N > 2s."""


class ResolutionError(AlmgrenLabError):
    """Requested output needs a finer discretization; message suggests one."""


class SolverError(AlmgrenLabError):
    """A linear or eigen solve failed; message carries a condition estimate."""


class VanishingDenominatorError(AlmgrenLabError):
    """H(r) is not positive at the requested radius."""


class ClassificationError(AlmgrenLabError):
    """No candidate exponent explains the data within tolerance."""


class UnmatchedExponentError(AlmgrenLabError):
    """Extrapolated vanishing order matches no spectral exponent."""


class TraceProportionalityError(AlmgrenLabError):
    """Frequency-wise trace ratio is not constant within tolerance."""


@dataclass(frozen=True)
class WeightParams:
    """Parameter bundle (s, b, N, R) for the degenerate weight t^b, b = 3 - 2s.

    The weight exponent is derived, so ``b == 3 - 2*s`` holds exactly.  The
    flag `paper_regime` is true iff N > 2s; computations are permitted outside
    that regime but several estimates only hold inside it.
    """

    s: float
    N: int
    R: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.s < 2.0):
            raise DomainError(f"order s must lie in (1, 2), got {self.s}")
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"dimension N must be an integer >= 1, got {self.N}")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise DomainError(f"reference radius R must be positive, got {self.R}")
        object.__setattr__(self, "N", int(self.N))

    @classmethod
    def from_b(cls, b: float, N: int, R: float = 1.0) -> "WeightParams":
        if not (-1.0 < b < 1.0):
            raise DomainError(f"weight exponent b must lie in (-1, 1), got {b}")
        return cls(s=(3.0 - b) / 2.0, N=N, R=R)

    @property
    def b(self) -> float:
        return 3.0 - 2.0 * self.s

    @property
    def alpha(self) -> float:
        """Bessel-order parameter alpha = (1 - b)/2 = s - 1, in (0, 1)."""
        return (1.0 - self.b) / 2.0

    @property
    def paper_regime(self) -> bool:
        return self.N > 2.0 * self.s


def _log_gamma_ratio(x: float, y: float, d: float | None = None) -> float:
    """log(Gamma(x) / Gamma(y)) for x, y > 0, given the exact d = x - y if known.

    With both arguments at least 20 this is the difference of two Stirling
    series to z^-9 (DLMF 5.11.1), the leading logs written as
    (x - 1/2) log1p(d/y) + d (log y - 1), which does not cancel for close x
    and y as a `math.lgamma` difference does (1e-12 near 700).  A caller that
    forms x and y as j + a and j + c passes d = a - c: the rounding of j + a
    then enters only through log1p(d/y), where forming x - y, or the Gammas of
    x and y, would carry psi(j) ulp(j) into the result.  Otherwise, while both
    Gammas are finite (arguments below 171), it is the log of the quotient of
    `math.gamma` values: on (0, 3) those are within 3 ulp, where `math.lgamma`
    is off by up to 6 ulp of its value, and the `hemisphere` mode amplitudes of
    low degree come out up to 3 times closer to 40-digit values than from
    `math.lgamma` differences.  With one argument below 20 and the other past
    171 the ratio is at least Gamma(171)/Gamma(20), and the `math.lgamma`
    difference is exact enough.
    """
    if min(x, y) >= 20.0:
        d = x - y if d is None else d
        tail = [(1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z
                for z, w in ((x, 1.0 / (x * x)), (y, 1.0 / (y * y)))]
        return (x - 0.5) * math.log1p(d / y) + d * (math.log(y) - 1.0) + (tail[0] - tail[1])
    if x < 171.0 and y < 171.0:
        return math.log(math.gamma(x) / math.gamma(y))
    return math.lgamma(x) - math.lgamma(y)


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^dim embedded in R^{dim+1}."""
    if dim < 0:
        raise DomainError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def weighted_angular_moment(exp_sin: float, exp_cos: float) -> float:
    """Closed form of the quarter-period moment int_0^{pi/2} sin^a cos^c dpsi."""
    if exp_sin <= -1 or exp_cos <= -1:
        raise DomainError("moment exponents must exceed -1")
    x, y = (exp_sin + 1) / 2.0, (exp_cos + 1) / 2.0
    return 0.5 * math.exp(_log_gamma_ratio(x, x + y) + _log_gamma_ratio(y, 1.0))


# An inequality margin at a fresh s adds two 32-node rules.  With 32 entries
# that stream evicted the Sobolev trace rule gauss_jacobi(64, N - 1) between
# uses: 74-81 rebuilds in a 960-margin `inequality_sweep` plan, 4-6 with 128.
@lru_cache(maxsize=128, typed=True)   # typed: True must not hit the entry of 1
def gauss_jacobi(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with n nodes for int_0^1 x^p f(x) dx (read-only arrays).

    The Jacobi(0, p) rule of DLMF 3.5(v) on (0, 1), exact for polynomial f of
    degree <= 2n - 1 and spectrally accurate for smooth f.  Golub-Welsch: the
    nodes are the eigenvalues of the shifted Jacobi matrix and the weights
    the squared first eigenvector components times int_0^1 x^p dx.  Unlike
    `scipy.special.roots_jacobi`, whose weights lose digits as p nears -1
    (moment errors 8e-10 at n = 192, p = -0.9), this keeps the moments to
    roundoff.  Requires 1 <= n <= MAX_GAUSS_NODES and p > -1.  scipy.linalg
    is imported here, on the first rule built, not with the package.
    """
    from scipy.linalg import eigh_tridiagonal

    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"Gauss node count must be an integer >= 1, got {n!r}")
    if n > MAX_GAUSS_NODES:
        raise DomainError(f"Gauss node count {n} exceeds the cap of {MAX_GAUSS_NODES}")
    if not p > -1.0:
        raise DomainError(f"exponent p = {p} is not integrable at 0")
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + p
    diag = np.empty(n)
    diag[0] = p / (p + 2.0)
    diag[1:] = p * p / (c * (c + 2.0))
    off = 2.0 * k * (k + p) / (c * np.sqrt(c * c - 1.0))
    nodes, vecs = eigh_tridiagonal(0.5 * (1.0 + diag), 0.5 * off)
    weights = vecs[0] ** 2 / (p + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def split_gauss_jacobi(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule, SPLIT_HEAD_NODES + n nodes, for int_0^1 x^p f(x) dx (read-only).

    The head panel [0, SPLIT_POINT] carries x^p as its Jacobi weight,
    `gauss_jacobi(SPLIT_HEAD_NODES, p)` scaled; the body [SPLIT_POINT, 1] is
    Gauss-Legendre, `gauss_jacobi(n, 0.0)`, with the smooth factor x^p folded
    into its weights.  A fresh p therefore costs one 32-node eigensolve, while
    the p-free body comes from `gauss_jacobi`'s cache.  Nodes increase; the
    preconditions are those of `gauss_jacobi`.
    """
    h = SPLIT_POINT
    xb, wb = gauss_jacobi(n, 0.0)
    xh, wh = gauss_jacobi(SPLIT_HEAD_NODES, p)
    body = h + (1.0 - h) * xb
    nodes = np.concatenate([h * xh, body])
    weights = np.concatenate([h ** (p + 1.0) * wh, (1.0 - h) * wb * body ** p])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _sinc_ratio(u: np.ndarray) -> np.ndarray:
    """sin(u)/u with the removable singularity filled in."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    nz = u != 0.0
    out[nz] = np.sin(u[nz]) / u[nz]
    return out


@dataclass(frozen=True)
class AngularGrid1D:
    """Quadrature nodes for the polar interval with weight theta^b.

    For N >= 2 the nodes live on (0, pi/2] and `weights` integrate
    int_0^{pi/2} g(psi) sin^{N-1}(psi) cos^b(psi) dpsi (the "bare" integral;
    multiply by `area_factor` for the full integral of an axisymmetric g over
    S^N_+).  For N = 1 the nodes cover (0, pi) with weight sin^b(phi) and
    `area_factor` is 1.  `gauss` makes the grid: a Gauss-Jacobi rule with the
    degenerate factor u^b as its weight, which never evaluates the factor at
    u = 0.
    """

    N: int
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def area_factor(self) -> float:
        return 1.0 if self.N == 1 else unit_sphere_area(self.N - 1)

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def gauss(cls, N: int, b: float, n: int) -> "AngularGrid1D":
        """Gauss-Jacobi grid: n nodes per quarter period in u = pi/2 - psi.

        The degenerate factor u^b is the Jacobi weight; (sin u / u)^b and, for
        N >= 2, sin^{N-1}(psi) go into the weights, so smooth axisymmetric
        integrands converge spectrally.  For N = 1 the arc (0, pi) is covered
        by two mirrored halves, u = phi and u = pi - phi, with n nodes each.
        """
        x, w = gauss_jacobi(n, b)
        half = math.pi / 2.0
        u = half * x
        wu = w * half ** (b + 1.0) * _sinc_ratio(u) ** b
        if N == 1:
            phi = np.concatenate([u, math.pi - u[::-1]])
            return cls(N=N, b=b, nodes=phi, weights=np.concatenate([wu, wu[::-1]]))
        psi = half - u
        return cls(N=N, b=b, nodes=psi[::-1], weights=(wu * np.sin(psi) ** (N - 1))[::-1])

    def integrate_bare(self, values: np.ndarray) -> float:
        """The bare integral of `values` on the nodes, gated by `_finite`."""
        return float(self.weights @ _finite(values, self.nodes.shape))


class _Points(NamedTuple):
    """One point set of the upper half space, in polar (rho, angle) and in (q, t) form.

    On a rule's sets rho and angle broadcast against each other; for scattered
    points rho = hypot(q, t) and `angle` is None."""

    rho: np.ndarray
    angle: np.ndarray | None
    q: np.ndarray
    t: np.ndarray


def _check_radius(r: float) -> None:
    if not (r > 0 and math.isfinite(r)):
        raise DomainError(f"radius must be positive and finite, got {r}")


def _finite(values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """`values` as a float array, refused unless finite (and of `shape`, if given)."""
    values = np.asarray(values, dtype=float)
    if shape is not None and values.shape != shape:
        raise InputError("field sample has wrong shape")
    if not np.all(np.isfinite(values)):
        raise InputError("non-finite field sample")
    return values


class _HalfBallRule:
    """Tensor rule on B_r^+ and S_r^+ and the polar point sets fields are sampled on.

    `radial` is a rule for int_0^1 x^p f(x) dx in rho / r, so `ball` integrates
    t^b rho^{p-N-b} times a sample; `sphere` needs no radial rule.  Callers
    check r with `_check_radius` first."""

    def __init__(self, params: WeightParams, r: float, angular: AngularGrid1D,
                 radial: tuple[np.ndarray, np.ndarray] | None = None, p: float = 0.0):
        self.params, self.r, self.angular, self.p = params, r, angular, p
        if radial is not None:
            x, self.radial_weights = radial
            self.rho = (x * r)[:, None]

    def ball_points(self) -> _Points:
        ang = self.angular.nodes[None, :]
        return _Points(self.rho, ang, *angle_to_xt(self.params, self.rho, ang))

    def sphere_points(self) -> _Points:
        ang = self.angular.nodes
        return _Points(np.asarray(self.r, dtype=float), ang,
                       *angle_to_xt(self.params, self.r, ang))

    def ball(self, values, rho_power: int = 0) -> float:
        """int_{B_r^+} t^b rho^{p - N - b + rho_power} values dz, `values` on the ball points."""
        if rho_power:
            values = values * self.rho ** rho_power
        inner = _finite(values, (self.rho.size, self.angular.nodes.size)) @ self.angular.weights
        return float(self.angular.area_factor * self.r ** (self.p + 1.0)
                     * (self.radial_weights @ inner))

    def sphere(self, values) -> float:
        """int_{S_r^+} t^b values dS, `values` on the angular nodes (gated by `integrate_bare`)."""
        ang = self.angular
        return float(self.r ** (self.params.N + self.params.b) * ang.area_factor
                     * ang.integrate_bare(values))


def integrate_halfball(
    f,
    params: WeightParams,
    r: float,
    *,
    grid: AngularGrid1D | None = None,
    n_radial: int = DEFAULT_RADIAL_NODES,
    n_angular: int = DEFAULT_ANGULAR_NODES,
) -> float:
    """Approximate int_{B_r^+} t^b f dz for an axisymmetric field f(rho, angle).

    `f` is a callable receiving broadcastable arrays (rho, angle); the angle
    is the polar angle psi for N >= 2 and the arc angle phi for N = 1.  In
    polar coordinates the measure splits into rho^{N+b} d(rho) times the
    angular weight, so the rule is `_HalfBallRule` with the radial pair
    `gauss_jacobi(n_radial, N+b)` in rho / r and `grid` (by default
    `AngularGrid1D.gauss(N, b, n_angular)`).
    """
    _check_radius(r)
    beta = params.N + params.b
    radial = gauss_jacobi(n_radial, beta)
    rule = _HalfBallRule(params, r, grid or AngularGrid1D.gauss(params.N, params.b, n_angular),
                         radial, beta)
    return rule.ball(f(rule.rho, rule.angular.nodes[None, :]))


def integrate_halfsphere(
    g,
    params: WeightParams,
    r: float,
    *,
    grid: AngularGrid1D | None = None,
    n_angular: int = DEFAULT_ANGULAR_NODES,
) -> float:
    """Approximate int_{S_r^+} t^b g dS for g given as a function of the angle.

    The point associated with angle a on the sphere of radius r is
    r*(sin(a) w, cos(a)) for N >= 2 and r*(cos(a), sin(a)) for N = 1.  The
    rule is the sphere sum of `_HalfBallRule` on `grid`, by default
    `AngularGrid1D.gauss(N, b, n_angular)`; g's values broadcast to the nodes.
    """
    _check_radius(r)
    grid = grid or AngularGrid1D.gauss(params.N, params.b, n_angular)
    values = np.asarray(g(grid.nodes), dtype=float)
    if values.shape != grid.nodes.shape:
        values = np.broadcast_to(values, grid.nodes.shape).astype(float)
    return _HalfBallRule(params, r, grid).sphere(values)


def angle_to_xt(params: WeightParams, r, angle):
    """Cartesian-like coordinates (q, t) of the point at (r, angle).

    q is the signed horizontal coordinate for N = 1 and the horizontal radius
    |x| for N >= 2; t is the vertical coordinate.
    """
    r = np.asarray(r, dtype=float)
    angle = np.asarray(angle, dtype=float)
    if params.N == 1:
        return r * np.cos(angle), r * np.sin(angle)
    return r * np.sin(angle), r * np.cos(angle)
