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
rule, `_HalfBallRule` (a radial rule times an `AngularGrid1D`):
`integrate_halfball`, `integrate_halfsphere` and the inequality margins.

Every argument of a public entry point passes one of five raising
predicates at entry, each returning the converted value: `_number` (a real
scalar in a stated range), `_count` (an integer, not a bool, at or above a
floor), `_radius` (positive, with its powers in the float range, optionally
at most R), `_finite` (a finite float array of a stated shape) and
`_instance` (an object of the lab's own classes, such as a solution or a
mode).  A scalar of the wrong type or range raises `DomainError`; a wrong
shape or a bad entry of an array, list or file, or an object of the wrong
class, raises `InputError`.

The finite-volume cross-checks interpolate their samples with one private
not-a-knot spline, `_CubicSpline`, and solve the profile's system and their
sector eigenproblems with one private batched tridiagonal kernel,
`_Tridiagonal`: odd-even cyclic reduction on row excesses and couplings,
which keeps its pivots (so a symmetric matrix's inertia too) and on a
diagonally dominant M-matrix subtracts nothing.

The Gamma functions come from `math` (`_log_gamma_ratio`) and the Gauss
rules from numpy's `eigh`; the module imports no scipy.
Rules are not changed after construction and every operation is pure.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_RADIAL_NODES = 128
DEFAULT_ANGULAR_NODES = 128
# `gauss_jacobi` builds the dense Jacobi matrix and all its eigenvectors
# (16 n^2 bytes, 64 MiB at n = 2048), so its node count is capped.
MAX_GAUSS_NODES = 2048
# Largest Jacobi exponent p of a rule or moment: (2k + p)^2 and log Gamma of
# the exponents stay in the float range.
_MAX_EXPONENT = 1e150
# `unit_sphere_area` takes the log-Gamma form past this dimension.
_LOG_AREA_DIMENSION = 300
# `split_gauss_jacobi`: the Jacobi-weighted head panel [0, SPLIT_POINT] and
# its node count, the only part of that rule that depends on the exponent.
SPLIT_POINT = 0.25
SPLIT_HEAD_NODES = 32
# `_Tridiagonal`: the most unknowns whose Schur complement it diagonalizes
# densely, once a shift has made its pivots indefinite.
_COARSE_UNKNOWNS = 512
_DOMINANCE = 0.5
# ... and the least pivot size there, in units of its scaled rows.
_LEAST_PIVOT = float(np.finfo(float).eps) ** 2
# `_CubicSpline`: the most knots whose slopes it solves row by row, as LAPACK does.
_SPLINE_ROWS = 64


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


# |log r| below this keeps r and 1/r in the float range, normal numbers included
_LOG_RANGE = math.log(sys.float_info.max) - 1.0
_LN2 = math.log(2.0)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _values(x, name: str, array: bool):
    """x as a float, NaN if it is not a real number; with `array`, as a float array."""
    if array:
        return _finite(x, name, nonfinite=False)
    return float(x) if _is_real(x) else math.nan


def _outside(x, v, ok) -> str | None:
    """None if every entry is `ok`, else the repr to name in the refusal: of the first
    entry of an array v not `ok`, or of x."""
    if isinstance(v, np.ndarray):
        return None if ok.all() else repr(float(v.flat[np.argmin(ok)]))
    return None if ok else repr(v if _is_real(x) else x)


def _number(x, name: str, low: float = -math.inf, high: float = math.inf, ends: str = "()",
            array: bool = False, error=DomainError):
    """x as a float in the interval from low to high with the given `ends` ("()", "[)",
    "(]" or "[]"); with `array`, an array of such numbers is a float array.

    A value that is not a real number (or is a bool) or lies outside raises
    `error`, `DomainError` unless the caller names another; an array entry
    that is not a real number, `InputError`."""
    v = _values(x, name, array)
    ok = (low <= v if ends[0] == "[" else low < v) & (v <= high if ends[1] == "]" else v < high)
    bad = _outside(x, v, ok)
    if bad is not None:
        kind = "a real number" if ends[1] == "]" and high == math.inf else "a finite real number"
        bounded = -low < math.inf or high < math.inf
        where = f" in {ends[0]}{low:g}, {high:g}{ends[1]}" if bounded else ""
        raise error(f"{name} must be {kind}{where}, got {bad}")
    return v


def _count(n, name: str, low: int = 1, high: int | None = None, error=DomainError) -> int:
    """n as an int: an integer (Python or numpy, not a bool) of at least low, at most high.

    Anything else raises `error`, `DomainError` unless the caller names another."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= low
            and (high is None or n <= high)):
        cap = "" if high is None else f", within the cap of {high}"
        raise error(f"{name} must be an integer of at least {low}{cap}, got {n!r}")
    return int(n)


def _radius(r, name: str = "radius", at_most: float | None = None, power: float = 1.0,
            array: bool = False):
    """r as a float, positive with r^+-power in the float range and, if `at_most` is
    given, at most it (to roundoff); with `array`, an array of radii is a float array.

    Refusals are `DomainError`s, as for `_number`; with `at_most` the message
    names the first radius outside (0, at_most]."""
    x = _values(r, name, array)
    span = _LOG_RANGE / power
    ok = (x > math.exp(-span)) & (x < math.exp(span))
    if at_most is not None:
        ok &= x <= at_most * (1 + 1e-12)
    bad = _outside(r, x, ok)
    if bad is not None:
        if at_most is not None:
            raise DomainError(f"{name} {bad} outside (0, {at_most}]")
        raise DomainError(f"{name} must be positive and finite, its +-{power:g} powers "
                          f"within the float range, got {bad}")
    return x


def _instance(x, cls, name: str):
    """x itself if it is an instance of `cls` (a class or a tuple of classes); anything
    else raises `InputError` naming the argument."""
    if not isinstance(x, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise InputError(f"{name} must be a {kinds}, got {type(x).__name__}")
    return x


def _finite(values, name: str = "field sample", shape: tuple | None = None,
            nonfinite: bool = True) -> np.ndarray:
    """`values` as a float array of real numbers, of `shape` if given (None matches any
    length), and finite.

    Every refusal is an `InputError`: entries that are not real numbers, a
    wrong shape, or (unless `nonfinite` is False) a NaN or infinite entry."""
    try:
        arr = np.asarray(values)
    except ValueError:   # a ragged nest of lists
        raise InputError(f"{name} must be an array of real numbers") from None
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{name} must hold real numbers, got entries of dtype {arr.dtype}")
    if shape is not None and arr.shape != shape and not (
            arr.ndim == len(shape) and all(n in (None, m) for n, m in zip(shape, arr.shape))):
        raise InputError(f"{name} has the wrong shape {arr.shape}")
    arr = arr.astype(float, copy=False)
    if nonfinite and not np.isfinite(arr).all():
        raise InputError(f"non-finite {name}")
    return arr


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
        object.__setattr__(self, "s", _number(self.s, "order s", 1.0, 2.0))
        object.__setattr__(self, "N", _count(self.N, "dimension N"))
        object.__setattr__(self, "R", _radius(self.R, "reference radius R"))

    @classmethod
    def from_b(cls, b: float, N: int, R: float = 1.0) -> "WeightParams":
        return cls(s=(3.0 - _number(b, "weight exponent b", -1.0, 1.0)) / 2.0, N=N, R=R)

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
    """Surface measure of the unit sphere S^dim embedded in R^{dim+1}.

    2 pi^h / Gamma(h), h = (dim + 1) / 2; past dimension _LOG_AREA_DIMENSION,
    where Gamma(h) nears the float range (it overflows from dimension 343),
    the exponential of its log-Gamma form.  From dimension 438 on the area is
    below the normal float range, and the dimension raises `DomainError`.
    """
    dim = _count(dim, "sphere dimension", 0)
    half = (dim + 1) / 2.0
    if dim <= _LOG_AREA_DIMENSION:
        return 2.0 * math.pi ** half / math.gamma(half)
    log_area = _LN2 + half * math.log(math.pi) - math.lgamma(half)
    if log_area < -_LOG_RANGE:
        raise DomainError(f"the area of the unit sphere S^{dim}, e^{log_area:.1f}, "
                          f"is below the float range")
    return math.exp(log_area)


def weighted_angular_moment(exp_sin: float, exp_cos: float) -> float:
    """Closed form of the quarter-period moment int_0^{pi/2} sin^a cos^c dpsi."""
    x = (_number(exp_sin, "moment exponent", -1.0, _MAX_EXPONENT) + 1) / 2.0
    y = (_number(exp_cos, "moment exponent", -1.0, _MAX_EXPONENT) + 1) / 2.0
    return 0.5 * math.exp(_log_gamma_ratio(x, x + y, -y) + _log_gamma_ratio(y, 1.0))


def gauss_jacobi(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with n nodes for int_0^1 x^p f(x) dx (read-only arrays).

    The Jacobi(0, p) rule of DLMF 3.5(v) on (0, 1), exact for polynomial f of
    degree <= 2n - 1 and spectrally accurate for smooth f.  Golub-Welsch: the
    nodes are the eigenvalues of the shifted Jacobi matrix and the weights
    the squared first eigenvector components times int_0^1 x^p dx.  Unlike
    `scipy.special.roots_jacobi`, whose weights lose digits as p nears -1
    (moment errors 8e-10 at n = 192, p = -0.9), this keeps the moments to
    roundoff.  Requires 1 <= n <= MAX_GAUSS_NODES and -1 < p < 1e150.  The
    symmetric Jacobi matrix is built dense and solved by `np.linalg.eigh`,
    so the rules load no scipy.  The gate runs before the cache lookup.
    """
    return _gauss_jacobi(_count(n, "Gauss node count", 1, MAX_GAUSS_NODES),
                         _number(p, "exponent p", -1.0, _MAX_EXPONENT))


# An inequality margin at a fresh s adds two 32-node rules.  With 32 entries
# that stream evicted the Sobolev trace rule gauss_jacobi(64, N - 1) between
# uses: 74-81 rebuilds in a 960-margin `inequality_sweep` plan, 4-6 with 128.
@lru_cache(maxsize=128)
def _gauss_jacobi(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + p
    diag = np.empty(n)
    diag[0] = p / (p + 2.0)
    diag[1:] = p * p / (c * (c + 2.0))
    off = 2.0 * k * (k + p) / (c * np.sqrt(c * c - 1.0))
    jacobi = np.diag(0.5 * (1.0 + diag))
    i = np.arange(n - 1)
    jacobi[i, i + 1] = jacobi[i + 1, i] = 0.5 * off
    nodes, vecs = np.linalg.eigh(jacobi)
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


class _Tridiagonal:
    """Tridiagonal T, one per row of a leading batch axis, factored by odd-even cyclic reduction.

    T is given by each row's excess (its row sum) and the couplings of its
    edges: T[i, i] = excess[i] + lower[i - 1] + upper[i],
    T[i + 1, i] = -lower[i] and T[i, i + 1] = -upper[i]; a symmetric T has
    lower = upper.  `excess` has shape (n,) or (batch, n), and `lower` and
    `upper`, n - 1 long, broadcast against it.  Each level eliminates the
    even-numbered unknowns, whose diagonals excess + couplings are the
    level's pivots, and leaves the odd ones a matrix of the same form: odd
    unknown o takes the multipliers a_o = lower[o - 1] / pivot[o - 1] and
    c_o = upper[o] / pivot[o + 1], the excess
    excess[o] + c_o excess[o + 1] + a_o excess[o - 1] (the row sums of the
    Schur complement) and the couplings a_o lower[o - 2] and
    c_o upper[o + 1] to its odd neighbours; every step adds the right
    neighbour's term before the left's.  floor(log2 n) + 1 levels
    eliminate all, and each keeps its pivots and multipliers.  This is
    Gaussian elimination without pivoting in the levels' order: stable while
    the pivots are positive, as for a diagonally dominant T with a positive
    diagonal or a positive definite one (Cholesky in that order).  With
    nonnegative excesses and couplings (a diagonally dominant M-matrix)
    every step adds nonnegative terms, as in the GTH algorithm for Markov
    chains, so the factor, and x = T^-1 r for r >= 0, are accurate entry by
    entry to a few eps, whatever T's condition number.  For a symmetric T it
    is the congruence L D L^T, so by Sylvester's law of inertia `negatives`
    is the count of negative eigenvalues (Parlett, The Symmetric Eigenvalue
    Problem, 3.3).

    A symmetric T shifted into its spectrum is indefinite: a pivot can come
    near 0 (a shift near an eigenvalue of the unknowns eliminated so far) and
    blow up the levels after it.  So once at most _COARSE_UNKNOWNS unknowns
    are left and a level's pivots do not all exceed _DOMINANCE times their
    rows' couplings (which bounds its multipliers by 1 / _DOMINANCE), the
    Schur complement left, scaled symmetrically by its rows' absolute sums,
    is solved row by row with partial pivoting (`_eliminate_rows`) and its
    inertia counted by the Sturm recurrence.  In both a pivot below eps^2 in
    size is taken as -eps^2, as LAPACK's bisection and inverse iteration
    perturb theirs, so a shift at an eigenvalue gives a large finite
    solution, not a division by zero.
    """

    def __init__(self, excess, lower, upper):
        self.levels = []
        self.coarse = None
        while excess.shape[-1]:
            m = excess.shape[-1] // 2                   # odd unknowns
            left, right = lower[..., 1::2], upper[..., 0::2]   # each pivot's, to its odd neighbours
            pivots = excess[..., 0::2].copy()
            pivots[..., :m] += right
            pivots[..., 1:] += left
            if excess.shape[-1] <= _COARSE_UNKNOWNS:
                bound = np.zeros(pivots.shape)
                bound[..., :m] += np.abs(right)
                bound[..., 1:] += np.abs(left)
                if not np.all(pivots > _DOMINANCE * bound):
                    # T's rows, lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1]
                    diag = excess.copy()
                    diag[..., 1:] += lower
                    diag[..., :-1] += upper
                    low, up = np.zeros(diag.shape), np.zeros(diag.shape)
                    low[..., 1:], up[..., :-1] = -lower, -upper
                    sums = np.abs(low) + np.abs(diag) + np.abs(up)
                    scale = 1.0 / np.sqrt(np.where(sums > 0.0, sums, 1.0))
                    self.coarse = (low * scale * np.roll(scale, 1, axis=-1), diag * scale * scale,
                                   up * scale * np.roll(scale, -1, axis=-1), scale)
                    break
            k = pivots.shape[-1] - 1                    # odd unknowns with a right pivot
            a = lower[..., 0::2] / pivots[..., :m]
            c = upper[..., 1::2] / pivots[..., 1:]
            pivot_excess = excess[..., 0::2]
            excess = excess[..., 1::2].copy()
            excess[..., :k] += c * pivot_excess[..., 1:]
            excess += a * pivot_excess[..., :m]
            lower, upper = a[..., 1:] * left[..., :m - 1], c[..., :m - 1] * right[..., 1:]
            self.levels.append((pivots, left, right, a, c))

    @property
    def negatives(self) -> np.ndarray:
        """The count of negative eigenvalues of a symmetric T, per batch row."""
        count = sum(np.count_nonzero(pivots < 0.0, axis=-1) for pivots, *_ in self.levels)
        if self.coarse is not None:
            lower, diag, upper, _ = self.coarse
            d = diag[..., 0]
            for i in range(diag.shape[-1]):
                if i:
                    d = diag[..., i] - lower[..., i] * upper[..., i - 1] / d
                d = np.where(np.abs(d) < _LEAST_PIVOT, -_LEAST_PIVOT, d)
                count = count + (d < 0.0)
        return count

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with T x = r, for r broadcasting against T's batch shape."""
        down = []
        for _, _, _, a, c in self.levels:
            z = r[..., 0::2]
            r = r[..., 1::2].copy()
            r[..., :c.shape[-1]] += c * z[..., 1:]
            r += a * z[..., :a.shape[-1]]
            down.append(z)
        x = r
        if self.coarse is not None:
            *rows, scale = (np.broadcast_to(v, r.shape).reshape(-1, r.shape[-1])
                            for v in self.coarse)
            x = scale * [_eliminate_rows(*row, least=_LEAST_PIVOT)
                         for row in zip(*rows, (scale * r.reshape(scale.shape)))]
            x = x.reshape(r.shape)
        # pivot p: x_p = (z_p + left[p-1] x_odd[p-1] + right[p] x_odd[p]) / pivot_p
        for (pivots, left, right, a, _), z in zip(reversed(self.levels), reversed(down)):
            m, k = a.shape[-1], pivots.shape[-1] - 1
            full = np.empty(z.shape[:-1] + (k + 1 + m,))
            xe = full[..., 0::2]
            xe[...] = z
            xe[..., :m] += right * x
            xe[..., 1:] += left[..., :k] * x[..., :k]
            xe /= pivots
            full[..., 1::2] = x
            x = full
        return x


def _eliminate_rows(lower, diag, upper, rhs, least: float = 0.0) -> list[float]:
    """x with T x = rhs for one short tridiagonal T, row by row with partial pivoting.

    The operations, and so the rounding, of LAPACK's gtsv: a row swap when
    the subdiagonal entry outweighs the pivot, whose fill-in takes the place
    of the eliminated subdiagonal entry.  Rows as in `_Tridiagonal`.  A
    pivot below `least` in size is taken as -least.
    """
    low, d, up, b = lower[1:].tolist(), diag.tolist(), upper[:-1].tolist(), rhs.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(low[i]):
            fact = low[i] / d[i] if low[i] else 0.0     # 0 / 0 in a decoupled row
            d[i + 1] -= fact * up[i]
            b[i + 1] -= fact * b[i]
            low[i] = 0.0
        else:                       # rows i and i + 1 change places
            fact = d[i] / low[i]
            d[i], d_next = low[i], d[i + 1]
            d[i + 1] = up[i] - fact * d_next
            if i < n - 2:
                low[i] = up[i + 1]
                up[i + 1] = -fact * low[i]
            up[i] = d_next
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if least:
        d = [v if abs(v) >= least else -least for v in d]
    b[-1] /= d[-1]
    if n > 1:
        b[-2] = (b[-2] - up[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - up[i] * b[i + 1] - low[i] * b[i + 2]) / d[i]
    return b


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), the default of scipy's `CubicSpline`.

    The knot slopes solve the tridiagonal system for a continuous second
    derivative, closed at each end by a continuous third derivative across
    the second and last-but-one knots (de Boor, A Practical Guide to Splines,
    ch. IV).  Those two end rows are not diagonally dominant, so each is
    subtracted from its neighbour first: the interior rows left are strictly
    dominant, `_Tridiagonal` solves them without pivoting, and the end slopes
    follow from the end rows.  Systems of at most _SPLINE_ROWS knots are
    solved row by row instead (`_eliminate_rows`, LAPACK's gtsv, as scipy's
    spline solves them): on a few unevenly spaced knots the end rows
    amplify rounding, so there the slopes round as scipy's do.  Piece i is
    c[0] h^3 + c[1] h^2 + c[2] h + c[3] in h = x - x_i; the end pieces extend
    beyond the data.  The spline is linear in y, so scaling `c` scales it.
    A 2-D y builds one spline per row on one factorization; index the result
    for each.
    """

    def __init__(self, x, y):
        x, y = _finite(x, "spline data"), _finite(y, "spline data")
        if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != x.size or x.size < 4:
            raise InputError(f"a cubic spline needs 1-D x and y (or rows y) of one length >= 4, "
                             f"got shapes {x.shape} and {y.shape}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise InputError("spline abscissae must increase strictly")
        slope = np.diff(y) / dx
        n, d0, d1 = x.size, x[2] - x[0], x[-1] - x[-3]
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower, diag, upper, rhs = np.zeros(n), np.empty(n), np.zeros(n), np.empty(y.shape)
        lower[1:-1], lower[-1] = dx[1:], d1
        diag[0], diag[1:-1], diag[-1] = dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]
        upper[0], upper[1:-1] = d0, dx[:-1]
        rhs[..., 0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[..., 0]
                       + dx[0] ** 2 * slope[..., 1]) / d0
        rhs[..., 1:-1] = 3.0 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
        rhs[..., -1] = (dx[-1] ** 2 * slope[..., -2]
                        + (2.0 * d1 + dx[-1]) * dx[-2] * slope[..., -1]) / d1
        s = np.empty(y.shape)
        if n <= _SPLINE_ROWS:
            for b, out in zip(rhs.reshape(-1, n), s.reshape(-1, n)):
                out[:] = _eliminate_rows(lower, diag, upper, b)
        else:
            # rows 1 and -2 less the end rows (multiplier 1): the diagonals
            # 2 (dx[0] + dx[1]) - d0 = d0 and d1, and no end coupling
            excess = diag[1:-1].copy()
            excess[0], excess[-1] = d0, d1
            dx_l, dx_u = lower[2:-1], upper[1:-2]      # T[i + 1, i] and T[i, i + 1]
            excess[1:] += dx_l
            excess[:-1] += dx_u
            b = rhs[..., 1:-1].copy()
            b[..., 0] -= rhs[..., 0]
            b[..., -1] -= rhs[..., -1]
            s[..., 1:-1] = _Tridiagonal(excess, -dx_l, -dx_u).solve(b)
            s[..., 0] = (rhs[..., 0] - upper[0] * s[..., 1]) / diag[0]
            s[..., -1] = (rhs[..., -1] - lower[-1] * s[..., -2]) / diag[-1]
        t = (s[..., :-1] + s[..., 1:] - 2.0 * slope) / dx
        self.x = x
        self.c = np.stack([t / dx, (slope - s[..., :-1]) / dx - t, s[..., :-1], y[..., :-1]])

    def __getitem__(self, j: int) -> "_CubicSpline":
        """Spline j of those built on the rows of a 2-D y."""
        one = object.__new__(_CubicSpline)
        one.x, one.c = self.x, self.c[:, j].copy()
        return one

    def __call__(self, xp, nu: int = 0):
        """The value (nu = 0) or first derivative (nu = 1) at xp, by Horner on its piece."""
        xp = np.asarray(xp, dtype=float)
        i = np.searchsorted(self.x[1:-1], xp, side="right")
        h = xp - self.x[i]
        c3, c2, c1, c0 = self.c[:, i]
        if nu == 0:
            return ((c3 * h + c2) * h + c1) * h + c0
        if nu == 1:
            return (3.0 * c3 * h + 2.0 * c2) * h + c1
        raise DomainError(f"spline derivative order must be 0 or 1, got {nu!r}")


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
    def gauss(cls, N: int, b: float, n: int) -> "AngularGrid1D":
        """Gauss-Jacobi grid: n nodes per quarter period in u = pi/2 - psi.

        The degenerate factor u^b is the Jacobi weight; (sin u / u)^b and, for
        N >= 2, sin^{N-1}(psi) go into the weights, so smooth axisymmetric
        integrands converge spectrally.  For N = 1 the arc (0, pi) is covered
        by two mirrored halves, u = phi and u = pi - phi, with n nodes each.
        The arguments are gated before the cache lookup.
        """
        return cls._gauss(_count(N, "dimension N"), _number(b, "weight exponent b", -1.0, 1.0),
                          _count(n, "Gauss node count", 1, MAX_GAUSS_NODES))

    @classmethod
    @lru_cache(maxsize=64)
    def _gauss(cls, N: int, b: float, n: int) -> "AngularGrid1D":
        x, w = _gauss_jacobi(n, b)
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
        return float(self.weights @ _finite(values, shape=self.nodes.shape))


class _Points(NamedTuple):
    """One point set of the upper half space, in polar (rho, angle) and in (q, t) form.

    On a rule's sets rho and angle broadcast against each other; for scattered
    points rho = hypot(q, t) and `angle` is None."""

    rho: np.ndarray
    angle: np.ndarray | None
    q: np.ndarray
    t: np.ndarray


class _HalfBallRule:
    """Tensor rule on B_r^+ and S_r^+ and the polar point sets fields are sampled on.

    `radial` is a rule for int_0^1 x^p f(x) dx in rho / r, so `ball` integrates
    t^b rho^{p-N-b} times a sample; `sphere` needs no radial rule.  Callers
    gate r with `_radius` first."""

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
        shape = (self.rho.size, self.angular.nodes.size)
        inner = _finite(values, shape=shape) @ self.angular.weights
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
    n_radial: int = DEFAULT_RADIAL_NODES,
    n_angular: int = DEFAULT_ANGULAR_NODES,
) -> float:
    """Approximate int_{B_r^+} t^b f dz for an axisymmetric field f(rho, angle).

    `f` is a callable receiving broadcastable arrays (rho, angle); the angle
    is the polar angle psi for N >= 2 and the arc angle phi for N = 1.  In
    polar coordinates the measure splits into rho^{N+b} d(rho) times the
    angular weight, so the rule is `_HalfBallRule` with the radial pair
    `gauss_jacobi(n_radial, N+b)` in rho / r and `AngularGrid1D.gauss(N, b,
    n_angular)`.  A nonzero rule sum that the measure's factors scale below
    the float range raises `DomainError` rather than returning 0.0.
    """
    r = _radius(r, power=params.N + 3)
    beta = params.N + params.b
    radial = gauss_jacobi(n_radial, beta)
    rule = _HalfBallRule(params, r, AngularGrid1D.gauss(params.N, params.b, n_angular),
                         radial, beta)
    values = f(rule.rho, rule.angular.nodes[None, :])
    total = rule.ball(values)
    if total == 0.0:
        _refuse_underflow(rule.radial_weights @ (np.asarray(values, dtype=float)
                                                 @ rule.angular.weights), "half-ball", r)
    return total


def integrate_halfsphere(
    g,
    params: WeightParams,
    r: float,
    *,
    n_angular: int = DEFAULT_ANGULAR_NODES,
) -> float:
    """Approximate int_{S_r^+} t^b g dS for g given as a function of the angle.

    The point associated with angle a on the sphere of radius r is
    r*(sin(a) w, cos(a)) for N >= 2 and r*(cos(a), sin(a)) for N = 1.  The
    rule is the sphere sum of `_HalfBallRule` on `AngularGrid1D.gauss(N, b,
    n_angular)`; g's values broadcast to the nodes.  A nonzero rule sum that
    underflows on scaling raises `DomainError`, as in `integrate_halfball`.
    """
    r = _radius(r, power=params.N + 3)
    grid = AngularGrid1D.gauss(params.N, params.b, n_angular)
    values = np.asarray(g(grid.nodes), dtype=float)
    if values.shape != grid.nodes.shape:
        values = np.broadcast_to(values, grid.nodes.shape).astype(float)
    total = _HalfBallRule(params, r, grid).sphere(values)
    if total == 0.0:
        _refuse_underflow(grid.weights @ values, "half-sphere", r)
    return total


def _refuse_underflow(weighted_sum: float, where: str, r: float) -> None:
    """Raise when a nonzero rule sum became 0.0 on scaling by the measure's factors."""
    if weighted_sum != 0.0:
        raise DomainError(f"the {where} integral underflows: its rule sum {weighted_sum:.3g} "
                          f"scaled by the measure at r = {r} is below the float range")


def angle_to_xt(params: WeightParams, r, angle):
    """Cartesian-like coordinates (q, t) of the point at (r, angle).

    q is the signed horizontal coordinate for N = 1 and the horizontal radius
    |x| for N >= 2; t is the vertical coordinate.
    """
    r, angle = _finite(r, "r"), _finite(angle, "angle")
    if params.N == 1:
        return r * np.cos(angle), r * np.sin(angle)
    return r * np.sin(angle), r * np.cos(angle)
