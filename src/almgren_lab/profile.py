"""Fourth-order extension profile, extension constant and Fourier-side extension.

The profile phi minimizes J(phi) = int t^b (D_b phi - phi)^2 dt over grid
functions with phi(0) = 1, phi'(0) = 0 and a decaying far field, where
D_b phi = phi'' + (b/t) phi'.  The discrete operator is a conservative
flux-form finite-volume Laplacian whose cell masses integrate t^b in closed
form; the same masses define the quadrature for J.  On the last two length
units the profile is constrained to the two-parameter decaying tail
t^{alpha -/+ 1/2} e^{-t}, which removes the boundary-layer pollution a hard
zero at T_max would cause.  The resulting normal equations are a banded
symmetric positive-definite system solved by a sparse direct factorization.

The minimizer also has a closed form (R. Yang, arXiv:1302.4413): with
s = (3 - b)/2 and c = 2^{1-s} / Gamma(s), phi(t) = c t^s K_s(t).
`BesselProfile` evaluates it and is the profile the extension uses;
`solve_profile` stays as the independent finite-volume cross-check.

The extension of a torus sample u is built frequency-wise as
Uhat(xi, t) = uhat(xi) phi(|xi| t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.special import gamma, kv

from .core import (
    DomainError,
    InputError,
    SolverError,
    TraceProportionalityError,
    WeightParams,
    graded_breaks,
    power_rule,
)

TAIL_LENGTH = 2.0


@dataclass(frozen=True)
class ProfileSolution:
    """Discretized minimizer phi with its flux derivative, zeta and J value."""

    b: float
    T_max: float
    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    zeta: np.ndarray
    J: float
    grad_energy: float
    ode_residual: float
    tail_coeffs: tuple[float, float]

    def __post_init__(self):
        for arr in (self.t, self.phi, self.dphi, self.zeta):
            arr.flags.writeable = False

    # the splines (and scipy.interpolate) are built on the first interpolation
    @cached_property
    def _phi_spline(self):
        from scipy.interpolate import CubicSpline
        return CubicSpline(self.t, self.phi)

    @cached_property
    def _zeta_spline(self):
        from scipy.interpolate import CubicSpline
        return CubicSpline(self.t, self.zeta)

    @property
    def alpha(self) -> float:
        return (1.0 - self.b) / 2.0

    def _tail(self, tau):
        y1, y2 = self.tail_coeffs
        t0 = self.T_max - TAIL_LENGTH
        g1 = (tau / t0) ** (self.alpha - 0.5) * np.exp(-(tau - t0))
        g2 = (tau / t0) ** (self.alpha + 0.5) * np.exp(-(tau - t0))
        return y1 * g1 + y2 * g2

    def phi_at(self, tau):
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.empty_like(tau_arr)
        inside = tau_arr <= self.T_max
        out[inside] = self._phi_spline(tau_arr[inside])
        if np.any(~inside):
            out[~inside] = self._tail(tau_arr[~inside])
        if np.ndim(tau) == 0:
            return float(out[0])
        return out.reshape(np.shape(tau))

    def zeta_at(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.where(tau <= self.T_max, self._zeta_spline(np.minimum(tau, self.T_max)), 0.0)
        return out if out.ndim else float(out)

    def zeta_at_zero(self) -> float:
        """Limit of zeta at 0 by extrapolation in the local basis {1, t^{2a}, t^2}.

        zeta is continuous at 0 but carries a t^{2 alpha} branch; fitting the
        three smallest positive nodes in the correct basis removes it.  For
        b = 0 the basis degenerates to plain quadratic extrapolation.
        """
        ts = self.t[1:4]
        zs = self.zeta[1:4]
        expo = 2.0 * self.alpha
        if abs(expo - 1.0) < 1e-13:
            A = np.vander(ts, 3, increasing=True)
        else:
            A = np.column_stack([np.ones(3), ts ** expo, ts ** 2])
        coef = np.linalg.solve(A, zs)
        return float(coef[0])


def _power_bessel(order: float, tau, coef: float, at_zero: float):
    """coef t^order K_order(t), continued by its limit at 0 and by 0 past underflow.

    Negative t stays NaN.
    """
    t = np.asarray(tau, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = coef * t ** order * kv(order, t)
    out = np.where(np.isfinite(out) | (t < 0.0), out, np.where(t < 1.0, at_zero, 0.0))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BesselProfile:
    """Closed-form profile phi(t) = c t^s K_s(t) with c = 2^{1-s} / Gamma(s).

    zeta = D_b phi - phi = -2c t^{s-1} K_{s-1}(t), so zeta(0+) = -1/(s-1),
    and J = C_b = 2 pi (s-1) c^2 / sin(pi (s-1)) (Gradshteyn-Ryzhik 6.576.4).
    Evaluates like a `ProfileSolution` (phi_at, zeta_at, zeta_at_zero, J).
    """

    b: float

    def __post_init__(self):
        if not (-1.0 < self.b < 1.0):
            raise DomainError(f"weight exponent b must lie in (-1, 1), got {self.b}")

    @property
    def alpha(self) -> float:
        return (1.0 - self.b) / 2.0

    @property
    def s(self) -> float:
        return (3.0 - self.b) / 2.0

    @property
    def c(self) -> float:
        return 2.0 ** (1.0 - self.s) / gamma(self.s)

    @property
    def J(self) -> float:
        a = self.alpha
        return 2.0 * math.pi * a * self.c ** 2 / math.sin(math.pi * a)

    def phi_at(self, tau):
        return _power_bessel(self.s, tau, self.c, 1.0)

    def zeta_at(self, tau):
        return _power_bessel(self.alpha, tau, -2.0 * self.c, self.zeta_at_zero())

    def zeta_at_zero(self) -> float:
        return -1.0 / self.alpha


def _cell_masses_tb(b: float, faces: np.ndarray) -> np.ndarray:
    prim = faces ** (b + 1.0) / (b + 1.0)
    return np.diff(prim)


def _flux_laplacian(a_face: np.ndarray, h: float, masses: np.ndarray) -> sp.csr_matrix:
    """Tridiagonal flux-form Laplacian; face i + 1/2 (a_face[i + 1]) couples nodes i, i + 1."""
    hm = h * masses
    inner = a_face[1:-1]
    return sp.diags([inner / hm[1:], -(a_face[:-1] + a_face[1:]) / hm, inner / hm[:-1]],
                    [-1, 0, 1], format="csr")


def _constrained_basis(rows: int, free, tail, g1, g2) -> sp.csr_matrix:
    """Columns: a unit vector per free node, then the tail shapes g1 and g2."""
    k = free.size
    return sp.csr_matrix(
        (np.concatenate([np.ones(k), g1, g2]),
         (np.concatenate([free, tail, tail]),
          np.concatenate([np.arange(k), np.full(tail.size, k), np.full(tail.size, k + 1)]))),
        shape=(rows, k + 2),
    )


def solve_profile(b: float, T_max: float = 24.0, resolution: int = 16384) -> ProfileSolution:
    """Discrete minimizer of J over the constrained grid-function space."""
    if not (-1.0 < b < 1.0):
        raise DomainError(f"weight exponent b must lie in (-1, 1), got {b}")
    if T_max < 20.0:
        raise DomainError("T_max must be at least 20")
    if resolution < 512:
        raise DomainError("resolution must be at least 512")
    n = int(resolution)
    h = T_max / n
    t = np.linspace(0.0, T_max, n + 1)
    faces = np.concatenate([[0.0], t[:-1] + h / 2.0, [T_max]])
    masses = _cell_masses_tb(b, faces)
    a_face = np.zeros(n + 2)
    a_face[1:-1] = (t[:-1] + h / 2.0) ** b  # interior faces; end fluxes are zero

    L = _flux_laplacian(a_face, h, masses)
    D = (L - sp.identity(n + 1, format="csr")).tocsr()
    W = sp.diags(masses)

    alpha = (1.0 - b) / 2.0
    t0 = T_max - TAIL_LENGTH
    tail = np.nonzero(t >= t0 - 1e-12)[0]
    free = np.arange(1, tail[0])
    g1 = (t[tail] / t0) ** (alpha - 0.5) * np.exp(-(t[tail] - t0))
    g2 = (t[tail] / t0) ** (alpha + 0.5) * np.exp(-(t[tail] - t0))
    C = _constrained_basis(n + 1, free, tail, g1, g2)
    e0 = np.zeros(n + 1)
    e0[0] = 1.0

    DC = D @ C
    A = (DC.T @ W @ DC).tocsc()
    rhs = -DC.T @ (W @ (D @ e0))
    try:
        lu = sp.linalg.splu(A)
        y = lu.solve(rhs)
        for _ in range(3):  # iterative refinement against the quartic conditioning
            resid = rhs - A @ y
            y = y + lu.solve(resid)
    except Exception as exc:  # pragma: no cover - factorization failure
        raise SolverError(f"normal-equation solve failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        diag = A.diagonal()
        raise SolverError(
            "non-finite minimizer; diagonal range "
            f"[{diag.min():.3e}, {diag.max():.3e}] suggests severe ill-conditioning"
        )

    phi = e0 + C @ y
    zeta = D @ phi
    J = float(zeta @ (masses * zeta))
    dphi_face = np.diff(phi) / h
    grad_energy = float(np.sum(a_face[1:-1] * dphi_face ** 2 * h))
    # derivative samples at the nodes (central differences, one-sided at ends)
    dphi = np.gradient(phi, t)
    resid = (L @ zeta) - zeta
    interior = slice(1, tail[0])
    num = float(np.sqrt(np.sum(masses[interior] * resid[interior] ** 2)))
    den = float(np.sqrt(np.sum(masses[interior] * zeta[interior] ** 2)))
    ode_residual = num / den if den > 0 else 0.0
    return ProfileSolution(
        b=b, T_max=T_max, t=t, phi=phi, dphi=dphi, zeta=zeta, J=J,
        grad_energy=grad_energy, ode_residual=ode_residual,
        tail_coeffs=(float(y[free.size]), float(y[free.size + 1])),
    )


@lru_cache(maxsize=32)
def _cached_profile(b: float) -> ProfileSolution:
    return solve_profile(b)


def extension_constant(b: float) -> float:
    """C_b = J(phi) for the minimizing profile, in closed form."""
    return BesselProfile(float(b)).J


def _frequency_grid(shape: tuple[int, ...], box_length: float) -> np.ndarray:
    axes = [2.0 * math.pi * np.fft.fftfreq(n, d=box_length / n) for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(m ** 2 for m in mesh))


def _check_bandlimit(u_hat: np.ndarray, shape: tuple[int, ...]) -> None:
    total = float(np.sum(np.abs(u_hat) ** 2))
    if total == 0.0:
        return
    mask = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        if n % 2 == 0:
            idx = [slice(None)] * len(shape)
            idx[axis] = n // 2
            mask[tuple(idx)] = True
    nyq = float(np.sum(np.abs(u_hat[mask]) ** 2)) if mask.any() else 0.0
    if nyq > 1e-8 * total:
        raise InputError(
            f"sample has {nyq/total:.2e} of its energy at the Nyquist shell; "
            "refine the torus grid before extending"
        )


def build_extension(
    params: WeightParams,
    u: np.ndarray,
    t_levels,
    box_length: float = 2.0 * math.pi,
    profile: ProfileSolution | BesselProfile | None = None,
) -> np.ndarray:
    """Extension levels U(., t) of a real torus sample u, frequency by frequency.

    Returns an array of shape (len(t_levels),) + u.shape; the zero frequency
    is constant in t and U(., 0) = u exactly since phi(0) = 1.  The profile
    defaults to the closed form `BesselProfile`.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InputError("non-finite torus sample")
    t_levels = np.asarray(t_levels, dtype=float)
    if not np.all(np.isfinite(t_levels)):
        raise DomainError("t levels must be finite")
    if np.any(t_levels < 0):
        raise DomainError("t levels must be nonnegative")
    prof = profile or BesselProfile(params.b)
    u_hat = np.fft.fftn(u)
    _check_bandlimit(u_hat, u.shape)
    xi = _frequency_grid(u.shape, box_length)
    out = np.empty((t_levels.size,) + u.shape)
    for i, tl in enumerate(t_levels):
        mult = prof.phi_at(xi * tl)
        out[i] = np.real(np.fft.ifftn(u_hat * mult))
    return out


def extension_energy_identity(
    params: WeightParams,
    u: np.ndarray,
    box_length: float = 2.0 * math.pi,
    profile: ProfileSolution | BesselProfile | None = None,
    t_max: float = 30.0,
    n_t: int = 400,
) -> tuple[float, float]:
    """Both sides of the weighted energy identity for the extension of u.

    Left: int over the torus slab of t^b |D_b U|^2, assembled from the
    physical-space field level by level; right: C_b times the discrete
    fractional seminorm sum |xi|^{2s} |uhat|^2 (box-measure normalized).
    Agreement certifies the isometry property of the construction up to
    torus truncation and quadrature error.
    """
    u = np.asarray(u, dtype=float)
    prof = profile or BesselProfile(params.b)
    u_hat = np.fft.fftn(u)
    _check_bandlimit(u_hat, u.shape)
    xi = _frequency_grid(u.shape, box_length)
    n_total = u.size
    breaks = graded_breaks(t_max, n_t, grade_start=True)
    t_nodes, t_weights = power_rule(breaks, params.b)
    cell = (box_length / u.shape[0]) ** params.N
    lhs = 0.0
    for tn, tw in zip(t_nodes, t_weights):
        v_hat = u_hat * xi ** 2 * prof.zeta_at(xi * tn)
        v = np.real(np.fft.ifftn(v_hat))
        lhs += tw * cell * float(np.sum(v ** 2))
    two_s = 3.0 - params.b
    rhs = prof.J * box_length ** params.N * float(
        np.sum(xi ** two_s * np.abs(u_hat) ** 2)
    ) / n_total ** 2
    return lhs, rhs


def trace_laplacian_check(
    params: WeightParams,
    u: np.ndarray,
    box_length: float = 2.0 * math.pi,
    n_shells: int = 10,
    profile: ProfileSolution | None = None,
) -> tuple[float, float]:
    """Frequency-wise proportionality of the trace of D_b U against Laplace u.

    V = D_b U at t -> 0 has symbol uhat |xi|^2 zeta(0+); dividing by the
    symbol of Laplace u gives a frequency-independent constant whenever the
    construction is exact.  The limit is taken per frequency by extrapolating
    zeta(|xi| t) from three small positive t levels, so the reported spread
    measures genuine profile-interpolation error.  Raises when the spread
    exceeds 5%.  By default it runs on the finite-volume profile: on the
    closed form the check would be exact and would measure nothing.
    """
    u = np.asarray(u, dtype=float)
    prof = profile or _cached_profile(params.b)
    u_hat = np.fft.fftn(u)
    _check_bandlimit(u_hat, u.shape)
    xi = _frequency_grid(u.shape, box_length)
    power = np.abs(u_hat) ** 2
    mask = (xi > 0) & (power > 1e-20 * power.max())
    if not mask.any():
        raise InputError("sample has no usable nonzero frequencies")
    shells = np.unique(np.round(xi[mask], 9))[:n_shells]
    h = prof.t[1] - prof.t[0]
    expo = 2.0 * prof.alpha
    estimates = []
    for s in shells:
        taus = s * h * np.array([1.0, 2.0, 3.0])
        zs = prof.zeta_at(taus)
        if abs(expo - 1.0) < 1e-13:
            A = np.vander(taus, 3, increasing=True)
        else:
            A = np.column_stack([np.ones(3), taus ** expo, taus ** 2])
        zeta0 = float(np.linalg.solve(A, zs)[0])
        # V-hat at t->0 is uhat s^2 zeta0; Laplace u has symbol -s^2 uhat.
        estimates.append(-zeta0)
    estimates = np.asarray(estimates)
    kappa = float(np.mean(estimates))
    spread = float((estimates.max() - estimates.min()) / abs(kappa))
    if spread > 0.05:
        raise TraceProportionalityError(
            f"trace ratio spread {spread:.2%} exceeds 5%: not proportional"
        )
    return kappa, spread
