"""Fourth-order extension profile, extension constant and Fourier-side extension.

The profile phi minimizes J(phi) = int t^b (D_b phi - phi)^2 dt over grid
functions with phi(0) = 1, phi'(0) = 0 and a decaying far field, where
D_b phi = phi'' + (b/t) phi'.  The discrete operator is a conservative
flux-form finite-volume Laplacian whose cell masses integrate t^b in closed
form; the same masses define the quadrature for J.  On the last two length
units the profile is constrained to the two-parameter decaying tail
t^{alpha -/+ 1/2} e^{-t}, which removes the boundary-layer pollution a hard
zero at T_max would cause.  The resulting normal equations are symmetric
positive definite with upper bandwidth 3; they are assembled band by band,
factored by a banded Cholesky and refined against the residual applied
through the tridiagonal factors.  The formed normal matrix cancels terms of
size h^-4 and so holds phi's smooth part only to about 1e-6; the factored
residual keeps the h^-2 sensitivity of the operator itself, and the
refinement converges to the discrete minimizer with clean h^2 convergence.

The minimizer also has a closed form (R. Yang, arXiv:1302.4413): with
s = (3 - b)/2 and c = 2^{1-s} / Gamma(s), phi(t) = c t^s K_s(t).
`BesselProfile` evaluates it and is the profile the extension uses;
`solve_profile` stays as the independent finite-volume cross-check.
`scipy.special` (for K_s and Gamma) and `scipy.linalg` (for the banded
Cholesky) are imported on first use, not with the module.

The extension of a torus sample u is built frequency-wise as
Uhat(xi, t) = uhat(xi) phi(|xi| t).  `build_extension`,
`extension_energy_identity` and `trace_laplacian_check` share one preamble,
`_fourier_sample`, which gates the sample (finite), the box length
(positive and finite) and the band limit, then builds the |xi| grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .core import (
    DomainError,
    InputError,
    SolverError,
    TraceProportionalityError,
    WeightParams,
    gauss_jacobi,
)

TAIL_LENGTH = 2.0
# Finest grid `solve_profile` accepts.  The normal matrix's condition number
# grows like h^-4: 2^15 cells still converge at h^2 for every b tried and
# every T_max >= 20; at T_max = 24, 2^16 cells fail the Cholesky at some b
# and 2^17 cells give J = 2.00001 against 2 at b = 0 without an error.
MAX_PROFILE_CELLS = 2 ** 15


def _tail_shapes(alpha: float, t0: float, tau):
    """The two tail shapes g1, g2 = (tau / t0)^{alpha -/+ 1/2} e^{-(tau - t0)}."""
    decay = np.exp(-(tau - t0))
    return (tau / t0) ** (alpha - 0.5) * decay, (tau / t0) ** (alpha + 0.5) * decay


@dataclass(frozen=True)
class ProfileSolution:
    """Discretized minimizer phi with zeta = D_b phi - phi and its J value."""

    b: float
    T_max: float
    t: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    J: float
    grad_energy: float
    ode_residual: float
    tail_coeffs: tuple[float, float]

    def __post_init__(self):
        for arr in (self.t, self.phi, self.zeta):
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
        g1, g2 = _tail_shapes(self.alpha, self.T_max - TAIL_LENGTH, tau)
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
        return _limit_at_zero(self.t[1:4], self.zeta[1:4], self.alpha)


def _limit_at_zero(ts: np.ndarray, zs: np.ndarray, alpha: float) -> float:
    """Value at 0 of the fit of three samples in the basis {1, t^{2 alpha}, t^2}.

    At b = 0 (2 alpha = 1) the basis is plain quadratic extrapolation.
    """
    A = np.column_stack([np.ones(3), ts ** (2.0 * alpha), ts ** 2])
    return float(np.linalg.solve(A, zs)[0])


def _power_bessel(order: float, tau, coef: float, at_zero: float):
    """coef t^order K_order(t), continued by its limit at 0 and by 0 past underflow.

    Negative t stays NaN.
    """
    from scipy.special import kv

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
        from scipy.special import gamma

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
    """int t^b dt over each cell [f0, f1] of the increasing faces, faces[0] = 0.

    The difference of the primitives f^{b+1}/(b+1) cancels digits far from
    0; f1^{b+1} (1 - (f0/f1)^{b+1})/(b+1), formed through expm1 and log1p,
    keeps each mass to roundoff.  The first cell takes its closed form.
    """
    f1 = faces[1:]
    width = np.diff(faces)
    bp1 = b + 1.0
    masses = f1 ** bp1 / bp1
    masses[1:] *= -np.expm1(bp1 * np.log1p(-width[1:] / f1[1:]))
    return masses


def _tridiag_apply(sub: np.ndarray, main: np.ndarray, sup: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal matrix (sub, main, sup) with x."""
    out = main * x
    out[1:] += sub * x[:-1]
    out[:-1] += sup * x[1:]
    return out


@dataclass(frozen=True)
class _NormalSystem:
    """Normal equations A y = r(0) of the constrained profile problem on one grid.

    D = L - I is the tridiagonal flux operator (sub, main, sup), W = diag(masses)
    and C maps the unknowns y (the free nodes 1..k, then the coefficients of
    the tail shapes g1, g2 on the nodes from `first_tail` on) to grid
    functions.  `bands` holds A = C^T D^T W D C in LAPACK's upper banded
    storage, bands[3 - d, j] = A[j - d, j]: D^T W D is pentadiagonal and each
    tail column reaches only the last two free nodes, so A has upper
    bandwidth 3.
    """

    t: np.ndarray
    masses: np.ndarray
    a_inner: np.ndarray
    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    first_tail: int
    g1: np.ndarray
    g2: np.ndarray
    bands: np.ndarray

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The grid function e_0 + C y."""
        x = np.empty(self.t.size)
        x[0] = 1.0
        x[1:self.first_tail] = y[:-2]
        x[self.first_tail:] = y[-2] * self.g1 + y[-1] * self.g2
        return x

    def apply_D(self, x: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.sub, self.main, self.sup, x)

    def residual(self, y: np.ndarray) -> np.ndarray:
        """r(y) = -C^T D^T W D (e_0 + C y), applied factor by factor, never through A."""
        v = _tridiag_apply(self.sup, self.main, self.sub,
                           self.masses * self.apply_D(self.expand(y)))
        tail = v[self.first_tail:]
        return -np.concatenate([v[1:self.first_tail], [self.g1 @ tail, self.g2 @ tail]])


def _normal_system(b: float, T_max: float, n: int) -> _NormalSystem:
    h = T_max / n
    t = np.linspace(0.0, T_max, n + 1)
    faces = np.concatenate([[0.0], t[:-1] + h / 2.0, [T_max]])
    masses = _cell_masses_tb(b, faces)
    a_inner = (t[:-1] + h / 2.0) ** b  # interior faces; end fluxes are zero

    # face i + 1/2 (a_inner[i]) couples nodes i and i + 1
    hm = h * masses
    sub = a_inner / hm[1:]
    sup = a_inner / hm[:-1]
    main = -1.0 - np.concatenate([a_inner, [0.0]]) / hm - np.concatenate([[0.0], a_inner]) / hm

    alpha = (1.0 - b) / 2.0
    t0 = T_max - TAIL_LENGTH
    first_tail = int(np.searchsorted(t, t0 - 1e-12))
    k = first_tail - 1
    tail_t = t[first_tail:]
    g1, g2 = _tail_shapes(alpha, t0, tail_t)

    # G = D^T W D: G[j, j] = g0[j], G[j, j + 1] = gd1[j], G[j, j + 2] = gd2[j]
    md = masses * main
    g0 = md * main
    g0[1:] += masses[:-1] * sup * sup
    g0[:-1] += masses[1:] * sub * sub
    gd1 = md[:-1] * sup + masses[1:] * sub * main[1:]
    gd2 = masses[1:-1] * sub[:-1] * sup[1:]

    # free node i is unknown i - 1; the tail columns are unknowns k and k + 1
    bands = np.zeros((4, k + 2))
    bands[3, :k] = g0[1:k + 1]
    bands[2, 1:k] = gd1[1:k]
    bands[1, 2:k] = gd2[1:k - 1]
    shapes = (g1, g2)
    tg0, tgd1, tgd2 = g0[first_tail:], gd1[first_tail:], gd2[first_tail:]
    for c, gc in enumerate(shapes):
        bands[1 - c, k + c] = gd2[k - 1] * gc[0]                # free node k - 1
        bands[2 - c, k + c] = gd1[k] * gc[0] + gd2[k] * gc[1]   # free node k
        for r, gr in enumerate(shapes[:c + 1]):                 # gr^T G gc on the tail
            bands[3 - c + r, k + c] = (tg0 @ (gr * gc)
                                       + tgd1 @ (gr[:-1] * gc[1:] + gr[1:] * gc[:-1])
                                       + tgd2 @ (gr[:-2] * gc[2:] + gr[2:] * gc[:-2]))
    return _NormalSystem(t=t, masses=masses, a_inner=a_inner, sub=sub, main=main, sup=sup,
                         first_tail=first_tail, g1=g1, g2=g2, bands=bands)


def solve_profile(b: float, T_max: float = 24.0, resolution: int = 16384) -> ProfileSolution:
    """Discrete minimizer of J over the constrained grid-function space.

    The normal equations are factored once by a banded Cholesky and refined
    three times from y = 0 against the factored residual
    (`_NormalSystem.residual`): at the default grid phi stops moving (to
    about 1e-12) after the second step, and the third covers the slower
    contraction of finer grids.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded

    if not (-1.0 < b < 1.0):
        raise DomainError(f"weight exponent b must lie in (-1, 1), got {b}")
    if not (math.isfinite(T_max) and T_max >= 20.0):
        raise DomainError(f"T_max must be finite and at least 20, got {T_max}")
    if resolution < 512:
        raise DomainError("resolution must be at least 512")
    if resolution > MAX_PROFILE_CELLS:
        raise DomainError(f"resolution {resolution} exceeds the cap of {MAX_PROFILE_CELLS}")
    n = int(resolution)
    h = T_max / n
    system = _normal_system(b, T_max, n)
    y = np.zeros(system.bands.shape[1])
    try:
        factor = cholesky_banded(system.bands, check_finite=False)
        for _ in range(3):
            y += cho_solve_banded((factor, False), system.residual(y), check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"normal-equation solve failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        diag = system.bands[3]
        raise SolverError(
            "non-finite minimizer; diagonal range "
            f"[{diag.min():.3e}, {diag.max():.3e}] suggests severe ill-conditioning"
        )

    t, masses = system.t, system.masses
    phi = system.expand(y)
    zeta = system.apply_D(phi)
    J = float(zeta @ (masses * zeta))
    dphi_face = np.diff(phi) / h
    grad_energy = float(np.sum(system.a_inner * dphi_face ** 2 * h))
    resid = system.apply_D(zeta)  # L zeta - zeta
    interior = slice(1, system.first_tail)
    num = float(np.sqrt(np.sum(masses[interior] * resid[interior] ** 2)))
    den = float(np.sqrt(np.sum(masses[interior] * zeta[interior] ** 2)))
    ode_residual = num / den if den > 0 else 0.0
    return ProfileSolution(
        b=b, T_max=T_max, t=t, phi=phi, zeta=zeta, J=J,
        grad_energy=grad_energy, ode_residual=ode_residual,
        tail_coeffs=(float(y[-2]), float(y[-1])),
    )


@lru_cache(maxsize=32)
def _cached_profile(b: float) -> ProfileSolution:
    return solve_profile(b)


def extension_constant(b: float) -> float:
    """C_b = J(phi) for the minimizing profile, in closed form."""
    return BesselProfile(float(b)).J


def _fourier_sample(u, box_length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, uhat, |xi|) of a torus sample, the preamble of every Fourier-side check.

    Refuses a non-finite sample (`InputError`), a box length that is not
    positive and finite (`DomainError`) and a sample with energy at the
    Nyquist shell (`InputError`).
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InputError("non-finite torus sample")
    if not (box_length > 0 and math.isfinite(box_length)):
        raise DomainError(f"box length must be positive and finite, got {box_length}")
    u_hat = np.fft.fftn(u)
    total = float(np.sum(np.abs(u_hat) ** 2))
    mask = np.zeros(u.shape, dtype=bool)
    for axis, n in enumerate(u.shape):
        if n % 2 == 0:
            idx = [slice(None)] * u.ndim
            idx[axis] = n // 2
            mask[tuple(idx)] = True
    nyq = float(np.sum(np.abs(u_hat[mask]) ** 2)) if mask.any() else 0.0
    if total != 0.0 and nyq > 1e-8 * total:
        raise InputError(
            f"sample has {nyq/total:.2e} of its energy at the Nyquist shell; "
            "refine the torus grid before extending"
        )
    return u, u_hat, _frequency_grid(u.shape, box_length)


def _frequency_grid(shape: tuple[int, ...], box_length: float) -> np.ndarray:
    axes = [2.0 * math.pi * np.fft.fftfreq(n, d=box_length / n) for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(m ** 2 for m in mesh))


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
    u, u_hat, xi = _fourier_sample(u, box_length)
    t_levels = np.asarray(t_levels, dtype=float)
    if not np.all(np.isfinite(t_levels)):
        raise DomainError("t levels must be finite")
    if np.any(t_levels < 0):
        raise DomainError("t levels must be nonnegative")
    prof = profile or BesselProfile(params.b)
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
    physical-space field level by level at the nodes of the rule
    `gauss_jacobi(n_t, b)` on [0, t_max]; right: C_b times the discrete
    fractional seminorm sum |xi|^{2s} |uhat|^2 (box-measure normalized).
    Agreement certifies the isometry property of the construction up to
    torus truncation and quadrature error.
    """
    u, u_hat, xi = _fourier_sample(u, box_length)
    if not (t_max > 0 and math.isfinite(t_max)):
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    prof = profile or BesselProfile(params.b)
    n_total = u.size
    x, w = gauss_jacobi(n_t, params.b)
    t_nodes, t_weights = t_max * x, t_max ** (params.b + 1.0) * w
    cell = (box_length / u.shape[0]) ** params.N
    # zeta is elementwise, so it is evaluated once per distinct |xi| and gathered
    xi_distinct, where = np.unique(xi, return_inverse=True)
    where = where.reshape(xi.shape)
    u_hat_xi2 = u_hat * xi ** 2
    lhs = 0.0
    for tn, tw in zip(t_nodes, t_weights):
        v_hat = u_hat_xi2 * prof.zeta_at(xi_distinct * tn)[where]
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
    u, u_hat, xi = _fourier_sample(u, box_length)
    if isinstance(n_shells, bool) or not isinstance(n_shells, (int, np.integer)) or n_shells < 1:
        raise DomainError(f"shell count must be an integer >= 1, got {n_shells!r}")
    prof = profile or _cached_profile(params.b)
    power = np.abs(u_hat) ** 2
    mask = (xi > 0) & (power > 1e-20 * power.max())
    if not mask.any():
        raise InputError("sample has no usable nonzero frequencies")
    shells = np.unique(np.round(xi[mask], 9))[:n_shells]
    h = prof.t[1] - prof.t[0]
    estimates = []
    for s in shells:
        taus = s * h * np.array([1.0, 2.0, 3.0])
        zeta0 = _limit_at_zero(taus, prof.zeta_at(taus), prof.alpha)
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
