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
factored by block-Cholesky cyclic reduction in 2x2 blocks (`_BlockCholesky`)
and refined against the residual applied through the flux-form factors,
whose differences are taken first.  The formed normal matrix cancels terms
of size h^-4 and so holds phi's smooth part only to about 1e-6; the factored
residual keeps the h^-2 sensitivity of the operator itself, and the
refinement converges to the discrete minimizer with clean h^2 convergence.

The minimizer also has a closed form (R. Yang, arXiv:1302.4413): with
s = (3 - b)/2 and c = 2^{1-s} / Gamma(s), phi(t) = c t^s K_s(t).
`BesselProfile` evaluates it and is the profile the extension uses;
`solve_profile` stays as the independent finite-volume cross-check; its
solve runs on numpy alone.  `scipy.special` (for K_s) and `scipy.linalg`
(for the interpolating splines, `core._CubicSpline`) are imported on first
use, not with the module.

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

from .core import (
    DomainError,
    InputError,
    SolverError,
    TraceProportionalityError,
    WeightParams,
    _CubicSpline,
    _check_weight_exponent,
    _int_at_least,
    gauss_jacobi,
)

TAIL_LENGTH = 2.0
# Finest grid `solve_profile` accepts.  The normal matrix's condition number
# grows like h^-4: 2^15 cells still converge at h^2 for every b tried and
# every T_max >= 20; at T_max = 24, 2^16 cells fail the block Cholesky at
# some b (b = -0.9, -0.5 and 0.9, as LAPACK's banded Cholesky did).
MAX_PROFILE_CELLS = 2 ** 15
# Coarsest step h = T_max / resolution `solve_profile` accepts.  The tail is
# the last TAIL_LENGTH = 2 length units, so it needs h well below 2 to hold
# more than one node (h > 2 failed with an IndexError), and J drifts from C_b
# long before that (b = 0: J = 1.837 at h = 1.37 and 1.966 at h = 0.39,
# against C_b = 2).  The README defaults and the tests use h <= 30/512.
MAX_PROFILE_STEP = 1.0 / 16.0


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

    # each spline is built on its first interpolation
    @cached_property
    def _phi_spline(self):
        return _CubicSpline(self.t, self.phi)

    @cached_property
    def _zeta_spline(self):
        return _CubicSpline(self.t, self.zeta)

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
    Evaluates like a `ProfileSolution` (phi_at, zeta_at, J), plus the exact `zeta_at_zero`.
    """

    b: float

    def __post_init__(self):
        _check_weight_exponent(self.b)

    @property
    def alpha(self) -> float:
        return (1.0 - self.b) / 2.0

    @property
    def s(self) -> float:
        return (3.0 - self.b) / 2.0

    @property
    def c(self) -> float:
        return 2.0 ** (1.0 - self.s) / math.gamma(self.s)

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


def _flux_divergence(a_inner: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_{i+1/2} (x_{i+1} - x_i) - a_{i-1/2} (x_i - x_{i-1}) per node, end fluxes zero.

    The differences are taken first: the product form (sub, main, sup) @ x
    cancels terms of size |x| / h^2 and loses about eps |x| / h^2 per node.
    """
    flux = np.zeros(x.size + 1)
    flux[1:-1] = a_inner * (x[1:] - x[:-1])
    return flux[1:] - flux[:-1]


@dataclass(frozen=True)
class _NormalSystem:
    """Normal equations A y = r(0) of the constrained profile problem on one grid.

    D = L - I is the tridiagonal flux operator, D x = div(x) / (h m) - x
    with div = `_flux_divergence` and m the masses (`hm` = h m), W =
    diag(masses) and C maps the unknowns y (the free nodes 1..k, then the
    coefficients of the tail shapes g1, g2 on the nodes from `first_tail` on)
    to grid functions.  `bands` holds A = C^T D^T W D C in upper banded storage,
    bands[3 - d, j] = A[j - d, j]: D^T W D is pentadiagonal and each tail
    column reaches only the last two free nodes, so A has upper bandwidth 3.
    """

    t: np.ndarray
    masses: np.ndarray
    hm: np.ndarray
    a_inner: np.ndarray
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
        return _flux_divergence(self.a_inner, x) / self.hm - x

    def residual(self, y: np.ndarray) -> np.ndarray:
        """r(y) = -C^T D^T W D (e_0 + C y), applied factor by factor, never through A.

        D^T v = div(v / (h m)) - v, since h m (D + I) = div is symmetric.
        """
        v = self.masses * self.apply_D(self.expand(y))
        v = _flux_divergence(self.a_inner, v / self.hm) - v
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
    return _NormalSystem(t=t, masses=masses, hm=hm, a_inner=a_inner,
                         first_tail=first_tail, g1=g1, g2=g2, bands=bands)


def _band_blocks(bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix in upper banded storage as the 2x2 blocks of `_BlockCholesky`.

    Identity rows lead it to 2^K - 1 blocks.  The normal matrix is
    pentadiagonal except for its one entry at distance 3, A[k - 2, k + 1];
    the leading rows make its order even, so that entry falls inside a
    coupling block and the matrix is block tridiagonal.
    """
    size = bands.shape[1]
    m = (1 << ((size + 1) // 2).bit_length()) - 1
    pad = 2 * m - size
    # row d holds the padded A[i, i + d] at i, reshaped to [d, block, entry]
    rows = np.zeros((4, 2 * m))
    rows[0, :pad] = 1.0
    for d in range(4):
        rows[d, pad:pad + size - d] = bands[3 - d, d:]
    rows = rows.reshape(4, m, 2)
    upper = np.zeros((2, 2, m + 1))
    upper[..., 1:-1] = rows[[[2, 3], [1, 2]], :-1, [[0, 0], [1, 1]]]
    return rows[[[0, 1], [1, 0]], :, [[0, 0], [0, 1]]], upper


class _BlockCholesky:
    """Cholesky factor of the normal matrix, given in upper banded storage, in 2x2 blocks.

    Odd-even cyclic reduction in Cholesky form (Heller, SIAM J. Numer.
    Anal. 13 (1976) 484) on the m = 2^K - 1 blocks of `_band_blocks`,
    numbered from 0: each level factors its even-numbered pivots D = L L^T
    and leaves to the odd ones the Schur complements D_o - W W^T, with
    W = U L^-T for the coupling U of a pivot to each neighbour, and the
    couplings -W_left W_right^T between them; that leaves 2^(K-1) - 1 blocks,
    and K levels factor all.  This is the Cholesky factor of the matrix with
    its blocks in elimination order, so a solve runs down the levels and
    back up on 2x2 triangular solves; no pivot is inverted.  Every step is
    elementwise over a level's blocks, stored entry first: `diag` (2, 2, m)
    holds the diagonal blocks (lower triangles read) and `upper`
    (2, 2, m + 1) at i the block coupling block i - 1 to block i, zero at both
    ends, so every pivot has two neighbours.  A pivot that is not positive
    definite raises `SolverError`.
    """

    def __init__(self, bands: np.ndarray):
        diag, upper = _band_blocks(bands)
        self.pad = 2 * diag.shape[-1] - bands.shape[1]      # the leading identity rows
        self.levels = []
        while diag.shape[-1]:
            d11, d21, d22 = diag[0, 0, 0::2], diag[1, 0, 0::2], diag[1, 1, 0::2]
            if not (d11 > 0.0).all():
                raise SolverError("normal-equation solve failed: a pivot is not positive")
            l11 = np.sqrt(d11)
            l21 = d21 / l11
            d22 = d22 - l21 * l21
            if not (d22 > 0.0).all():
                raise SolverError("normal-equation solve failed: a pivot is not positive")
            l22 = np.sqrt(d22)
            # rows 0, 1 couple each pivot j to block j - 1, rows 2, 3 to block j + 1
            U = np.concatenate([upper[..., 0::2], upper[..., 1::2].swapaxes(0, 1)])
            W = np.empty_like(U)
            W[:, 0] = U[:, 0] / l11
            W[:, 1] = (U[:, 1] - W[:, 0] * l21) / l22
            dots = np.einsum("rcn,scn->rsn", W, W)      # W W^T, pivot by pivot
            diag = diag[..., 1::2] - (dots[2:, 2:, :-1] + dots[:2, :2, 1:])
            upper = -dots[:2, 2:]
            self.levels.append((l11, l21, l22, W))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with A x = r."""
        r = np.concatenate([np.zeros(self.pad), r]).reshape(-1, 2).T    # column i: block i
        down = []
        for l11, l21, l22, W in self.levels:
            z = np.empty((2, l11.size))
            z[0] = r[0, 0::2] / l11
            z[1] = (r[1, 0::2] - l21 * z[0]) / l22
            coupled = np.einsum("rcn,cn->rn", W, z)
            r = r[:, 1::2] - coupled[2:, :-1] - coupled[:2, 1:]
            down.append(z)
        x = r
        for (l11, l21, l22, W), z in zip(reversed(self.levels), reversed(down)):
            near = np.zeros((4, l11.size))      # each pivot's neighbours, as W's rows pair them
            near[:2, 1:], near[2:, :-1] = x, x
            z -= np.einsum("rcn,rn->cn", W, near)
            up = np.empty((2, 2 * l11.size - 1))
            up[1, 0::2] = z[1] / l22
            up[0, 0::2] = (z[0] - l21 * up[1, 0::2]) / l11
            up[:, 1::2] = x
            x = up
        return x.T.reshape(-1)[self.pad:]


def solve_profile(b: float, T_max: float = 24.0, resolution: int = 16384) -> ProfileSolution:
    """Discrete minimizer of J over the constrained grid-function space.

    The normal equations are factored once by `_BlockCholesky` and refined
    three times from y = 0 against the factored residual
    (`_NormalSystem.residual`): at the default grid phi stops moving (to
    about 1e-11) after the second step, and the third covers the slower
    contraction of finer grids.  The grid is refused, with `DomainError`,
    above MAX_PROFILE_CELLS cells or a step T_max / resolution above
    MAX_PROFILE_STEP.
    """
    _check_weight_exponent(b)
    if not (math.isfinite(T_max) and T_max >= 20.0):
        raise DomainError(f"T_max must be finite and at least 20, got {T_max}")
    if not _int_at_least(resolution, 512):
        raise DomainError(f"resolution must be an integer of at least 512, got {resolution!r}")
    if resolution > MAX_PROFILE_CELLS:
        raise DomainError(f"resolution {resolution} exceeds the cap of {MAX_PROFILE_CELLS}")
    n = int(resolution)
    h = T_max / n
    if h > MAX_PROFILE_STEP:
        raise DomainError(f"step T_max / resolution = {h:.4g} exceeds the cap of "
                          f"{MAX_PROFILE_STEP}; raise the resolution or lower T_max")
    system = _normal_system(b, T_max, n)
    factor = _BlockCholesky(system.bands)
    y = np.zeros(system.bands.shape[1])
    for _ in range(3):
        y += factor.solve(system.residual(y))
    if not np.all(np.isfinite(y)):
        main = system.bands[3]
        raise SolverError(
            "non-finite minimizer; diagonal range "
            f"[{main.min():.3e}, {main.max():.3e}] suggests severe ill-conditioning"
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
    if t_levels.ndim != 1:
        raise InputError(f"t levels must be a 1-D list, got shape {t_levels.shape}")
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
    if not _int_at_least(n_shells, 1):
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
