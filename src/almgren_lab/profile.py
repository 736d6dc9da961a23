"""Fourth-order extension profile, extension constant and Fourier-side extension.

The profile phi minimizes J(phi) = int t^b (D_b phi - phi)^2 dt over grid
functions on [0, T_max] with phi(0) = 1 and phi'(0) = 0, where
D_b phi = phi'' + (b/t) phi'.  The discrete operator is a conservative
flux-form finite-volume Laplacian whose cell masses integrate t^b in closed
form; the same masses define the quadrature for J.  There is no far-field
model: phi is free at T_max, where the end flux is zero.  The minimizer
decays like t^{1 - b/2} e^{-t} and is below 1.3e-7 at the smallest
accepted T_max = 20, so J on the step h = 1/512 agrees between
T_max = 20 and 24 to 1e-12.  Past T_max the profile is 0.  The resulting
normal equations are a symmetric positive definite pentadiagonal matrix;
they are assembled band by band, factored by block-Cholesky cyclic
reduction in 2x2 blocks (`_BlockCholesky`) and refined against the
residual applied through the flux-form factors, whose differences are
taken first.  The formed normal matrix cancels terms of size h^-4 and so
holds phi's smooth part only to about 1e-6; the factored residual keeps
the h^-2 sensitivity of the operator itself, and the refinement converges
to the discrete minimizer with clean h^2 convergence.

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

# Finest grid `solve_profile` accepts.  The normal matrix's condition number
# grows like h^-4: 2^15 cells still converge at h^2 for every b tried and
# every T_max >= 20, and three refinements settle phi there; 2^16 cells
# still factor, but at T_max = 20, b = 0 the third refinement still moves
# phi by 4e-4.
MAX_PROFILE_CELLS = 2 ** 15
# Coarsest step h = T_max / resolution `solve_profile` accepts: J drifts
# from C_b as h grows (b = 0: J = 1.837 at h = 1.37 and 1.966 at h = 0.39,
# against C_b = 2).  The README defaults and the tests use h <= 30/512.
MAX_PROFILE_STEP = 1.0 / 16.0


def _profile_argument(tau) -> np.ndarray:
    """tau as a float array, refused with `DomainError` where negative or NaN."""
    t = np.asarray(tau, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("profile argument must be nonnegative and not NaN")
    return t


@dataclass(frozen=True)
class ProfileSolution:
    """Discretized minimizer phi with zeta = D_b phi - phi and its J value.

    `phi_at` and `zeta_at` interpolate the samples on [0, T_max] and are 0
    past it; a negative or NaN argument raises `DomainError`.
    """

    b: float
    T_max: float
    t: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    J: float
    grad_energy: float
    ode_residual: float

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

    def _on_grid(self, spline, tau):
        """The spline on [0, T_max] and 0 past it."""
        t = _profile_argument(tau)
        out = np.where(t <= self.T_max, spline(np.minimum(t, self.T_max)), 0.0)
        return out if out.ndim else float(out)

    def phi_at(self, tau):
        return self._on_grid(self._phi_spline, tau)

    def zeta_at(self, tau):
        return self._on_grid(self._zeta_spline, tau)


def _limit_at_zero(ts: np.ndarray, zs: np.ndarray, alpha: float) -> float:
    """Value at 0 of the fit of three samples in the basis {1, t^{2 alpha}, t^2}.

    At b = 0 (2 alpha = 1) the basis is plain quadratic extrapolation.
    """
    A = np.column_stack([np.ones(3), ts ** (2.0 * alpha), ts ** 2])
    return float(np.linalg.solve(A, zs)[0])


def _power_bessel(order: float, tau, coef: float, at_zero: float):
    """coef t^order K_order(t), continued by its limit at 0 and by 0 past underflow.

    A negative or NaN t raises `DomainError`; t = inf gives 0.
    """
    from scipy.special import kv

    t = _profile_argument(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        out = coef * t ** order * kv(order, t)
    out = np.where(np.isfinite(out), out, np.where(t < 1.0, at_zero, 0.0))
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
    """Normal equations A y = r(0) of the profile problem on one grid.

    D = L - I is the tridiagonal flux operator, D x = div(x) / (h m) - x
    with div = `_flux_divergence` and m the masses (`hm` = h m), and W =
    diag(masses).  The unknowns y are the nodes 1..n, phi(0) = 1 is fixed,
    so A = D^T W D without its row and column 0.  `bands` holds this
    pentadiagonal A in upper banded storage, bands[2 - d, j] = A[j - d, j].
    """

    t: np.ndarray
    masses: np.ndarray
    hm: np.ndarray
    a_inner: np.ndarray
    bands: np.ndarray

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The grid function phi(0) = 1, then nodes 1..n."""
        return np.concatenate([[1.0], y])

    def apply_D(self, x: np.ndarray) -> np.ndarray:
        return _flux_divergence(self.a_inner, x) / self.hm - x

    def residual(self, y: np.ndarray) -> np.ndarray:
        """r(y) = -(D^T W D x)[1:] for x = `expand(y)`, applied factor by factor, never through A.

        D^T v = div(v / (h m)) - v, since h m (D + I) = div is symmetric.
        """
        v = self.masses * self.apply_D(self.expand(y))
        v = _flux_divergence(self.a_inner, v / self.hm) - v
        return -v[1:]


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

    # D^T W D without node 0: node i is unknown i - 1
    md = masses * main
    bands = np.zeros((3, n))
    bands[2] = (md * main)[1:] + masses[:-1] * sup * sup
    bands[2, :-1] += masses[2:] * sub[1:] * sub[1:]
    bands[1, 1:] = md[1:-1] * sup[1:] + masses[2:] * sub[1:] * main[2:]
    bands[0, 2:] = masses[2:-1] * sub[1:-1] * sup[2:]
    return _NormalSystem(t=t, masses=masses, hm=hm, a_inner=a_inner, bands=bands)


def _band_blocks(bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix in upper banded storage as the 2x2 blocks of `_BlockCholesky`.

    An odd order gets one leading identity row.  A pentadiagonal matrix in
    2x2 blocks is block tridiagonal; the coupling blocks are lower triangular.
    """
    size = bands.shape[1]
    m = (size + 1) // 2
    pad = 2 * m - size
    # row d holds the padded A[i, i + d] at i, reshaped to [d, block, entry]
    rows = np.zeros((3, 2 * m))
    rows[0, :pad] = 1.0
    for d in range(3):
        rows[d, pad:pad + size - d] = bands[2 - d, d:]
    rows = rows.reshape(3, m, 2)
    upper = np.zeros((2, 2, m + 1))
    upper[0, 0, 1:-1], upper[1, 1, 1:-1] = rows[2, :-1, 0], rows[2, :-1, 1]
    upper[1, 0, 1:-1] = rows[1, :-1, 1]
    return rows[[[0, 1], [1, 0]], :, [[0, 0], [0, 1]]], upper


class _BlockCholesky:
    """Cholesky factor of the normal matrix, given in upper banded storage, in 2x2 blocks.

    Odd-even cyclic reduction in Cholesky form (Heller, SIAM J. Numer.
    Anal. 13 (1976) 484) on the m blocks of `_band_blocks`, numbered from 0:
    each level factors its p = ceil(m/2) even-numbered pivots D = L L^T and
    leaves to the m - p odd ones the Schur complements D_o - W W^T, with
    W = U L^-T for the coupling U of a pivot to each neighbour, and the
    couplings -W_left W_right^T between them; floor(log2 m) + 1 levels
    factor all.  When m is even the last odd block has no right pivot.
    This is the Cholesky factor of the matrix with its blocks in
    elimination order, so a solve runs down the levels and back up on 2x2
    triangular solves; no pivot is inverted.  Every step is elementwise over
    a level's blocks, stored entry first: `diag` (2, 2, m) holds the
    diagonal blocks (lower triangles read) and `upper` (2, 2, m + 1) at i
    the block coupling block i - 1 to block i, zero at both ends, so every
    pivot has two neighbours.  A pivot that is not positive definite raises
    `SolverError`.
    """

    def __init__(self, bands: np.ndarray):
        diag, upper = _band_blocks(bands)
        self.pad = 2 * diag.shape[-1] - bands.shape[1]      # the leading identity row
        self.levels = []
        while diag.shape[-1]:
            p = (diag.shape[-1] + 1) // 2
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
            U = np.concatenate([upper[..., 0:2 * p:2], upper[..., 1::2].swapaxes(0, 1)])
            W = np.empty_like(U)
            W[:, 0] = U[:, 0] / l11
            W[:, 1] = (U[:, 1] - W[:, 0] * l21) / l22
            dots = np.einsum("rcn,scn->rsn", W, W)      # W W^T, pivot by pivot
            diag = diag[..., 1::2] - dots[2:, 2:, :diag.shape[-1] - p]
            diag[..., :p - 1] -= dots[:2, :2, 1:]
            upper = np.zeros((2, 2, diag.shape[-1] + 1))
            upper[..., :p] = -dots[:2, 2:]
            self.levels.append((l11, l21, l22, W))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with A x = r."""
        r = np.concatenate([np.zeros(self.pad), r]).reshape(-1, 2).T    # column i: block i
        down = []
        for l11, l21, l22, W in self.levels:
            p = l11.size
            z = np.empty((2, p))
            z[0] = r[0, 0::2] / l11
            z[1] = (r[1, 0::2] - l21 * z[0]) / l22
            coupled = np.einsum("rcn,cn->rn", W, z)
            r = r[:, 1::2] - coupled[2:, :r.shape[1] - p]
            r[:, :p - 1] -= coupled[:2, 1:]
            down.append(z)
        x = r
        for (l11, l21, l22, W), z in zip(reversed(self.levels), reversed(down)):
            p, q = l11.size, x.shape[1]
            near = np.zeros((4, p))      # each pivot's neighbours, as W's rows pair them
            near[:2, 1:], near[2:, :q] = x[:, :p - 1], x
            z -= np.einsum("rcn,rn->cn", W, near)
            up = np.empty((2, p + q))
            up[1, 0::2] = z[1] / l22
            up[0, 0::2] = (z[0] - l21 * up[1, 0::2]) / l11
            up[:, 1::2] = x
            x = up
        return x.T.reshape(-1)[self.pad:]


def solve_profile(b: float, T_max: float = 24.0, resolution: int = 16384) -> ProfileSolution:
    """Discrete minimizer of J over the grid functions with phi(0) = 1.

    The normal equations are factored once by `_BlockCholesky` and refined
    three times from y = 0 against the factored residual
    (`_NormalSystem.residual`): at the default grid phi moves by about
    1e-11 (4e-10 at b = 0) in the third step and by 2e-14 after it; the
    third covers the slower contraction of finer grids (at
    MAX_PROFILE_CELLS phi moves by 1e-13 or less after it, by 7e-9 at
    T_max = 20, b = 0).  The grid is refused, with `DomainError`, above
    MAX_PROFILE_CELLS cells or a step T_max / resolution above
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
    y = np.zeros(n)
    for _ in range(3):
        y += factor.solve(system.residual(y))
    if not np.all(np.isfinite(y)):
        main = system.bands[2]
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
    resid = system.apply_D(zeta)[1:]  # L zeta - zeta on the free nodes
    num = float(np.sqrt(np.sum(masses[1:] * resid ** 2)))
    den = float(np.sqrt(np.sum(masses[1:] * zeta[1:] ** 2)))
    ode_residual = num / den if den > 0 else 0.0
    return ProfileSolution(
        b=b, T_max=T_max, t=t, phi=phi, zeta=zeta, J=J,
        grad_energy=grad_energy, ode_residual=ode_residual,
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
