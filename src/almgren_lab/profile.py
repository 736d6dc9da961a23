"""Fourth-order extension profile, extension constant and Fourier-side extension.

The profile phi minimizes J(phi) = int t^b (D_b phi - phi)^2 dt over grid
functions on [0, T_max] with phi(0) = 1 and phi'(0) = 0, where
D_b phi = phi'' + (b/t) phi'.  The discrete operator is a conservative
flux-form finite-volume Laplacian whose cell masses integrate t^b in closed
form; the same masses define the quadrature for J.  There is no far-field
model: phi is free at T_max, where the end flux is zero.  The minimizer
decays like t^{1 - b/2} e^{-t} and is below 1.3e-7 at the smallest
accepted T_max = 20, so J on the step h = 1/512 agrees between
T_max = 20 and 24 to 1e-12.  Past T_max the profile is 0.  D has one row
more than it has unknowns (phi(0) = 1 is fixed), and its square part is a
row-scaled symmetric negative definite tridiagonal matrix; so the minimizer
is one bordered solve: `core._Tridiagonal` factors that matrix once from
its row excesses, by odd-even cyclic reduction on numpy, and two solves
give phi (see `solve_profile`).  No normal equations are formed and no
step cancels, so phi is the discrete minimizer to roundoff, and J
converges at h^2 past the grid cap.

The minimizer also has a closed form (R. Yang, arXiv:1302.4413): with
s = (3 - b)/2 and c = 2^{1-s} / Gamma(s), phi(t) = c t^s K_s(t).
`BesselProfile` evaluates it and is the profile the extension uses;
`solve_profile` stays as the independent finite-volume cross-check; its
solve and its interpolating splines (`core._CubicSpline`) run on numpy
alone, and so does the closed form: t^nu K_nu(t) comes from
`special_functions._power_bessel_k`.

The extension of a torus sample u is built frequency-wise as
Uhat(xi, t) = uhat(xi) phi(|xi| t).  `build_extension`,
`extension_energy_identity` and `trace_laplacian_check` share one preamble,
`_fourier_sample`, which gates the sample and the box length with `core`'s
predicates and the band limit, then builds the |xi| grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    InputError,
    SolverError,
    TraceProportionalityError,
    WeightParams,
    _count,
    _CubicSpline,
    _Tridiagonal,
    _finite,
    _number,
    _radius,
    gauss_jacobi,
)
from .special_functions import _power_bessel_k

# Finest grid `solve_profile` accepts.  J converges at h^2 well past it (b = 0,
# T_max = 24: |J / C_b - 1| = 6.7e-8 at 2^15 cells, 4.2e-9 at 2^17), but the
# reported `ode_residual` applies D twice and its roundoff floor grows like
# eps h^-4: 1.0e-3 at 2^15 cells, 2.6e-2 at 2^16 and 0.41 at 2^17, where it
# no longer measures the equation.
MAX_PROFILE_CELLS = 2 ** 15
# Coarsest step h = T_max / resolution `solve_profile` accepts: J drifts
# from C_b as h grows (b = 0: J = 1.837 at h = 1.37 and 1.966 at h = 0.39,
# against C_b = 2).  The README defaults and the tests use h <= 30/512.
MAX_PROFILE_STEP = 1.0 / 16.0


@dataclass(frozen=True)
class ProfileSolution:
    """Discretized minimizer phi with zeta = D_b phi - phi and its J value.

    `ode_residual` is the weighted relative residual of D_b zeta = zeta on
    the free nodes.  It applies the discrete operator twice, so its roundoff
    floor is about eps h^-4 and grows about 16x per halving of h (b = 0,
    T_max = 24: 7.0e-5 at 2^14 cells, 1.0e-3 at 2^15); it bounds the
    equation's defect only down to that floor.

    `phi_at` and `zeta_at` interpolate the samples on [0, T_max] and are 0
    past it; a negative or NaN argument raises `DomainError`.
    """

    b: float
    T_max: float
    t: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    J: float
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
        t = _number(tau, "profile argument", 0.0, math.inf, "[]", array=True)
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
    try:
        return float(np.linalg.solve(A, zs)[0])
    except np.linalg.LinAlgError:   # samples so close to 0 that the basis is singular
        raise SolverError(f"the fit at t = {ts.tolist()} is singular") from None


def _power_bessel(order: float, tau, coef: float, at_zero: float):
    """coef t^order K_order(t), continued by its limit at 0 and by 0 past underflow.

    A negative or NaN t raises `DomainError`; t = inf gives 0.
    """
    t = _number(tau, "profile argument", 0.0, math.inf, "[]", array=True)
    positive = t > 0.0
    if positive.any():                               # 1 stands in for 0, which gives at_zero
        k = _power_bessel_k(order, np.where(positive, t, 1.0).ravel()).reshape(t.shape)
        out = np.where(positive, coef * k, at_zero)
    else:
        out = np.full(t.shape, at_zero)
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
        object.__setattr__(self, "b", _number(self.b, "weight exponent b", -1.0, 1.0))

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
    bp1 = b + 1.0
    masses = f1 ** bp1
    masses /= bp1
    # in place, one grid-sized temporary: -(f1 - f0)/f1 -> 1 - (f0/f1)^{b+1}
    shrink = np.diff(f1)
    shrink /= f1[1:]
    np.negative(shrink, out=shrink)
    np.log1p(shrink, out=shrink)
    shrink *= bp1
    np.expm1(shrink, out=shrink)
    np.negative(shrink, out=shrink)
    masses[1:] *= shrink
    return masses


def _apply_D(a_inner: np.ndarray, hm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D x = div(x) / (h m) - x on every node, end fluxes zero.

    div(x) = a_{i+1/2} (x_{i+1} - x_i) - a_{i-1/2} (x_i - x_{i-1}), the
    differences taken first: the product form (sub, main, sup) @ x cancels
    terms of size |x| / h^2 and loses about eps |x| / h^2 per node.
    """
    flux = np.zeros(x.size + 1)
    np.subtract(x[1:], x[:-1], out=flux[1:-1])
    flux[1:-1] *= a_inner
    out = np.diff(flux)
    out /= hm
    out -= x
    return out


def _profile_grid(b: float, T_max: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, cell masses and interior face coefficients t^b of n cells on [0, T_max].

    Node i owns the cell between the faces t_i -/+ h/2, clipped to [0, T_max].
    t is `np.linspace(0, T_max, n + 1)` to the bit, built in place.
    """
    h = T_max / n
    t = np.arange(n + 1, dtype=float)
    t *= h
    t[-1] = T_max
    faces = np.empty(n + 2)
    faces[0], faces[-1] = 0.0, T_max
    np.add(t[:-1], h / 2.0, out=faces[1:-1])
    return t, _cell_masses_tb(b, faces), faces[1:-1] ** b


def solve_profile(b: float, T_max: float = 24.0, resolution: int = 16384) -> ProfileSolution:
    """Discrete minimizer of J over the grid functions with phi(0) = 1.

    D has n + 1 rows and n unknowns, the nodes 1..n.  Its square part
    satisfies h m D[1:, 1:] = S = div - diag(h m), where -S is symmetric
    positive definite and tridiagonal, so e = (D phi)[1:] determines phi:
    phi[1:] = S^-1 (h m e - a_0 e_1), a_0 the coefficient of the first face.
    With u = S^-1 e_1, (D phi)_0 = delta + g.e for g = (a_0 / m_0) m u and
    delta its value at e = 0, and J = m_0 (delta + g.e)^2 + sum m_i e_i^2
    is least at the rank-one
    e = -a_0 delta u / (1 + a_0^2 sum m_i u_i^2 / m_0).  So -S is factored
    once (`core._Tridiagonal`, from its row excesses h m and couplings) and
    solved twice, for u and then for phi; no normal equations are formed.
    A negative pivot, which an M-matrix cannot have, raises `SolverError`.
    Both right-hand sides have one sign, and delta takes 1 + a_0 u_1 as
    -sum h m u (the row sums of -S), so nothing cancels and phi is right to
    a few eps (8e-16 against an extended-precision solve at the grid cap).
    `ode_residual` applies D twice, so its roundoff floor grows like
    eps h^-4, about 16x per halving of h (see `ProfileSolution`).  The grid
    is refused, with `DomainError`, above MAX_PROFILE_CELLS cells or a step
    T_max / resolution above MAX_PROFILE_STEP.
    """
    b = _number(b, "weight exponent b", -1.0, 1.0)
    n = _count(resolution, "resolution", 512, MAX_PROFILE_CELLS)
    T_max = _number(T_max, f"T_max (at most resolution x the step cap {MAX_PROFILE_STEP})",
                    20.0, n * MAX_PROFILE_STEP, "[]")
    h = T_max / n
    t, masses, a_inner = _profile_grid(b, T_max, n)
    hm = h * masses
    a0 = a_inner[0]
    # -S on the nodes 1..n: the excess of row i is h m_i, plus a_0 at node 1,
    # whose face to node 0 is not a coupling of -S
    excess = hm[1:].copy()
    excess[0] += a0
    factor = _Tridiagonal(excess, a_inner[1:], a_inner[1:])
    if factor.negatives:
        raise SolverError("tridiagonal solve failed: a pivot is not positive")
    r = np.zeros(n)
    r[0] = 1.0
    x = factor.solve(r)                                 # -S^-1 e_1 = -u >= 0
    # 1 + a_0 u_1 = sum h m x by the row sums of -S x = e_1: no cancellation
    delta = -1.0 - a0 / hm[0] * float(hm[1:] @ x)      # (D phi)_0 at e = 0
    gain = -a0 * delta / (1.0 + a0 * a0 * float((masses[1:] * x) @ x) / masses[0])
    # phi[1:] = S^-1 (h m e - a_0 e_1) with e = -gain x; the right-hand side is >= 0
    r = hm[1:] * x
    r *= gain
    r[0] += a0
    phi = np.empty(n + 1)
    phi[0] = 1.0
    phi[1:] = factor.solve(r)
    if not np.all(np.isfinite(phi)):
        raise SolverError(
            "non-finite minimizer; tridiagonal excess range "
            f"[{excess.min():.3e}, {excess.max():.3e}] suggests severe ill-conditioning"
        )

    zeta = _apply_D(a_inner, hm, phi)
    weighted = masses * zeta
    J = float(weighted @ zeta)
    resid = _apply_D(a_inner, hm, zeta)[1:]  # L zeta - zeta on the free nodes
    num = math.sqrt(float((masses[1:] * resid) @ resid))
    den = math.sqrt(float(weighted[1:] @ zeta[1:]))
    ode_residual = num / den if den > 0 else 0.0
    return ProfileSolution(
        b=b, T_max=T_max, t=t, phi=phi, zeta=zeta, J=J, ode_residual=ode_residual,
    )


@lru_cache(maxsize=32)
def _cached_profile(b: float) -> ProfileSolution:
    return solve_profile(b)


def extension_constant(b: float) -> float:
    """C_b = J(phi) for the minimizing profile, in closed form."""
    return BesselProfile(b).J


def _fourier_sample(u, box_length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, uhat, |xi|) of a torus sample, the preamble of every Fourier-side check.

    Refuses a sample that is empty, non-finite or so large that its energy
    leaves the float range (`InputError`), a box length whose powers leave
    it (`DomainError`) and a sample with energy at the Nyquist shell
    (`InputError`).
    """
    u = _finite(u, "torus sample")
    box_length = _radius(box_length, "box length", power=u.ndim + 4)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        u_hat = np.fft.fftn(u) if u.size else u
        total = float(np.sum(np.abs(u_hat) ** 2))
    if not (u.ndim and u.size and math.isfinite(total)):
        raise InputError(f"torus sample of shape {u.shape} is empty or too large")
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
    defaults to the closed form `BesselProfile`.  phi is elementwise, so each
    level evaluates it once per distinct |xi| and gathers the multiplier.
    """
    t_levels = _number(_finite(t_levels, "t levels", shape=(None,), nonfinite=False), "t levels",
                       0.0, ends="[)", array=True)
    u, u_hat, xi = _fourier_sample(u, box_length)
    prof = profile or BesselProfile(params.b)
    xi_distinct, where = np.unique(xi, return_inverse=True)
    where = where.reshape(xi.shape)
    out = np.empty((t_levels.size,) + u.shape)
    with np.errstate(over="ignore"):   # |xi| t past the float range: phi(inf) = 0
        for i, tl in enumerate(t_levels):
            out[i] = np.real(np.fft.ifftn(u_hat * prof.phi_at(xi_distinct * tl)[where]))
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
    t_max = _radius(t_max, "t_max", power=2.0)
    x, w = gauss_jacobi(n_t, params.b)
    u, u_hat, xi = _fourier_sample(u, box_length)
    prof = profile or BesselProfile(params.b)
    n_total = u.size
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
    n_shells = _count(n_shells, "shell count")
    u, u_hat, xi = _fourier_sample(u, box_length)
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
    spread = float((estimates.max() - estimates.min()) / abs(kappa)) if kappa else math.inf
    if not spread <= 0.05:   # a NaN spread is no agreement
        raise TraceProportionalityError(
            f"trace ratio spread {spread:.2%} exceeds 5%: not proportional"
        )
    return kappa, spread
