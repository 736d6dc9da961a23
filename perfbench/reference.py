"""Independent references for the benchmark's checks.

Nothing here imports ``almgren_lab``: every value is computed from closed
forms (exact hemisphere spectrum, Bessel-K extension profile, separable-mode
Hardy integrals) or from the benchmark's own Gauss-Jacobi quadrature, so a
check compares the program against a computation made apart from it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, kv, roots_jacobi

EPS_FLOOR = 2.2e-16


def weight_b(s: float) -> float:
    return 3.0 - 2.0 * s


def exact_mu(sigma: int, N: int, b: float) -> float:
    """Hemisphere eigenvalue mu = sigma (sigma + N + b - 1)."""
    return sigma * (sigma + N + b - 1.0)


def nearest_sigma(mu: float, N: int, b: float) -> int:
    """Integer sigma >= 0 whose exact eigenvalue is closest to mu."""
    top = int(math.sqrt(max(mu, 0.0))) + 2
    return min(range(top + 1), key=lambda sigma: abs(exact_mu(sigma, N, b) - mu))


def exact_sigma_plus(sigma: int, N: int, b: float) -> float:
    """Larger root of x (x + N + b - 1) = mu_sigma, i.e. max(sigma, 1 - N - b - sigma).

    It exceeds sigma only for the constant mode when N + b < 1 (N = 1, s > 3/2).
    """
    return max(float(sigma), 1.0 - N - b - sigma)


def harmonic_dim(N: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonics on S^{N-1} (1 for N = 1)."""
    if N == 1:
        return 1
    return math.comb(N + k - 1, k) - (math.comb(N + k - 3, k - 2) if k >= 2 else 0)


def true_multiplicity(N: int, sigma: int) -> int:
    """Sum of dim H_k(S^{N-1}) over k <= sigma with k = sigma (mod 2)."""
    if N == 1:
        return 1
    return sum(harmonic_dim(N, k) for k in range(sigma % 2, sigma + 1, 2))


def exact_mode_sigmas(N: int, k_max: int, per_k: int) -> list[int]:
    """sigma of each position of the merged mode list ``hemisphere_eigs`` returns.

    Sector k holds sigma = k, k + 2, ..., (per_k of them); N = 1 has the single
    sector with sigma = 0, 1, ....  Sorting by mu orders by sigma, so the
    sigma at a list position does not depend on how ties are broken.
    """
    if N == 1:
        return list(range(per_k))
    return sorted(k + 2 * j for k in range(k_max + 1) for j in range(per_k))


def resonance_K(sigma: float, N: int, b: float) -> float:
    """K = (s+2)(s+1) + (N+b)(s+2) - mu at s = sigma, which equals 2(2 sigma + N + b + 1)."""
    return 2.0 * (2.0 * sigma + N + b + 1.0)


def profile_c(s: float) -> float:
    return 2.0 ** (1.0 - s) / gamma(s)


def profile_phi(s: float, t) -> np.ndarray:
    """Extension profile phi(t) = c t^s K_s(t), phi(0) = 1 (Yang, arXiv:1302.4413)."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    pos = t > 0
    out[pos] = profile_c(s) * t[pos] ** s * kv(s, t[pos])
    return out


def extension_constant(s: float) -> float:
    """C_b = 2 pi (s-1) c^2 / sin(pi (s-1))."""
    c = profile_c(s)
    return 2.0 * math.pi * (s - 1.0) * c * c / math.sin(math.pi * (s - 1.0))


def hardy_mode_margin(s: float, N: int, sigma: int, c1: float, r: float) -> tuple[float, float]:
    """Closed-form Hardy margin of U = c1 rho^sigma P(psi) and its scale.

    With P normalized on the weighted half sphere and A the area factor,
    I_ball = c1^2 A r^{2 sigma + beta + 1} / (2 sigma + beta + 1),
    I_surf = c1^2 A r^{2 sigma + beta}, I_grad = c1^2 A (sigma^2 + mu)
    r^{2 sigma + beta - 1} / (2 sigma + beta - 1), beta = N + b.  Returns
    the margin I_grad + k I_surf - k^2 I_ball, k = (N+b-1)/(2r), and its scale
    I_grad + |k| I_surf + k^2 I_ball, or I_surf where that vanishes (the
    constant mode at N + b = 1).
    """
    b = weight_b(s)
    beta = N + b
    area = 1.0 if N == 1 else 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    mu = exact_mu(sigma, N, b)
    amp = c1 * c1 * area
    i_ball = amp * r ** (2 * sigma + beta + 1) / (2 * sigma + beta + 1)
    i_surf = amp * r ** (2 * sigma + beta)
    i_grad = 0.0 if sigma == 0 else amp * (sigma * sigma + mu) * r ** (2 * sigma + beta - 1) / (2 * sigma + beta - 1)
    k = (beta - 1.0) / (2.0 * r)
    scale = i_grad + abs(k) * i_surf + k * k * i_ball
    return i_grad + k * i_surf - k * k * i_ball, scale if scale > 0 else i_surf


class GaussJacobiHalfBall:
    """Tensor Gauss-Jacobi rule for the half ball with measure t^b dz.

    The radial factor rho^{N+b} and the degenerate angular factor are the
    Jacobi weights, so smooth fields integrate to near roundoff with a few
    dozen nodes per axis.  Points are returned as (q, t) in the package's
    conventions: (rho sin psi, rho cos psi) for N >= 2 and (rho cos phi,
    rho sin phi) for N = 1.
    """

    def __init__(self, s: float, N: int, n: int = 96):
        b = weight_b(s)
        self.N, self.b, self.n = N, b, n
        x, w = roots_jacobi(n, 0.0, b)
        half = math.pi / 4.0                       # u in (0, pi/2) from x in (-1, 1)
        u = half * (1.0 + x)
        wu = w * half ** (b + 1.0) * (np.sin(u) / u) ** b
        if N == 1:
            self.angles = np.concatenate([u, math.pi - u])
            self.ang_w = np.concatenate([wu, wu])
            self.area = 1.0
        else:
            psi = math.pi / 2.0 - u
            self.angles = psi
            self.ang_w = wu * np.sin(psi) ** (N - 1)
            self.area = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)

    def _xt(self, rho, ang):
        if self.N == 1:
            return rho * np.cos(ang), rho * np.sin(ang)
        return rho * np.sin(ang), rho * np.cos(ang)

    def ball(self, f, r: float) -> float:
        """int_{B_r^+} t^b f dz for f(q, t)."""
        p = self.N + self.b
        x, w = roots_jacobi(self.n, 0.0, p)
        rho = 0.5 * r * (1.0 + x)
        wr = w * (0.5 * r) ** (p + 1.0)
        q, t = self._xt(rho[:, None], self.angles[None, :])
        return float(self.area * (wr @ (np.asarray(f(q, t)) @ self.ang_w)))

    def sphere(self, f, r: float) -> float:
        """int_{S_r^+} t^b f dS for f(q, t)."""
        q, t = self._xt(r, self.angles)
        return float(self.area * r ** (self.N + self.b) * (np.asarray(f(q, t)) @ self.ang_w))


def hardy_scale(field, s: float, N: int, r: float) -> float:
    """RHS of the boundary Hardy inequality, int t^b |grad U|^2 + k int_S t^b U^2."""
    rule = GaussJacobiHalfBall(s, N)

    def grad2(q, t):
        gq, gt = field.grad(q, t)
        return gq ** 2 + gt ** 2

    k = (N + weight_b(s) - 1.0) / (2.0 * r)
    return rule.ball(grad2, r) + k * rule.sphere(lambda q, t: field.value(q, t) ** 2, r)


def rellich_scale(field, params, s: float, N: int, r: float) -> float:
    """Leading side of the Hardy-Rellich inequality, int t^b (D_b U)^2."""
    rule = GaussJacobiHalfBall(s, N)
    return rule.ball(lambda q, t: field.lap_b(q, t, params) ** 2, r)


def rel_err(value: float, ref: float, scale: float | None = None) -> float:
    """|value - ref| / scale (default |ref|); NaN or inf reads as total loss."""
    denom = abs(ref) if scale is None else abs(scale)
    err = abs(value - ref) / denom if denom > 0 else abs(value - ref)
    return err if math.isfinite(err) else math.inf


def digits(worst_err: float) -> float:
    """-log10 of the relative error, floored at 2.2e-16 and capped at 1 (0 digits)."""
    return -math.log10(min(max(worst_err, EPS_FLOOR), 1.0))
