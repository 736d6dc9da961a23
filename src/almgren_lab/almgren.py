"""Frequency function machinery: D, H, N, derivative identities and limits.

Every quantity is available through two independent paths.  The closed-form
path exploits mode orthonormality: each term contributes explicit power laws
whose radial integrals are evaluated analytically, and the bracket of nu1 is
a Lagrange sum of squares, so nu1 >= 0 exactly.  The quadrature path reduces
the horizontal sphere exactly (harmonic orthogonality is structural) and
integrates on one tensor Gauss-Jacobi rule, `gauss_jacobi(n, N + b)` in
rho / r times `AngularGrid1D.gauss(N, b, n)`, with n from `gauss_nodes` of
the largest degree.  For integer exponents the radial integrands are
polynomials the rule integrates exactly; the angular integral stays
numerical over the sampled profiles, which keeps this path an independent
check of the closed path's orthonormality algebra.  At N + b < 1 the
constant mode's ball integrand rho^{-2(N+b)} is no polynomial, so the
quadrature path refuses it.  Both paths take a whole radius schedule in one
numpy pass.  Derivative identities are checked, never used as shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    AngularGrid1D,
    DomainError,
    UnmatchedExponentError,
    VanishingDenominatorError,
    WeightParams,
    gauss_jacobi,
)
from .synthesis import SeparableSolution, gauss_nodes


@dataclass(frozen=True)
class _TermPieces:
    """Ingredients of the frequency records, one array entry per radius."""

    ball_grad: np.ndarray      # int_{B_r^+} t^b (|grad U|^2 + |grad V|^2)
    ball_uv: np.ndarray        # int_{B_r^+} t^b U V
    ball_v_zgrad: np.ndarray   # int_{B_r^+} t^b V (z . grad U)
    s_u2: np.ndarray           # int_{S_r^+} t^b (U^2 + V^2)
    s_uu: np.ndarray           # int_{S_r^+} t^b (U U_nu + V V_nu)
    s_grad: np.ndarray         # int_{S_r^+} t^b (|grad U|^2 + |grad V|^2)
    s_nu: np.ndarray           # int_{S_r^+} t^b (U_nu^2 + V_nu^2)
    s_uv: np.ndarray           # int_{S_r^+} t^b U V

    def at(self, i: int) -> "_TermPieces":
        """The pieces at the i-th radius, as floats."""
        return _TermPieces(*(float(getattr(self, f.name)[i]) for f in fields(self)))


def _coefs(terms) -> np.ndarray:
    """Rows (sigma, c1, e, d1), one column per term."""
    return np.array([(t.sigma, t.c1, t.e, t.d1) for t in terms], dtype=float).reshape(-1, 4).T


def _radial(coefs: np.ndarray, r):
    """phi, phi', phi~, phi~' of the terms whose (sigma, c1, e, d1) rows broadcast against r."""
    s, c1, e, d1 = coefs
    rs = r ** s
    ds = s * r ** (s - 1.0)
    return (c1 * rs + e * r ** (s + 2.0), c1 * ds + e * (s + 2.0) * r ** (s + 1.0),
            d1 * rs, d1 * ds)


# ---------------------------------------------------------------------------
# closed-form path


def _bracket(coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """|a|^2 |b|^2 - (a.b)^2 for a = (phi_i, phi~_i), b = a', summed over pairs.

    Lagrange's identity makes it sum_{i<j} (a_i b_j - a_j b_i)^2.  Every
    entry is C0 r^S + C2 r^{S+2}, so each determinant is r^{S_i+S_j-1} times
    a quadratic in r^2 whose coefficients carry the exponent gaps: equal
    powers cancel exactly, before any rounding.  Entries phi~_i = 0 are left out.
    """
    s, c1, e, d1 = coefs
    live = d1 != 0.0
    S = np.concatenate([s, s[live]])
    C0 = np.concatenate([c1, d1[live]])
    C2 = np.concatenate([e, np.zeros(np.count_nonzero(live))])
    i, j = np.triu_indices(S.size, 1)
    gap = S[j] - S[i]
    K = np.stack([C0[i] * C0[j] * gap,
                  C0[i] * C2[j] * (gap + 2.0) + C2[i] * C0[j] * (gap - 2.0),
                  C2[i] * C2[j] * gap])
    r2 = r * r
    rs = r ** S[:, None]
    det = (K.T @ np.stack([np.ones_like(r), r2, r2 * r2])) * (rs[i] * rs[j])
    return np.einsum("pn,pn->n", det, det) / r2


def _closed_pieces(sol: SeparableSolution, r: np.ndarray) -> np.ndarray:
    """Rows of `_TermPieces` summed over the terms, in one numpy pass over all of them."""
    p = sol.params
    beta = p.N + p.b
    coefs = _coefs(sol.terms)
    s, c1, e, d1 = coefs
    mu = np.array([t.mode.mu for t in sol.terms], dtype=float)
    # the ball integrals are sums of C[j, piece, term] r^q / q over the exponents
    # q = Q[j, term]; the pieces are ball_grad, ball_uv and ball_v_zgrad
    zero = np.zeros_like(s)
    C = np.array([
        [c1 * c1 * (s * s + mu) + d1 * d1 * (s * s + mu), zero, zero],
        [2 * c1 * e * (s * (s + 2) + mu), c1 * d1, c1 * d1 * s],
        [e * e * ((s + 2) ** 2 + mu), e * d1, e * d1 * (s + 2)],
    ])
    Q = 2 * s + beta + np.array([[-1.0], [1.0], [3.0]])
    active = (C != 0.0).any(axis=1)
    divergent = active & (Q <= 0.0)
    if divergent.any():
        raise DomainError(
            f"radial integral of exponent {Q[divergent][0] - 1} diverges at 0; "
            "this synthesis is outside the integrable range"
        )
    Q = np.where(active, Q, 1.0)[:, :, None]
    ball = np.einsum("jkt,jtn->kn", C, np.where(active[:, :, None], r ** Q / Q, 0.0))
    # the radial parts on the sphere S_r^+, one row per term
    phi, dphi, phit, dphit = _radial(coefs[:, :, None], r)
    u2 = phi * phi + phit * phit
    du2 = (dphi * dphi + dphit * dphit).sum(axis=0)
    rb = r ** beta
    return np.vstack([
        ball,
        rb * u2.sum(axis=0),
        rb * (phi * dphi + phit * dphit).sum(axis=0),
        rb * (du2 + (mu[:, None] * u2).sum(axis=0) / r ** 2),
        rb * du2,
        rb * (phi * phit).sum(axis=0),
    ])


# ---------------------------------------------------------------------------
# quadrature path


def _gram(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pair integrals G[..., i, j] = sum_n w[..., n] X[..., i, n] Y[..., j, n]."""
    return (X * w[..., None, :]) @ np.swapaxes(Y, -1, -2)


def _form(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear form x_i M_ij y_j for each column of x and y."""
    return np.sum(x * (M @ y), axis=0)


class _QuadContext:
    """Angular pair integrals per block plus a radial Gauss-Jacobi rule, built once per call."""

    def __init__(self, sol: SeparableSolution, n_radial: int | None = None,
                 n_angular: int | None = None):
        p = sol.params
        self.beta = p.N + p.b
        if self.beta < 1.0 and any(t.mode.mu == 0.0 for t in sol.terms):
            raise DomainError(
                f"the quadrature path cannot resolve the constant mode at N + b = "
                f"{self.beta:.6g} < 1, whose ball integrand is singular at 0; "
                "use method='closed'"
            )
        n = gauss_nodes(max((t.sigma for t in sol.terms), default=0.0))
        self.x, self.wx = gauss_jacobi(n if n_radial is None else n_radial, self.beta)
        grid = AngularGrid1D.gauss(p.N, p.b, n if n_angular is None else n_angular)
        nodes, w = grid.nodes, grid.weights
        self.blocks = []
        for k, terms in sol.blocks().items():
            P = np.array([t.mode.profile(nodes) for t in terms], dtype=float)
            dP = np.array([t.mode.profile.deriv(nodes) for t in terms], dtype=float)
            A = _gram(P, P, w)
            E = _gram(dP, dP, w)
            if p.N >= 2 and k:   # Gauss nodes avoid the pole, where sin(psi) = 0
                E += k * (k + p.N - 2) * _gram(P, P, w / np.sin(nodes) ** 2)
            self.blocks.append((_coefs(terms), A, E))

    def pieces(self, r: np.ndarray) -> np.ndarray:
        """Rows of `_TermPieces` at every radius of `r`, one Gram matrix per block and piece."""
        # the rule at radius r is the base rule scaled by r: one row per radius
        rho = r[:, None] * self.x
        wr = self.wx * r[:, None] ** (self.beta + 1.0)
        wr_inv2 = wr / rho ** 2
        rb = r ** self.beta
        acc = np.zeros((8, r.size))
        for coefs, A, E in self.blocks:
            # radial parts on the nodes, shaped (radius, term, node)
            phi, dphi, phit, dphit = _radial(coefs[:, None, :, None], rho[:, None, :])
            acc[0] += np.sum(A * (_gram(dphi, dphi, wr) + _gram(dphit, dphit, wr))
                             + E * (_gram(phi, phi, wr_inv2) + _gram(phit, phit, wr_inv2)),
                             axis=(1, 2))
            acc[1] += np.sum(A * _gram(phi, phit, wr), axis=(1, 2))
            acc[2] += np.sum(A * _gram(phit, dphi, wr * rho), axis=(1, 2))
            # radial parts on the sphere S_r^+, shaped (term, radius)
            phi, dphi, phit, dphit = _radial(coefs[:, :, None], r)
            acc[3] += rb * (_form(A, phi, phi) + _form(A, phit, phit))
            acc[4] += rb * (_form(A, phi, dphi) + _form(A, phit, dphit))
            acc[5] += rb * (_form(A, dphi, dphi) + _form(A, dphit, dphit)
                            + (_form(E, phi, phi) + _form(E, phit, phit)) / r ** 2)
            acc[6] += rb * (_form(A, dphi, dphi) + _form(A, dphit, dphit))
            acc[7] += rb * _form(A, phi, phit)
        return acc


def _pieces(sol, radii, method, n_radial=None, n_angular=None) -> _TermPieces:
    """The pieces at every radius of a schedule, in one call of either path."""
    r = np.asarray(radii, dtype=float)
    if method not in ("closed", "quadrature"):
        raise DomainError(f"unknown method {method!r}; use 'closed' or 'quadrature'")
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        if method == "closed":
            acc = _closed_pieces(sol, r)
        else:
            acc = _QuadContext(sol, n_radial, n_angular).pieces(r)
    bad = ~np.all(np.isfinite(acc), axis=0)
    if np.any(bad):
        raise DomainError(
            f"frequency pieces are not finite at radius {r[np.argmax(bad)]}; "
            "the radius or the coefficients are out of range"
        )
    return _TermPieces(*acc)


def _DH(pc: _TermPieces, r, beta: float):
    """Scaled energy D and boundary mass H from the pieces."""
    return r ** (1.0 - beta) * (pc.ball_grad + pc.ball_uv), r ** (-beta) * pc.s_u2


def _nu(sol: SeparableSolution, pc: _TermPieces, r: np.ndarray, method: str):
    """The two components (nu1, nu2) of N' from the pieces at the radii r.

    nu1 = 2 r (s_nu s_u2 - s_uu^2) / s_u2^2 is homogeneous of degree 0 in a
    common scale of the radial factors.  The closed path divides them by
    r^{S_min}, S_min the smallest exponent of a live term, and sums the
    bracket by `_bracket`, exact in sign; the quadrature path forms
    s_nu / s_u2 - (s_uu / s_u2)^2.  Neither squares a quantity that can
    underflow while D and H are finite.  The quadrature difference still
    cancels: for a high degree sigma at small r it keeps about 1e-16 sigma^2/r^2
    absolute error and no correct digits (sigma = 40 at r = 0.008), so only
    the closed nu1 is exact there.
    """
    beta = sol.params.N + sol.params.b
    if method == "closed":
        coefs = _coefs(sol.terms)
        s, c1, _, d1 = coefs
        live = (c1 != 0.0) | (d1 != 0.0)
        scaled = coefs.copy()
        scaled[0] -= s[live].min() if live.any() else 0.0
        phi, _, phit, _ = _radial(scaled[:, :, None], r)
        u2 = (phi * phi + phit * phit).sum(axis=0)
        nu1 = 2.0 * r * _bracket(scaled, r) / u2 ** 2
    else:
        ratio = pc.s_uu / pc.s_u2
        nu1 = 2.0 * r * (pc.s_nu / pc.s_u2 - ratio * ratio)
    nu2 = (r * pc.s_uv - 2.0 * pc.ball_v_zgrad - (beta - 1.0) * pc.ball_uv) / pc.s_u2
    return nu1, nu2


# ---------------------------------------------------------------------------
# public operations


def _check_radii(sol: SeparableSolution, radii) -> None:
    """Raise for the first radius outside (0, R], allowing R to roundoff."""
    r = np.asarray(radii, dtype=float)
    outside = ~((r > 0.0) & (r <= sol.R * (1 + 1e-12)))
    if np.any(outside):
        raise DomainError(f"radius {r[np.argmax(outside)]} outside (0, {sol.R}]")


def compute_DH(sol: SeparableSolution, r: float, method: str = "closed",
               n_radial: int | None = None, n_angular: int | None = None) -> tuple[float, float]:
    """Scaled energy D(r) and boundary mass H(r) of the solution pair."""
    if sol.is_zero:
        return 0.0, 0.0
    _check_radii(sol, [r])
    p = sol.params
    pieces = _pieces(sol, [r], method, n_radial, n_angular).at(0)
    D, H = _DH(pieces, r, p.N + p.b)
    return float(D), float(H)


def frequency(sol: SeparableSolution, r: float, method: str = "closed", **kw) -> float:
    """Frequency quotient N(r) = D(r) / H(r)."""
    D, H = compute_DH(sol, r, method, **kw)
    if H <= 0.0:
        raise VanishingDenominatorError(f"H({r}) = {H} is not positive")
    return D / H


@dataclass(frozen=True)
class FrequencyTrace:
    """Sampled (r, D, H, N, nu1, nu2) records along a radius schedule."""

    params: WeightParams
    r: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    provenance: str  # "closed" or "quadrature"

    def __post_init__(self):
        for arr in (self.r, self.D, self.H, self.N, self.nu1, self.nu2):
            arr.flags.writeable = False

    def lower_bound_margin(self) -> float:
        """min over records of N(r) + r^2/(N+b-1); nonnegative in the regime."""
        denom = self.params.N + self.params.b - 1.0
        return float(np.min(self.N + self.r ** 2 / denom))


def radius_schedule(R: float, per_decade: int = 64, decades: float = 3.0,
                    r_max: float | None = None) -> np.ndarray:
    top = r_max if r_max is not None else R / 2.0
    count = int(round(per_decade * decades)) + 1
    return np.geomspace(top, top * 10.0 ** (-decades), count)


def trace(sol: SeparableSolution, radii=None, method: str = "closed",
          n_radial: int | None = None, n_angular: int | None = None) -> FrequencyTrace:
    """Evaluate the frequency records over a (default geometric) schedule.

    For method="quadrature", `n_radial` and `n_angular` override the Gauss
    node counts, which by default follow `gauss_nodes` of the largest
    sigma_plus of the synthesis.
    """
    if radii is None:
        radii = radius_schedule(sol.R)
    radii = np.asarray(radii, dtype=float)
    _check_radii(sol, radii)
    p = sol.params
    beta = p.N + p.b
    pieces = _pieces(sol, radii, method, n_radial, n_angular)
    vanishing = pieces.s_u2 <= 0.0
    if np.any(vanishing):
        raise VanishingDenominatorError(f"H({radii[np.argmax(vanishing)]}) is not positive")
    D, H = _DH(pieces, radii, beta)
    nu1, nu2 = _nu(sol, pieces, radii, method)
    return FrequencyTrace(params=p, r=radii, D=D, H=H, N=D / H, nu1=nu1, nu2=nu2,
                          provenance=method)


def nu_decomposition(sol: SeparableSolution, r: float, method: str = "closed",
                     n_radial: int | None = None, n_angular: int | None = None) -> tuple[float, float]:
    """The two components of N'(r): boundary Cauchy-Schwarz bracket and the rest."""
    if not (0.0 < r < sol.R):
        raise DomainError(f"radius {r} outside (0, {sol.R})")
    pieces = _pieces(sol, [r], method, n_radial, n_angular)
    if pieces.s_u2[0] <= 0.0:
        raise VanishingDenominatorError(f"H({r}) is not positive")
    nu1, nu2 = _nu(sol, pieces, np.array([r]), method)
    return float(nu1[0]), float(nu2[0])


def check_H_derivative(target, method: str = "closed", delta_rel: float = 3e-3,
                       **kw) -> float:
    """Max relative residual of H'(r) = 2 D(r) / r.

    For a solution the derivative is formed by a local five-point central
    difference (so the closed-form path resolves the identity to roundoff);
    for a recorded trace, by nonuniform central differences on its own
    schedule, which converge at second order under schedule refinement.
    """
    if isinstance(target, FrequencyTrace):
        r, H, D = target.r, target.H, target.D
        if r.size < 5:
            raise DomainError("trace needs at least 5 radii")
        dH = np.empty_like(H)
        dH[1:-1] = (H[2:] - H[:-2]) / (r[2:] - r[:-2])
        dH[0] = (H[1] - H[0]) / (r[1] - r[0])
        dH[-1] = (H[-1] - H[-2]) / (r[-1] - r[-2])
        rhs = 2.0 * D / r
        scale = np.maximum(np.abs(rhs), 1e-300)
        return float(np.max(np.abs(dH - rhs)[1:-1] / scale[1:-1]))
    sol = target
    if sol.is_zero:
        return 0.0
    radii = kw.pop("radii", None)
    if radii is None:
        radii = np.geomspace(sol.R / 2, sol.R / 16, 20)
    r = np.asarray(radii, dtype=float)
    d = delta_rel * r
    stencil = r[:, None] + np.arange(-2, 3)[None, :] * d[:, None]
    if not np.all((stencil > 0.0) & (stencil <= sol.R * (1 + 1e-12))):
        raise DomainError(f"stencil radii leave (0, {sol.R}]")
    p = sol.params
    D, H = _DH(_pieces(sol, stencil.ravel(), method, **kw), stencil.ravel(), p.N + p.b)
    D, H = D.reshape(stencil.shape), H.reshape(stencil.shape)
    lhs = (-H[:, 4] + 8 * H[:, 3] - 8 * H[:, 1] + H[:, 0]) / (12.0 * d)
    rhs = 2.0 * D[:, 2] / r
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), initial=0.0))


def check_pohozaev(sol: SeparableSolution, r: float, method: str = "closed",
                   n_radial: int | None = None, n_angular: int | None = None) -> tuple[float, float]:
    """Relative residuals of the two radial-multiplier integral identities."""
    if sol.is_zero:
        return 0.0, 0.0
    _check_radii(sol, [r])
    p = sol.params
    beta = p.N + p.b
    pieces = _pieces(sol, [r], method, n_radial, n_angular).at(0)
    lhs1 = pieces.ball_grad + pieces.ball_uv
    rhs1 = pieces.s_uu
    scale1 = max(abs(lhs1), abs(rhs1), pieces.ball_grad, 1e-300)
    res1 = abs(lhs1 - rhs1) / scale1
    lhs2 = (-(beta - 1.0) / 2.0 * pieces.ball_grad + pieces.ball_v_zgrad
            + 0.5 * r * pieces.s_grad)
    rhs2 = r * pieces.s_nu
    scale2 = max(abs(lhs2), abs(rhs2), 0.5 * r * pieces.s_grad, 1e-300)
    res2 = abs(lhs2 - rhs2) / scale2
    return float(res1), float(res2)


@dataclass(frozen=True)
class MatchedExponent:
    value: float
    kind: str   # "sigma_plus" or "sigma_plus_two"
    gap: float


@dataclass(frozen=True)
class FrequencyLimitResult:
    gamma: float
    matched: MatchedExponent
    h_limit: float
    h_band: tuple[float, float]
    sandwich_min: float


def _extrapolate_geometric(r: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Limit at r -> 0 of values on a geometric schedule, assuming a power tail.

    Returns (limit, fitted correction exponent); falls back to the last value
    when the sequence has already converged to roundoff.
    """
    v = values[-64:]
    rr = r[-64:]
    if np.max(np.abs(v - v[-1])) < 1e-11 * max(1.0, abs(v[-1])):
        return float(v[-1]), math.inf
    d = np.diff(v)
    q = rr[1] / rr[0]
    good = np.abs(d) > 1e-14 * max(1.0, abs(v[-1]))
    ratios = d[1:][good[1:] & good[:-1]] / d[:-1][good[1:] & good[:-1]]
    ratios = ratios[ratios > 0]
    if ratios.size == 0:
        return float(v[-1]), math.inf
    p = float(np.clip(np.median(np.log(ratios) / math.log(q)), 0.05, 40.0))
    A = np.column_stack([np.ones_like(rr), rr ** p])
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[0]), p


def frequency_limit(target, candidates=None, match_tol: float = 1e-4,
                    method: str = "closed", radii=None) -> FrequencyLimitResult:
    """Vanishing order gamma = lim N(r), matched against spectral exponents.

    Also extrapolates the limit of r^{-2 gamma} H(r), requiring it to be
    positive with the last decade inside [0.9, 1.1] of the limit, and reports
    the minimum of H r^{-2 gamma - sigma} for a small sigma > 0 (the lower
    sandwich).  Raises UnmatchedExponentError when gamma is not within
    `match_tol` of any candidate sigma_plus or sigma_plus + 2.
    """
    if isinstance(target, FrequencyTrace):
        tr = target
        if candidates is None:
            raise DomainError("candidates are required when extrapolating a bare trace")
    else:
        sol = target
        if sol.is_zero:
            raise VanishingDenominatorError("frequency of the zero solution is undefined")
        if radii is None:
            radii = radius_schedule(sol.R, per_decade=64, decades=3.0)
        if np.min(radii) > sol.R / 200:
            raise DomainError("schedule must reach radii below R/200")
        tr = trace(sol, radii, method=method)
        if candidates is None:
            candidates = sorted({t.sigma for t in sol.terms})
    gamma, _ = _extrapolate_geometric(tr.r, tr.N)
    pool = [(float(c), "sigma_plus") for c in candidates]
    pool += [(float(c) + 2.0, "sigma_plus_two") for c in candidates]
    kind_value, kind = min(pool, key=lambda cv: abs(gamma - cv[0]))
    gap = abs(gamma - kind_value)
    if not gap <= match_tol:   # a NaN gap matches nothing
        raise UnmatchedExponentError(
            f"gamma = {gamma:.8f} matches no exponent within {match_tol} "
            f"(closest {kind_value:.8f} [{kind}], gap {gap:.2e})"
        )
    h_scaled = tr.H * tr.r ** (-2.0 * kind_value)
    h_limit, _ = _extrapolate_geometric(tr.r, h_scaled)
    last_decade = h_scaled[tr.r <= tr.r[-1] * 10.0]
    band = (float(last_decade.min() / h_limit), float(last_decade.max() / h_limit))
    if not h_limit > 0.0:
        raise UnmatchedExponentError(f"limit of r^-2gamma H is {h_limit}; not positive")
    sandwich = float(np.min(tr.H * tr.r ** (-2.0 * kind_value - 0.1)))
    return FrequencyLimitResult(
        gamma=gamma,
        matched=MatchedExponent(value=kind_value, kind=kind, gap=gap),
        h_limit=h_limit,
        h_band=band,
        sandwich_min=sandwich,
    )
