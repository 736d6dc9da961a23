"""Frequency function machinery: D, H, N, derivative identities and limits.

Every quantity is available through two independent paths.  Both read the
radial parts of the terms from `synthesis`: the solution's (sigma, c1, e, d1)
table `SeparableSolution.coefs` and the power law `_radial_parts`.  Both sum
the pieces over term pairs in one assembly, `_assemble`: the ball integrand
of a pair is a sum of power laws whose radial integrals are taken in closed
form, so neither path runs a radial rule.  They differ in where the angular
pair integrals come from.  The closed path takes them from mode
orthonormality: only the diagonal pairs, with <P_i, P_i> = 1 and the
eigenvalue mu_i; its bracket of nu1 is a Lagrange sum of squares, so
nu1 >= 0 exactly.  The quadrature path reduces the horizontal sphere exactly
(harmonic orthogonality is structural) and integrates every pair of a block
on the angular Gauss rule `AngularGrid1D.gauss(N, b, n)` over the sampled
profiles, n from `gauss_nodes` of the largest degree, so it stays an
independent check of the closed path's orthonormality and of finite-volume
profiles.  The exponents need not be integers: the constant mode at
N + b < 1 is served by both paths.  Both take a whole radius schedule in one
numpy pass.  Derivative identities are checked, never used as shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AngularGrid1D,
    DomainError,
    InputError,
    UnmatchedExponentError,
    VanishingDenominatorError,
    WeightParams,
    _count,
    _finite,
    _number,
    _radius,
)
from .synthesis import SeparableSolution, gauss_nodes, _radial_parts


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


# ---------------------------------------------------------------------------
# the frequency pieces


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
    quad = np.stack([C0[i] * C0[j] * gap,
                     C0[i] * C2[j] * (gap + 2.0) + C2[i] * C0[j] * (gap - 2.0),
                     C2[i] * C2[j] * gap])
    r2 = r * r
    rs = r ** S[:, None]
    det = (quad.T @ np.stack([np.ones_like(r), r2, r2 * r2])) * (rs[i] * rs[j])
    return np.einsum("pn,pn->n", det, det) / r2


def _assemble(coefs: np.ndarray, pairs, r: np.ndarray, beta: float) -> np.ndarray:
    """Rows of `_TermPieces` summed over term pairs, in one numpy pass over them.

    `pairs` is (i, j, a, m): the terms of each pair (index arrays, or
    slice(None) twice for the diagonal i = j) and the arrays of the pairs'
    angular integrals a = <P_i, P_j> and
    m = <P_i', P_j'> + k (k + N - 2) <P_i, P_j / sin^2 psi>.
    The ball integrands of a pair are power laws, so each ball piece is a sum
    of C[n, piece, pair] r^q / q over the exponents q = s_i + s_j + N + b - 1
    + 2n, n = 0, 1, 2; the sphere pieces pair the radial parts at r alike.
    """
    i, j, a, m = pairs
    s, c1, e, d1 = coefs
    si, sj, ci, cj, ei, ej, di, dj = s[i], s[j], c1[i], c1[j], e[i], e[j], d1[i], d1[j]
    ti, tj, cej, ecj = si + 2.0, sj + 2.0, ci * ej, ei * cj
    # the pieces are ball_grad, ball_uv and ball_v_zgrad
    zero = np.zeros_like(si)
    C = np.array([
        [(ci * cj + di * dj) * (a * si * sj + m), zero, zero],
        [a * (cej * si * tj + ecj * ti * sj) + m * (cej + ecj), a * ci * dj, a * di * cj * sj],
        [ei * ej * (a * ti * tj + m), a * ei * dj, a * di * ej * tj],
    ])
    Q = si + sj + beta + np.array([[-1.0], [1.0], [3.0]])
    active = (C != 0.0).any(axis=1)
    divergent = active & (Q <= 0.0)
    if divergent.any():
        raise DomainError(
            f"radial integral of exponent {Q[divergent][0] - 1} diverges at 0; "
            "this synthesis is outside the integrable range"
        )
    Q = np.where(active, Q, 1.0)[:, :, None]
    ball = np.einsum("jkt,jtn->kn", C, np.where(active[:, :, None], r ** Q / Q, 0.0))
    # the radial parts on the sphere S_r^+, one row per term, paired as the ball
    phi, dphi, phit, dphit = _radial_parts(coefs[:, :, None], r)
    u2 = phi[i] * phi[j] + phit[i] * phit[j]
    du2 = a @ (dphi[i] * dphi[j] + dphit[i] * dphit[j])
    rb = r ** beta
    return np.vstack([
        ball,
        rb * (a @ u2),
        rb * (a @ (phi[i] * dphi[j] + phit[i] * dphit[j])),
        rb * (du2 + (m @ u2) / r ** 2),
        rb * du2,
        rb * (a @ (phi[i] * phit[j])),
    ])


def _angular_pairs(sol: SeparableSolution):
    """Every same-block term pair (i, j) with its angular integrals a and m.

    They come from the angular Gauss rule over the profiles' kept samples,
    `AngularGrid1D.gauss(N, b, n)` with n from `gauss_nodes` of the largest
    degree, so they check the orthonormality the closed path assumes.  Pairs
    of different blocks are left out: horizontal-harmonic orthogonality is
    structural, while the integrals within a block stay numerical.
    """
    p = sol.params
    n = gauss_nodes(max((t.sigma for t in sol.terms), default=0.0))
    grid = AngularGrid1D.gauss(p.N, p.b, n)
    nodes, w = grid.nodes, grid.weights
    samples = [t.mode.profile._on_gauss(p.N, p.b, n) for t in sol.terms]
    P = np.array([s[0] for s in samples]).reshape(-1, nodes.size)
    dP = np.array([s[1] for s in samples]).reshape(P.shape)
    keys = np.array([t.mode.k for t in sol.terms], dtype=int)
    A = (P * w) @ P.T
    M = (dP * w) @ dP.T
    if np.any(keys):   # k > 0 needs N >= 2; Gauss nodes avoid the pole, where sin(psi) = 0
        M += (keys * (keys + p.N - 2))[:, None] * ((P * (w / np.sin(nodes) ** 2)) @ P.T)
    i, j = np.nonzero(keys[:, None] == keys[None, :])
    return i, j, A[i, j], M[i, j]


def _pieces(sol: SeparableSolution, radii, method: str) -> _TermPieces:
    """The pieces at every radius of a schedule, in one call of either path.

    The radii are gated by the caller (`core._radius`, at most R); this
    raises for an unknown method, for pieces that are not finite and for the
    first radius where H is not positive.
    """
    r = np.asarray(radii, dtype=float)
    if method not in ("closed", "quadrature"):
        raise DomainError(f"unknown method {method!r}; use 'closed' or 'quadrature'")
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        if method == "closed":   # orthonormal modes: the diagonal, a = 1 and m = mu
            mu = np.array([t.mode.mu for t in sol.terms], dtype=float)
            pairs = (slice(None), slice(None), np.ones_like(mu), mu)
        else:
            pairs = _angular_pairs(sol)
        acc = _assemble(sol.coefs, pairs, r, sol.params.N + sol.params.b)
    bad = ~np.all(np.isfinite(acc), axis=0)
    if np.any(bad):
        raise DomainError(
            f"frequency pieces are not finite at radius {r[np.argmax(bad)]}; "
            "the radius or the coefficients are out of range"
        )
    pieces = _TermPieces(*acc)
    vanishing = pieces.s_u2 <= 0.0
    if np.any(vanishing):
        raise VanishingDenominatorError(f"H({r[np.argmax(vanishing)]}) is not positive")
    return pieces


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
        s, c1, _, d1 = sol.coefs
        live = (c1 != 0.0) | (d1 != 0.0)
        scaled = sol.coefs.copy()
        scaled[0] -= s[live].min() if live.any() else 0.0
        phi, _, phit, _ = _radial_parts(scaled[:, :, None], r)
        u2 = (phi * phi + phit * phit).sum(axis=0)
        nu1 = 2.0 * r * _bracket(scaled, r) / u2 ** 2
    else:
        ratio = pc.s_uu / pc.s_u2
        nu1 = 2.0 * r * (pc.s_nu / pc.s_u2 - ratio * ratio)
    nu2 = (r * pc.s_uv - 2.0 * pc.ball_v_zgrad - (beta - 1.0) * pc.ball_uv) / pc.s_u2
    return nu1, nu2


# ---------------------------------------------------------------------------
# public operations


def compute_DH(sol: SeparableSolution, r: float, method: str = "closed") -> tuple[float, float]:
    """Scaled energy D(r) and boundary mass H(r) of the solution pair."""
    p, r = sol.params, _radius(r, at_most=sol.R)
    D, H = _DH(_pieces(sol, [r], method), r, p.N + p.b)
    return float(D[0]), float(H[0])


def frequency(sol: SeparableSolution, r: float, method: str = "closed") -> float:
    """Frequency quotient N(r) = D(r) / H(r)."""
    p, r = sol.params, _radius(r, at_most=sol.R)
    D, H = _DH(_pieces(sol, [r], method), r, p.N + p.b)
    return float(D[0]) / float(H[0])


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
        """min over records of N(r) + r^2/(N+b-1); nonnegative in the regime.

        The margin needs N + b > 1: at N + b = 1 the term r^2/(N+b-1) is
        infinite, and below it changes sign and the bound fails.
        """
        beta = self.params.N + self.params.b
        if not beta > 1.0:
            raise DomainError(f"the lower-bound margin needs N + b > 1, got {beta:.6g}")
        return float(np.min(self.N + self.r ** 2 / (beta - 1.0)))


# Most radii `radius_schedule` lays out: 8 MB of them.  Ten to the ninth per
# decade asked numpy for 22.4 GiB and raised a raw MemoryError.
_MAX_RADII = 10 ** 6


def radius_schedule(R: float, per_decade: int = 64, decades: float = 3.0,
                    r_max: float | None = None) -> np.ndarray:
    top = _radius(_radius(R, "R") / 2.0 if r_max is None else r_max, "top radius")
    per_decade, decades = _count(per_decade, "per_decade"), _number(decades, "decades", 0.0)
    try:   # a product past the float range has no point count
        count = int(round(per_decade * decades)) + 1
    except OverflowError:
        raise DomainError("per_decade * decades must be a finite number of radii") from None
    count = _count(count, "radius count per_decade * decades + 1", 1, _MAX_RADII)
    return np.geomspace(top, _radius(top * 10.0 ** (-decades), "bottom radius"), count)


def trace(sol: SeparableSolution, radii=None, method: str = "closed") -> FrequencyTrace:
    """Evaluate the frequency records over a (default geometric) schedule.

    The quadrature path's angular Gauss node count follows `gauss_nodes` of
    the largest sigma_plus of the synthesis.
    """
    radii = radius_schedule(sol.R) if radii is None else _radius(
        _finite(radii, "radii", shape=(None,), nonfinite=False), at_most=sol.R, array=True)
    pieces = _pieces(sol, radii, method)
    D, H = _DH(pieces, radii, sol.params.N + sol.params.b)
    nu1, nu2 = _nu(sol, pieces, radii, method)
    return FrequencyTrace(params=sol.params, r=radii, D=D, H=H, N=D / H, nu1=nu1, nu2=nu2,
                          provenance=method)


def nu_decomposition(sol: SeparableSolution, r: float,
                     method: str = "closed") -> tuple[float, float]:
    """The two components of N'(r): boundary Cauchy-Schwarz bracket and the rest."""
    radii = np.array([_radius(r, at_most=sol.R)])
    nu1, nu2 = _nu(sol, _pieces(sol, radii, method), radii, method)
    return float(nu1[0]), float(nu2[0])


H_STEP_REL = 3e-3   # step of check_H_derivative's five-point stencil, relative to r


def check_H_derivative(target, method: str = "closed") -> float:
    """Max relative residual of H'(r) = 2 D(r) / r.

    For a solution the derivative is formed by a local five-point central
    difference (so the closed-form path resolves the identity to roundoff);
    for a recorded trace, by nonuniform central differences on its own
    schedule, which converge at second order under schedule refinement.
    A solution is checked at 20 radii from R/2 down to R/16.
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
    r = np.geomspace(sol.R / 2, sol.R / 16, 20)
    d = H_STEP_REL * r
    stencil = r[:, None] + np.arange(-2, 3)[None, :] * d[:, None]
    p = sol.params
    D, H = _DH(_pieces(sol, stencil.ravel(), method), stencil.ravel(), p.N + p.b)
    D, H = D.reshape(stencil.shape), H.reshape(stencil.shape)
    lhs = (-H[:, 4] + 8 * H[:, 3] - 8 * H[:, 1] + H[:, 0]) / (12.0 * d)
    rhs = 2.0 * D[:, 2] / r
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), initial=0.0))


def check_pohozaev(sol: SeparableSolution, r: float,
                   method: str = "closed") -> tuple[float, float]:
    """Relative residuals of the two radial-multiplier integral identities."""
    p, r = sol.params, _radius(r, at_most=sol.R)
    beta = p.N + p.b
    pc = _pieces(sol, [r], method)
    lhs1 = pc.ball_grad + pc.ball_uv
    rhs1 = pc.s_uu
    scale1 = np.max([np.abs(lhs1), np.abs(rhs1), pc.ball_grad, [1e-300]], axis=0)
    res1 = np.abs(lhs1 - rhs1) / scale1
    lhs2 = -(beta - 1.0) / 2.0 * pc.ball_grad + pc.ball_v_zgrad + 0.5 * r * pc.s_grad
    rhs2 = r * pc.s_nu
    scale2 = np.max([np.abs(lhs2), np.abs(rhs2), 0.5 * r * pc.s_grad, [1e-300]], axis=0)
    res2 = np.abs(lhs2 - rhs2) / scale2
    return float(res1[0]), float(res2[0])


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
    fit_residual: float


MATCH_TOL = 1e-4            # |gamma - matched exponent| accepted as a match
EXPONENT_MERGE_TOL = 1e-6   # exponents of D and H closer than this share a column
FIT_RESIDUAL_BOUND = 1e-5   # worst fit residual, relative to the largest value fitted


def _fit_exponents(sol: SeparableSolution) -> np.ndarray:
    """The powers of r in D and H, ascending: 2 sigma + {0, 2, 4} of each live term.

    A power within EXPONENT_MERGE_TOL of the last one kept is merged into it."""
    sigma = np.array([t.sigma for t in sol.terms if t.c1 != 0.0 or t.d1 != 0.0])
    kept = []
    for a in np.unique(2.0 * sigma[:, None] + np.array([0.0, 2.0, 4.0])):
        if not kept or a - kept[-1] > EXPONENT_MERGE_TOL:
            kept.append(a)
    return np.array(kept)


def frequency_limit(sol: SeparableSolution, candidates=None,
                    frequency_trace: FrequencyTrace | None = None) -> FrequencyLimitResult:
    """Vanishing order gamma = lim N(r), read off an exact-exponent fit.

    D and H of a finite synthesis are sums of the powers r^{a_k} of
    `_fit_exponents` (cross terms vanish by orthonormality).  One lstsq fits
    r^{-a_0} (D, H) with columns (r / r_max)^{a_k - a_0}: gamma = d_0 / h_0
    and h_limit = h_0.  The residual certifies the fit: roundoff for a
    complete basis, under delta ln(r_max / r_min) < 7e-6 for powers delta
    apart merged (near-equal columns leave the fit near rank-deficient),
    O(1) for a missing term.
    UnmatchedExponentError is raised for a residual above FIT_RESIDUAL_BOUND,
    for h_0 <= 0, and for a gamma farther than MATCH_TOL from every candidate
    sigma_plus and sigma_plus + 2 (default: the terms' sigma).  `h_band`
    spans r^{-2 gamma} H / h_0 over the last decade.

    The fit reads r, D and H of `frequency_trace`, a closed or quadrature
    trace of `sol` whose schedule reaches below R/200; by default it forms
    D and H of the closed path on `radius_schedule(sol.R)`, with no nu.
    """
    if candidates is not None:
        candidates = _finite(candidates, "candidates", shape=(None,))
        if candidates.size == 0:
            raise InputError("candidates must be a non-empty list of finite exponents")
    if frequency_trace is None:
        r = radius_schedule(sol.R)
        D, H = _DH(_pieces(sol, r, "closed"), r, sol.params.N + sol.params.b)
    elif getattr(frequency_trace, "params", None) != sol.params:
        raise InputError(f"the trace is of {getattr(frequency_trace, 'params', frequency_trace)}, "
                         f"not of the solution's {sol.params}")
    else:
        r, D, H = frequency_trace.r, frequency_trace.D, frequency_trace.H
    if np.min(r) > sol.R / 200:
        raise DomainError("schedule must reach radii below R/200")
    if candidates is None:
        candidates = sorted({t.sigma for t in sol.terms})
    a = _fit_exponents(sol)
    A = (r[:, None] / np.max(r)) ** (a - a[0])
    Y = np.column_stack([D, H]) * r[:, None] ** -a[0]
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    residual = float(np.max(np.abs(A @ coef - Y)) / np.max(np.abs(Y)))
    if not residual <= FIT_RESIDUAL_BOUND:   # a NaN residual certifies nothing
        raise UnmatchedExponentError(f"D and H do not fit the powers of the synthesis: "
                                     f"residual {residual:.2e} above {FIT_RESIDUAL_BOUND}")
    d0, h_limit = (float(c) for c in coef[0])
    if not h_limit > 0.0:
        raise UnmatchedExponentError(f"limit of r^-2gamma H is {h_limit}; not positive")
    gamma = d0 / h_limit
    pool = [(float(c), "sigma_plus") for c in candidates]
    pool += [(float(c) + 2.0, "sigma_plus_two") for c in candidates]
    kind_value, kind = min(pool, key=lambda cv: abs(gamma - cv[0]))
    gap = abs(gamma - kind_value)
    if not gap <= MATCH_TOL:   # a NaN gap matches nothing
        raise UnmatchedExponentError(f"gamma = {gamma:.8f} matches no exponent within {MATCH_TOL} "
                                     f"(closest {kind_value:.8f} [{kind}], gap {gap:.2e})")
    h_scaled = H * r ** (-2.0 * kind_value)
    last_decade = h_scaled[r <= r.min() * 10.0]
    return FrequencyLimitResult(
        gamma=gamma,
        matched=MatchedExponent(value=kind_value, kind=kind, gap=gap),
        h_limit=h_limit,
        h_band=(float(last_decade.min() / h_limit), float(last_decade.max() / h_limit)),
        fit_residual=residual,
    )
