"""Frequency function machinery: D, H, N, derivative identities and limits.

Every quantity is available through two independent paths.  Both read the
radial parts of the terms from the solution's (sigma, c1, e, d1) table
`SeparableSolution.coefs`, and both sum the pieces over term pairs: every
piece of a pair is r^{s_i} r^{s_j} times a quadratic in r^2, so the ball
integrals are power laws taken in closed form and neither path runs a
radial rule.  The radius-independent part of that sum is a plan, `_Plan`
(the pair list and each piece's coefficients, the ball's divided by their
exponents), which the solution keeps from the first evaluation of a path
on (`SeparableSolution._table`); an evaluation then forms r^sigma once per
term and every piece from it, over a whole radius schedule in one numpy
pass.  The paths differ in where the angular pair integrals come from.  The
closed path takes them from mode orthonormality: only the diagonal pairs,
with <P_i, P_i> = 1 and the eigenvalue mu_i; its bracket of nu1 is a
Lagrange sum of squares, whose pair table `_Bracket` is kept alike, so
nu1 >= 0 exactly.  The quadrature path reduces the horizontal sphere
exactly (harmonic orthogonality is structural) and integrates every pair of
a block on the angular Gauss rule `AngularGrid1D.gauss(N, b, n)` over the
sampled profiles, n from `gauss_nodes` of the largest degree, so it stays
an independent check of the closed path's orthonormality and of
finite-volume profiles.  The exponents need not be integers: the constant
mode at N + b < 1 is served by both paths.  Derivative identities are
checked, never used as shortcuts.
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
    _instance,
    _number,
    _radius,
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


# ---------------------------------------------------------------------------
# the frequency pieces

# The pieces as sums over products of the radial parts (phi, phi~, r phi', r phi~')
# of a pair's terms: left part x right part of `_LEFT` and `_RIGHT`, summed against
# a = <P_i, P_j> by `_BY_A` and against m = <P_i', P_j'> + k (k + N - 2) <P_i, P_j / sin^2 psi>
# by `_BY_M`, one row per piece of `_TermPieces`.
_LEFT, _RIGHT = [0, 1, 0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 2, 3, 1, 2]
_BY_A = np.array([
    [0, 0, 0, 0, 1, 1, 0, 0],   # ball_grad: r phi' r phi' + r phi~' r phi~'
    [0, 0, 0, 0, 0, 0, 1, 0],   # ball_uv: phi phi~
    [0, 0, 0, 0, 0, 0, 0, 1],   # ball_v_zgrad: phi~ r phi'
    [1, 1, 0, 0, 0, 0, 0, 0],   # s_u2: phi phi + phi~ phi~
    [0, 0, 1, 1, 0, 0, 0, 0],   # s_uu: phi r phi' + phi~ r phi~'
    [0, 0, 0, 0, 1, 1, 0, 0],   # s_grad
    [0, 0, 0, 0, 1, 1, 0, 0],   # s_nu
    [0, 0, 0, 0, 0, 0, 1, 0],   # s_uv
], dtype=float)
_BY_M = np.zeros((8, 8))
_BY_M[[0, 5], :2] = 1.0         # the angular gradients of ball_grad and s_grad


@dataclass(frozen=True)
class _Plan:
    """Radius-independent tables of one path on one synthesis, kept by the solution.

    Every piece is a sum over term pairs (i, j) of r^{s_i} r^{s_j} times a
    quadratic in r^2, times a power of r common to the piece: r^{beta - 1}
    for the ball pieces, r^beta {1, 1/r, 1/r^2, 1/r^2, 1} for the sphere
    pieces.  `weights[n, piece, pair]` is the coefficient of r^{2n}.  The
    radial parts of a term are r^sigma times (c1 + e r^2, d1) and, for
    r phi' and r phi~', (c1 s + e (s + 2) r^2, d1 s), so the sphere weights
    are pair products of these against a and m (`_BY_A`, `_BY_M`).  The ball
    integrands are the sphere's integrands at rho times rho^beta, and their
    radial integrals are C r^q / q over the exponents
    q = s_i + s_j + beta - 1 + 2n, n = 0, 1, 2: the ball weights are C / q.
    Pairs whose weights all vanish are left out, so an inactive piece adds
    exactly 0.
    """

    sigma: np.ndarray     # (T, 1) exponents of the terms
    i: np.ndarray         # (P,) terms of each pair
    j: np.ndarray
    weights: np.ndarray   # (3 * 8, P)


def _make_plan(sol: SeparableSolution, method: str) -> _Plan:
    """The plan of a path: the diagonal pairs (a = 1, m = mu) for the closed path,
    `_angular_pairs` for the quadrature path.  A divergent ball integral raises."""
    s, c1, e, d1 = sol.coefs
    if method == "closed":   # orthonormal modes
        i = j = np.arange(s.size)
        a, m = np.ones(s.size), np.array([t.mode.mu for t in sol.terms], dtype=float)
    else:
        i, j, a, m = _angular_pairs(sol)
    parts = np.zeros((4, 2, s.size))   # coefficients of r^sigma and r^{sigma+2}
    parts[0], parts[1, 0], parts[2], parts[3, 0] = (c1, e), d1, (c1 * s, e * (s + 2.0)), d1 * s
    left, right = parts[_LEFT][:, :, i], parts[_RIGHT][:, :, j]
    products = np.stack([left[:, 0] * right[:, 0],
                         left[:, 0] * right[:, 1] + left[:, 1] * right[:, 0],
                         left[:, 1] * right[:, 1]])
    W = a * (_BY_A @ products) + m * (_BY_M @ products)   # [n, piece, pair]
    # ball_uv and ball_v_zgrad integrate phi phi~ and phi~ r phi' against rho^{beta + 1},
    # r^2 above the gradients' rho^{beta - 1}: one power of r^2 up (their r^4 term is 0)
    W[:, 1:3] = W[[2, 0, 1], 1:3]
    Q = s[i] + s[j] + sol.params.N + sol.params.b + np.array([[-1.0], [1.0], [3.0]])
    active = (W[:, :3] != 0.0).any(axis=1)
    divergent = active & (Q <= 0.0)
    if divergent.any():
        raise DomainError(
            f"radial integral of exponent {Q[divergent][0] - 1} diverges at 0; "
            "this synthesis is outside the integrable range"
        )
    W[:, :3] /= np.where(active, Q, 1.0)[:, None, :]
    keep = (W != 0.0).any(axis=(0, 1))
    plan = _Plan(sigma=s[:, None], i=i[keep], j=j[keep], weights=W[:, :, keep].reshape(24, -1))
    for arr in vars(plan).values():
        arr.flags.writeable = False
    return plan


def _evaluate(plan: _Plan, r: np.ndarray, beta: float) -> np.ndarray:
    """Rows of `_TermPieces` at the radii r, from r^sigma of each term."""
    rs = r ** plan.sigma
    Y = (plan.weights @ (rs[plan.i] * rs[plan.j])).reshape(3, 8, r.size)
    r2 = r * r
    rb = r ** beta
    rb1 = rb / r
    rb2 = rb1 / r
    return (Y[0] + r2 * (Y[1] + r2 * Y[2])) * np.array([rb1, rb1, rb1, rb, rb1, rb2, rb2, rb])


@dataclass(frozen=True)
class _Bracket:
    """Radius-independent tables of `_bracket`, kept by the solution.

    Entry k of a = (phi_i, phi~_i) is r^{S_k} (C0_k + C2_k r^2), with
    S_k = `shift` + sigma of term `term[k]`; phi~_i = 0 is left out.  Pair
    (i, j), i < j, of entries has the determinant a_i b_j - a_j b_i =
    r^{S_i + S_j - 1} times `quad` . (1, r^2, r^4).
    """

    shift: np.ndarray   # (T, 1) exponents, less the smallest of a live term
    term: np.ndarray
    C0: np.ndarray      # (K, 1)
    C2: np.ndarray
    i: np.ndarray
    j: np.ndarray
    quad: np.ndarray    # (pairs, 3)


def _make_bracket(sol: SeparableSolution) -> _Bracket:
    """The bracket's tables; S_min is the smallest exponent of a live term."""
    s, c1, e, d1 = sol.coefs
    live = (c1 != 0.0) | (d1 != 0.0)
    S = s - (s[live].min() if live.any() else 0.0)
    term = np.concatenate([np.arange(s.size), np.flatnonzero(d1 != 0.0)])
    C0 = np.concatenate([c1, d1[d1 != 0.0]])
    C2 = np.concatenate([e, np.zeros(term.size - s.size)])
    i, j = np.triu_indices(term.size, 1)
    gap = S[term[j]] - S[term[i]]
    quad = np.column_stack([C0[i] * C0[j] * gap,
                            C0[i] * C2[j] * (gap + 2.0) + C2[i] * C0[j] * (gap - 2.0),
                            C2[i] * C2[j] * gap])
    table = _Bracket(shift=S[:, None], term=term, C0=C0[:, None], C2=C2[:, None], i=i, j=j,
                     quad=quad)
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def _bracket(sol: SeparableSolution, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|a|^2 |b|^2 - (a.b)^2 for a = (phi_i, phi~_i), b = a', summed over pairs, and |a|^2,
    both with the radial factors divided by r^{S_min}.

    Lagrange's identity makes it sum_{i<j} (a_i b_j - a_j b_i)^2.  Every
    entry is C0 r^S + C2 r^{S+2}, so each determinant is r^{S_i+S_j-1} times
    a quadratic in r^2 whose coefficients carry the exponent gaps: equal
    powers cancel exactly, before any rounding.
    """
    bt = sol._table("bracket", _make_bracket)
    r2 = r * r
    rs = (r ** bt.shift)[bt.term]
    det = (bt.quad @ np.stack([np.ones_like(r), r2, r2 * r2])) * (rs[bt.i] * rs[bt.j])
    a = rs * (bt.C0 + bt.C2 * r2)
    return np.einsum("pn,pn->n", det, det) / r2, np.einsum("kn,kn->n", a, a)


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
        plan = sol._table(method, lambda sol: _make_plan(sol, method))
        acc = _evaluate(plan, r, sol.params.N + sol.params.b)
    finite = np.isfinite(acc).all(axis=0)
    if not finite.all():
        raise DomainError(
            f"frequency pieces are not finite at radius {r[np.argmin(finite)]}; "
            "the radius or the coefficients are out of range"
        )
    pieces = _TermPieces(*acc)
    if not (pieces.s_u2 > 0.0).all():
        raise VanishingDenominatorError(f"H({r[np.argmin(pieces.s_u2 > 0.0)]}) is not positive")
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
        bracket, u2 = _bracket(sol, r)
        nu1 = 2.0 * r * bracket / u2 ** 2
    else:
        ratio = pc.s_uu / pc.s_u2
        nu1 = 2.0 * r * (pc.s_nu / pc.s_u2 - ratio * ratio)
    nu2 = (r * pc.s_uv - 2.0 * pc.ball_v_zgrad - (beta - 1.0) * pc.ball_uv) / pc.s_u2
    return nu1, nu2


# ---------------------------------------------------------------------------
# public operations


def compute_DH(sol: SeparableSolution, r: float, method: str = "closed") -> tuple[float, float]:
    """Scaled energy D(r) and boundary mass H(r) of the solution pair."""
    sol = _instance(sol, SeparableSolution, "solution")
    p, r = sol.params, _radius(r, at_most=sol.R)
    D, H = _DH(_pieces(sol, [r], method), r, p.N + p.b)
    return float(D[0]), float(H[0])


def frequency(sol: SeparableSolution, r: float, method: str = "closed") -> float:
    """Frequency quotient N(r) = D(r) / H(r)."""
    sol = _instance(sol, SeparableSolution, "solution")
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
    sol = _instance(sol, SeparableSolution, "solution")
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
    sol = _instance(sol, SeparableSolution, "solution")
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
    target = _instance(target, (SeparableSolution, FrequencyTrace), "target")
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
    sol = _instance(sol, SeparableSolution, "solution")
    p, r = sol.params, _radius(r, at_most=sol.R)
    beta = p.N + p.b
    pc = _pieces(sol, [r], method)
    grad, uv, v_zgrad, uu, s_grad, s_nu = (float(getattr(pc, name)[0]) for name in (
        "ball_grad", "ball_uv", "ball_v_zgrad", "s_uu", "s_grad", "s_nu"))
    lhs1 = grad + uv
    res1 = abs(lhs1 - uu) / max(abs(lhs1), abs(uu), grad, 1e-300)
    lhs2 = -(beta - 1.0) / 2.0 * grad + v_zgrad + 0.5 * r * s_grad
    rhs2 = r * s_nu
    res2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 0.5 * r * s_grad, 1e-300)
    return res1, res2


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
    for a in np.unique(2.0 * sigma[:, None] + np.array([0.0, 2.0, 4.0])).tolist():
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
    sol = _instance(sol, SeparableSolution, "solution")
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
