"""The checks of every workload against `reference`, and the worst error for `digits`.

Imported by the worker only after the timed list and the peak resident set
are read, so the references' own imports cost neither set-up time nor memory
in the figures.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from runners import FC_STENCIL, test_family


class Checks:
    """Accumulates check failures and the worst relative error (for `digits`)."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst = 0.0
        self.worst_what = ""

    def err(self, what: str, value: float, tol: float) -> None:
        """Record a relative error; it must not exceed tol.  NaN counts as inf."""
        value = value if math.isfinite(value) else math.inf
        if not value <= tol:
            self.failures.append(f"{what}: error {value:.3e} above {tol:.1e}")
        if not value <= self.worst:
            self.worst, self.worst_what = value, what

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _matched_ok(value: float, branch: str, gamma: float) -> bool:
    """The matched exponent is gamma, on either branch: when gamma = sigma' + 2 for
    another exponent sigma' of the spectrum, both readings are exact."""
    if abs(value - gamma) > 1e-5 * max(gamma, 1):
        return False
    return branch == "sigma_plus" or (branch == "sigma_plus_two" and gamma >= 2)


def _check_margin(ck: Checks, which: str, params, field, margin: float, where: str,
                  scale: float | None = None) -> None:
    """A Hardy or Hardy-Rellich margin must be >= -1e-12 of its scale.

    The boundary Hardy inequality needs N + b > 1; for N = 1, s >= 3/2 the
    surface weight (N+b-1)/(2r) is not positive and the margin has no sign.
    """
    s, N = params.s, params.N
    if which == "hardy" and N + ref.weight_b(s) <= 1.0:
        ck.require(f"{which} margin finite {where}", math.isfinite(margin))
        return
    if scale is None:
        scale = (ref.hardy_scale(field, s, N, 1.0) if which == "hardy"
                 else ref.rellich_scale(field, params, s, N, 1.0))
    ck.require(f"{which} margin {margin:.3e} below -1e-12 of scale {scale:.3e} {where}",
               margin >= -1e-12 * scale)


# ---------------------------------------------------------------------------
# cli_session


def check_cli(plan, op, res, ck: Checks) -> None:
    kind = op["kind"]
    if op.get("malformed"):
        return
    out = res["out"]
    if kind == "extend":
        return _check_extend(op, out, ck)
    if kind == "almgren":
        return _check_almgren(op, out, ck)
    payload = json.loads(out, parse_constant=_reject_constant)
    if kind == "hemisphere":
        _check_hemisphere(op, payload, ck)
    elif kind == "cylinder":
        _check_cylinder(op, payload, ck)
    elif kind == "profile":
        _check_profile(op, payload, ck)
    elif kind == "synthesize":
        _check_synthesize(op, payload, ck)
    elif kind == "fit":
        _check_fit(op, payload, ck)
    else:
        _check_cli_inequalities(op, payload, ck)


def _check_hemisphere(op, payload, ck: Checks) -> None:
    N, b = op["N"], ref.weight_b(op["s"])
    modes = payload["modes"]
    ck.require("hemisphere: mode count", len(modes) == op["count"])
    groups: dict[int, dict] = {}           # sigma -> {"k": sectors listed, "M": {ell: M}}
    for m in modes:
        sigma = ref.nearest_sigma(m["mu"], N, b)
        mu = ref.exact_mu(sigma, N, b)
        ck.err(f"hemisphere mu (sigma={sigma}, N={N}, s={op['s']})",
               ref.rel_err(m["mu"], mu, max(mu, 1.0)), 1e-5)
        sp = ref.exact_sigma_plus(sigma, N, b)
        ck.err("hemisphere sigma_plus", ref.rel_err(m["sigma_plus"], sp, max(sp, 1.0)), 1e-5)
        ck.require(f"hemisphere multiplicity {m['multiplicity']} above the closed form "
                   f"for sigma={sigma}, N={N}", m["multiplicity"] <= ref.true_multiplicity(N, sigma))
        g = groups.setdefault(sigma, {"k": set(), "M": {}})
        g["k"].add(m["k"])
        g["M"][m["l"]] = m["multiplicity"]
    # Where every sector of a sigma is listed, its multiplicity summed over the
    # distinct ell it is listed under is the closed form.  The sum, not each
    # entry, is checked: a sigma may be split over several ell when its
    # per-sector eigenvalues miss the merge tolerance (see CHANGES.md).
    for sigma, g in groups.items():
        if N == 1 or g["k"] >= set(range(sigma % 2, sigma + 1, 2)):
            total = sum(g["M"].values())
            ck.require(f"hemisphere multiplicity {total} summed over ell {sorted(g['M'])} for "
                       f"sigma={sigma}, N={N}, s={op['s']}",
                       total == ref.true_multiplicity(N, sigma))


def _check_cylinder(op, payload, ck: Checks) -> None:
    from scipy.special import jv
    R, alpha = op["R"], op["s"] - 1.0
    lams = [m["lambda"] for m in payload["modes"]]
    ck.require("cylinder: mode count", len(lams) == op["count"])
    ck.require("cylinder: sorted", lams == sorted(lams))
    for m in payload["modes"]:
        z = m["bessel_zero"]
        ck.require("cylinder: J_{-alpha} vanishes at the zero", abs(jv(-alpha, z)) < 1e-9)
        ck.err("cylinder lambda", ref.rel_err(m["lambda"], m["mu_n"] + (z / (2 * R)) ** 2), 1e-12)
        if op["N"] == 1:
            ck.err("cylinder mu_n", ref.rel_err(m["mu_n"], (m["n"] * math.pi / (4 * R)) ** 2), 1e-12)


def _check_profile(op, payload, ck: Checks) -> None:
    s = op["s"]
    ck.err(f"profile J vs C_b (s={s})", ref.rel_err(payload["J"], ref.extension_constant(s)), 1e-4)
    t = np.array([p["t"] for p in payload["phi_samples"]])
    phi = np.array([p["phi"] for p in payload["phi_samples"]])
    ck.err(f"profile phi vs c t^s K_s(t) (s={s})",
           float(np.max(np.abs(phi - ref.profile_phi(s, t)))), 1e-4)


def _read_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _check_extend(op, out: str, ck: Checks) -> None:
    with open(op["input"]) as fh:
        _, data_in = _read_csv(fh.read())
    dim = op["dim"]
    n = int(round(len(data_in) ** (1.0 / dim)))
    u = data_in[:, -1].reshape((n,) * dim)
    header, data = _read_csv(out)
    ck.require("extend: header", header == [f"x{i + 1}" for i in range(dim)] + ["t", "value"])
    scale = float(np.max(np.abs(u)))
    xi = np.sqrt(sum(m ** 2 for m in np.meshgrid(*([np.fft.fftfreq(n, d=1.0 / n)] * dim),
                                                  indexing="ij")))
    u_hat = np.fft.fftn(u)
    idx = tuple(np.rint(data[:, i] * n / (2 * math.pi)).astype(int) for i in range(dim))
    for tl in op["t_levels"]:
        rows = data[:, dim] == tl
        level = np.empty((n,) * dim)
        level[tuple(i[rows] for i in idx)] = data[rows, -1]
        ck.require(f"extend: level t={tl} covers the grid", int(rows.sum()) == n ** dim)
        want = u if tl == 0.0 else np.real(np.fft.ifftn(u_hat * ref.profile_phi(op["s"], xi * tl)))
        ck.err(f"extend level t={tl} (s={op['s']})",
               float(np.max(np.abs(level - want))) / scale, 1e-12 if tl == 0.0 else 1e-4)


def _exact_terms(op) -> list[tuple[int, float, float]]:
    need = max(t["l"] for t in op["terms"]) + 1
    pool = ref.exact_mode_sigmas(op["N"], max(4, need), max(4, need))
    return [(pool[t["l"]], t["c1"], t["d1"]) for t in op["terms"]]


def _check_synthesize(op, payload, ck: Checks) -> None:
    N, b = op["N"], ref.weight_b(op["s"])
    exact = {(c1, d1): sigma for sigma, c1, d1 in _exact_terms(op)}
    ck.require("synthesize: term count", len(payload["terms"]) == len(exact))
    for t in payload["terms"]:
        sigma = exact[(t["c1"], t["d1"])]
        mu, sp = ref.exact_mu(sigma, N, b), ref.exact_sigma_plus(sigma, N, b)
        ck.err("synthesize sigma_plus", ref.rel_err(t["sigma_plus"], sp, max(sp, 1.0)), 1e-5)
        ck.err("synthesize mu", ref.rel_err(t["mu"], mu, max(mu, 1.0)), 1e-5)
        if t["d1"]:
            ck.err("synthesize K", ref.rel_err(t["K"], ref.resonance_K(sp, N, b)), 1e-5)
        else:
            ck.require("synthesize: K is null without d1", t["K"] is None)


def _check_almgren(op, out: str, ck: Checks) -> None:
    start = out.index("\n{") + 1
    header, rows = _read_csv(out[:start])
    payload = json.loads(out[start:], parse_constant=_reject_constant)
    ck.require("almgren: trace header", header == ["r", "D", "H", "N", "nu1", "nu2"])
    ck.require("almgren: N = D/H", bool(np.allclose(rows[:, 3], rows[:, 1] / rows[:, 2],
                                                     rtol=1e-12, atol=0)))
    b = ref.weight_b(op["s"])
    gamma = min(ref.exact_sigma_plus(sigma, op["N"], b) for sigma, _, _ in _exact_terms(op))
    ck.err(f"almgren gamma vs exact sigma+ (N={op['N']}, s={op['s']})",
           ref.rel_err(payload["gamma"], gamma, max(gamma, 1.0)), 1e-5)
    ck.require("almgren: matched exponent", _matched_ok(payload["matched_exponent"],
                                                       payload["matched_branch"], gamma))
    ck.require("almgren: H_limit positive", payload["H_limit"] > 0)


def _check_fit(op, payload, ck: Checks) -> None:
    scale = max(abs(op["c1"]), abs(op["d1"]))
    ck.require("fit: exponent", payload["sigma_used"] == float(op["sigma"]))
    ck.require("fit: branch", payload["branch"] == "sigma_plus")
    ck.err("fit c1", ref.rel_err(payload["c1_hat"], op["c1"], scale), 1e-8)
    ck.err("fit d1", ref.rel_err(payload["d1_hat"], op["d1"], scale), 1e-8)


def _check_cli_inequalities(op, payload, ck: Checks) -> None:
    from almgren_lab.core import WeightParams
    margins = payload["margins"]
    ck.require("check-inequalities: min_margin", payload["min_margin"] == min(margins))
    if op["kind"] == "sobolev":
        ck.require("sobolev: positive finite estimate",
                   len(margins) == 1 and 0 < margins[0] < math.inf)
        return
    params = WeightParams(s=op["s"], N=op["N"])
    fields = list(test_family(params, op["kind"], "bumps", op["count"], op["seed"]).fields())
    ck.require("check-inequalities: margin count", len(margins) == len(fields))
    where = f"(check-inequalities, N={op['N']}, s={op['s']})"
    for margin, field in zip(margins, fields):
        _check_margin(ck, op["kind"], params, field, margin, where)


# ---------------------------------------------------------------------------
# frequency_crosscheck


def check_frequency(plan, op, res, ck: Checks) -> None:
    ps = plan["psets"][op["pset"]]
    N, b = ps["N"], ref.weight_b(ps["s"])
    pool = ref.exact_mode_sigmas(N, ps["k_max"], ps["per_k"])
    where = f"(N={N}, s={ps['s']}, {len(op['terms'])} terms)"
    closed, quad = res["closed"], res["quad"]
    r = closed.r.reshape(-1, 5)
    H = closed.H.reshape(-1, 5)
    D = closed.D.reshape(-1, 5)
    Nr = closed.N.reshape(-1, 5)
    h = FC_STENCIL * r[:, 2]
    dH = (-H[:, 4] + 8 * H[:, 3] - 8 * H[:, 1] + H[:, 0]) / (12 * h)
    rhs = 2 * D[:, 2] / r[:, 2]
    scale = 2 * H[:, 2] * np.maximum(np.abs(Nr[:, 2]), 1.0) / r[:, 2]
    ck.err(f"H' = 2D/r {where}", float(np.max(np.abs(dH - rhs) / scale)), 1e-6)
    nu1 = closed.nu1
    ck.require(f"nu1 >= 0 {where}",
               bool(np.all(nu1 >= -1e-9 * (1 + closed.N ** 2) / closed.r)))
    if N > 2 * ps["s"]:     # the lower bound is a statement of the regime N > 2s
        ck.require(f"N(r) + r^2/(N+b-1) >= 0 {where}",
                   bool(np.all(closed.N + closed.r ** 2 / (N + b - 1.0) >= -1e-12)))
    # D can pass through 0 where U V < 0; it is measured on the scale H max(|N|, 1)
    Nc, Dc, Hc = Nr[::2, 2], D[::2, 2], H[::2, 2]
    scales = (np.maximum(np.abs(Nc), 1.0), Hc * np.maximum(np.abs(Nc), 1.0), Hc)
    for name, c, q, sc in zip("NDH", (Nc, Dc, Hc), (quad.N, quad.D, quad.H), scales):
        ck.err(f"closed vs quadrature {name} {where}", float(np.max(np.abs(q - c) / sc)), 1e-3)
    sigma = min(ref.exact_sigma_plus(pool[t[0]], N, b) for t in op["terms"])
    lim = res["limit"]
    ck.err(f"gamma vs exact sigma+ {where}", ref.rel_err(lim.gamma, sigma, max(sigma, 1.0)), 1e-6)
    ck.require(f"limit match {where}", _matched_ok(lim.matched.value, lim.matched.kind, sigma))
    for resid in res["pohozaev"]:
        ck.err(f"Pohozaev identity {where}", resid, 1e-8)
    pos, c1, d1 = op["terms"][op["target"]]
    fit = res["fit"]
    sp = ref.exact_sigma_plus(pool[pos], N, b)
    ck.err(f"blow-up exponent {where}", ref.rel_err(fit.sigma_used, sp, max(sp, 1.0)), 1e-6)
    ck.require(f"blow-up branch {where}",
               fit.branch == ("sigma_plus" if c1 != 0.0 else "sigma_plus_two"))
    scale = max(abs(c1), abs(d1))
    ck.err(f"blow-up c1 {where}", ref.rel_err(fit.c1_hat, c1, scale), 1e-3)
    ck.err(f"blow-up d1 {where}", ref.rel_err(fit.d1_hat, d1, scale), 1e-3)


# ---------------------------------------------------------------------------
# inequality_sweep


def check_inequality(plan, op, margin, ck: Checks) -> None:
    from almgren_lab.core import WeightParams
    where = f"({op['kind']}, N={op['N']}, s={op['s']})"
    if op["which"] == "sobolev":
        ck.require(f"sobolev estimate positive {where}", 0 < margin < math.inf)
        return
    params = WeightParams(s=op["s"], N=op["N"])
    field = next(iter(test_family(params, op["which"], op["family"], 1, op["seed"]).fields()))
    scale = None
    if op["family"] == "modes":
        want, scale = ref.hardy_mode_margin(op["s"], op["N"], int(field.sigma), field.c1, 1.0)
        ck.err(f"Hardy margin vs closed form {where}", ref.rel_err(margin, want, scale), 1e-4)
    _check_margin(ck, op["which"], params, field, margin, where, scale)


CHECKS = {"cli_session": check_cli, "frequency_crosscheck": check_frequency,
          "inequality_sweep": check_inequality}
