"""The three workloads' seeded operation lists.

A plan is made from the seed alone and holds whole rounds of operations with
a fixed make-up, so every run does the same kinds of work in the same
proportions and the share of failed operations is the same in every run.
The program receives only the generated inputs (argument lists, files,
parameters and coefficients).  `runners` executes a plan and `checks`
compares the outputs with `reference`, which does not import the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import reference as ref

WORKLOADS = ("cli_session", "frequency_crosscheck", "inequality_sweep")

# Rounds per second of --seconds, chosen so that a list takes about --seconds
# on the reference machine in the README.  The list length depends only on
# --seconds and never on a clock, so both sides of a comparison do the same work.
ROUNDS_PER_SECOND = {"cli_session": 0.42, "frequency_crosscheck": 0.36, "inequality_sweep": 2.0}

S_LO, S_HI = 1.1, 1.9          # timed draws of s; warm-up uses s outside this range
WARMUP_S = 1.05


class Draws:
    """Seeded draws; every s handed out is distinct unless a request repeats one."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.used: set[float] = set()

    def s(self, lo: float = S_LO, hi: float = S_HI) -> float:
        while True:
            s = round(float(self.rng.uniform(lo, hi)), 6)
            if s not in self.used:
                self.used.add(s)
                return s

    def coef(self) -> float:
        return round(float(self.rng.choice([-1.0, 1.0]) * self.rng.uniform(0.2, 1.5)), 12)

    def int(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return int(self.rng.integers(lo, hi + 1))

    def rellich(self) -> tuple[int, float]:
        """(N, s) of a Hardy-Rellich request, in its regime N > 2s."""
        N = self.int(3, 4)
        return N, (self.s(S_LO, 1.45) if N == 3 else self.s())


def n_rounds(workload: str, seconds: float) -> int:
    return max(2, int(round(seconds * ROUNDS_PER_SECOND[workload])))


# ---------------------------------------------------------------------------
# cli_session

CLI_ROUND = (["hemisphere"] * 5 + ["cylinder"] * 3 + ["profile"] * 3 + ["extend"] * 6
             + ["synthesize"] * 4 + ["almgren"] * 4 + ["fit"] * 4
             + ["hardy", "rellich", "sobolev"]
             + ["bad_terms_empty", "bad_c1_str", "bad_l_neg", "bad_huge", "bad_s", "bad_nan"])
# Malformed requests: the documented outcome is exit 2, a message on stderr and
# nothing on stdout.  The first four fail every time at the parent commit.
MALFORMED = {
    "bad_terms_empty": ("synthesize", '{"params": {"s": 1.25, "N": 3}, "terms": []}'),
    "bad_c1_str": ("synthesize", '{"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": "x"}]}'),
    "bad_l_neg": ("synthesize", '{"params": {"s": 1.25, "N": 3}, "terms": [{"l": -1, "c1": 1.0}]}'),
    "bad_huge": ("almgren", '{"params": {"s": 1.25, "N": 3}, '
                            '"terms": [{"l": 1, "c1": 1e308, "d1": 1e308}]}'),
    "bad_nan": ("synthesize", '{"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": NaN}]}'),
}
EXTEND_ROLES = ("miss", "miss", "hit", "miss", "hit", "hit")   # hit i repeats miss i
# Spec terms use list positions 0-3, so every synthesize, almgren and spec-reading
# malformed request at N >= 2 solves the same 5 sectors x 4 modes, as does
# `spectrum hemisphere --count 4`: the median request falls in that cluster.
CLI_POSITIONS = 4
FIT_LAMBDAS = np.geomspace(0.3, 0.02, 10)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _torus_sample(d: Draws, dim: int) -> np.ndarray:
    """Band-limited real sample on the 2 pi torus (no energy near Nyquist)."""
    n = 64 if dim == 1 else 24
    x = np.arange(n) * 2.0 * math.pi / n
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    u = np.full(mesh[0].shape, d.coef())
    for _ in range(5):
        freq = [d.int(-6, 6) for _ in range(dim)]
        phase = float(d.rng.uniform(0, 2 * math.pi))
        u = u + d.coef() * np.cos(sum(f * m for f, m in zip(freq, mesh)) + phase)
    return u


def _spec_terms(d: Draws, n_terms: int, n_pos: int, first: int = 0) -> list[dict]:
    positions = first + d.rng.choice(n_pos - first, size=n_terms, replace=False)
    terms = []
    for pos in positions:
        c1 = d.coef()
        d1 = 0.0 if d.rng.uniform() < 0.3 else d.coef()
        terms.append({"l": int(pos), "c1": c1, "d1": d1})
    return terms


def _cli_op(kind: str, d: Draws, work: str, idx: int, extend_s: list[float],
            preset: dict) -> dict:
    path = os.path.join(work, f"in{idx}")
    if kind == "hemisphere":
        s, N, count = d.s(), preset["N"], preset["count"]
        return {"kind": kind, "s": s, "N": N, "count": count,
                "argv": ["spectrum", "hemisphere", "--s", repr(s), "--N", str(N),
                         "--count", str(count)]}
    if kind == "cylinder":
        s, N, count = d.s(), d.int(1, 2), d.int(3, 6)
        R = round(float(d.rng.uniform(0.5, 2.0)), 6)
        return {"kind": kind, "s": s, "N": N, "R": R, "count": count,
                "argv": ["spectrum", "cylinder", "--s", repr(s), "--N", str(N), "--R", repr(R),
                         "--count", str(count)]}
    if kind == "profile":
        s = d.s()
        return {"kind": kind, "s": s, "argv": ["profile", "--s", repr(s)]}
    if kind == "extend":
        role = EXTEND_ROLES[len(extend_s)]
        if role == "miss":
            s = d.s()
        else:
            hits = EXTEND_ROLES[:len(extend_s)].count("hit")
            s = [x for x, r in zip(extend_s, EXTEND_ROLES) if r == "miss"][hits]
        extend_s.append(s)
        dim = preset["dim"]
        u = _torus_sample(d, dim)
        n = u.shape[0]
        x = np.arange(n) * 2.0 * math.pi / n
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow([f"x{i + 1}" for i in range(dim)] + ["value"])
        for index in np.ndindex(u.shape):
            w.writerow([f"{x[i]:.17g}" for i in index] + [f"{u[index]:.17g}"])
        t1, t2 = sorted(round(float(v), 6) for v in d.rng.uniform(0.05, 1.0, 2))
        return {"kind": kind, "role": role, "s": s, "dim": dim, "input": _write(path + ".csv", buf.getvalue()),
                "t_levels": [0.0, t1, t2],
                "argv": ["extend", "--input", path + ".csv", "--t-levels", f"0,{t1!r},{t2!r}",
                         "--s", repr(s), "--N", str(dim)]}
    if kind in ("synthesize", "almgren"):
        s, N = d.s(), preset["N"]
        # For N + b < 1 the constant mode's sigma+ = -b lies within 1 + b of
        # sigma = 1 and the frequency limit does not converge on the default
        # schedule (see CHANGES.md): almgren requests leave that mode out.
        first = 1 if kind == "almgren" and N + ref.weight_b(s) < 1.0 else 0
        terms = _spec_terms(d, min(preset["terms"], CLI_POSITIONS - first), CLI_POSITIONS, first)
        spec = {"params": {"s": s, "N": N, "R": 1.0}, "terms": terms}
        return {"kind": kind, "s": s, "N": N, "terms": terms,
                "argv": [kind, "--spec", _write(path + ".json", json.dumps(spec))]}
    if kind == "fit":
        # d1 != 0: with phi_tilde = 0 the fitter can pick sigma - 2 (see CHANGES.md)
        s, N, sigma = d.s(), d.int(1, 4), d.int(0, 3)
        c1, d1 = d.coef(), d.coef()
        b = ref.weight_b(s)
        e = d1 / ref.resonance_K(sigma, N, b)
        rows = [["lambda", "phi", "phi_tilde"]] + [
            [f"{lam:.17g}", f"{c1 * lam ** sigma + e * lam ** (sigma + 2):.17g}",
             f"{d1 * lam ** sigma:.17g}"] for lam in FIT_LAMBDAS]
        text = "\n".join(",".join(r) for r in rows) + "\n"
        return {"kind": kind, "s": s, "N": N, "sigma": sigma, "c1": c1, "d1": d1,
                "argv": ["fit", "--input", _write(path + ".csv", text), "--sigma-candidates", "0,1,2,3",
                         "--s", repr(s), "--N", str(N)]}
    if kind in ("hardy", "rellich", "sobolev"):
        if kind == "rellich":
            N, s = d.rellich()
        else:
            N = d.int(1, 4) if kind == "hardy" else d.int(2, 4)
            s = d.s()
        count = 1 if kind == "sobolev" else d.int(2, 3)
        seed = d.int(0, 2 ** 31 - 1)
        return {"kind": kind, "s": s, "N": N, "count": count, "seed": seed,
                "argv": ["check-inequalities", "--which", kind, "--s", repr(s), "--N", str(N),
                         "--count", str(count), "--seed", str(seed)]}
    if kind == "bad_s":
        return {"kind": kind, "malformed": True, "argv": ["profile", "--s", "2.5"]}
    command, text = MALFORMED[kind]
    return {"kind": kind, "malformed": True,
            "argv": [command, "--spec", _write(os.path.join(work, kind + ".json"), text)]}


def _cli_presets(d: Draws) -> dict[str, list[dict]]:
    """Per-round problem sizes, in a seeded order.

    Every round holds the same multiset of N, --count, term counts and torus
    dimensions, so the median latency (which falls among the eigensolver-bound
    requests) and the memory kept for the checks do not move with the seed's
    mix of sizes.
    """
    def perm(values):
        return [values[i] for i in d.rng.permutation(len(values))]
    hemi = zip(perm([1, 2, 3, 4, d.int(1, 4)]), perm([4, 4, 4, 6, 8]))
    out = {"hemisphere": [{"N": N, "count": c} for N, c in hemi]}
    for kind in ("synthesize", "almgren"):
        out[kind] = [{"N": N, "terms": m} for N, m in zip(perm([1, 2, 3, 4]), perm([1, 2, 3, 4]))]
    out["extend"] = [{"dim": dim} for dim in perm([1, 1, 1, 2, 2, 2])]
    return out


def _plan_cli(d: Draws, rounds: int, work: str) -> dict:
    plan_rounds = []
    idx = 0
    for _ in range(rounds):
        order = [CLI_ROUND[i] for i in d.rng.permutation(len(CLI_ROUND))]
        presets = _cli_presets(d)
        extend_s: list[float] = []
        ops = []
        for kind in order:
            preset = presets[kind].pop() if kind in presets else {}
            ops.append(_cli_op(kind, d, work, idx, extend_s, preset))
            idx += 1
        plan_rounds.append(ops)
    return {"rounds": plan_rounds}


# ---------------------------------------------------------------------------
# frequency_crosscheck

# Fixed parameter sets, each with a pool of 16 modes.  The cross-path error
# grows with sigma and shows only when a mode is synthesized alone, so every
# run puts each pool mode in a one-term synthesis once (over 8 rounds): the
# worst agreement then measures the same modes on every seed.  N = 1 uses
# s < 3/2 because the quadrature path cannot resolve the constant mode when
# N + b < 1 (see CHANGES.md).
FC_PSETS = ({"N": 1, "s": 1.3, "k_max": 0, "per_k": 16},
            {"N": 3, "s": 1.25, "k_max": 3, "per_k": 4},
            {"N": 4, "s": 1.7, "k_max": 3, "per_k": 4})
FC_POOL = 16
# Per set and round: two one-term syntheses, then these.  Three cheaper and
# three dearer ones around the three 8-term syntheses put the median in the
# middle of the 8-term cluster, and of its middle parameter set, not on an
# edge between two sets.
FC_TERMS = (3, 8, 8, 8, 12, 16, 16)


def _plan_fc(d: Draws, rounds: int) -> dict:
    offsets = [d.int(0, FC_POOL - 1) for _ in FC_PSETS]
    plan_rounds = []
    for r in range(rounds):
        ops = []
        for pi, ps in enumerate(FC_PSETS):
            pool = ref.exact_mode_sigmas(ps["N"], ps["k_max"], ps["per_k"])
            for j in range(2):
                pos = (offsets[pi] + 2 * r + j) % FC_POOL
                # the second one has c1 = 0: its blow-up lies on the sigma+2 branch
                c1 = d.coef() if j == 0 else 0.0
                ops.append({"kind": "terms1", "pset": pi, "terms": [[pos, c1, d.coef()]],
                            "target": 0})
            for m in FC_TERMS:
                positions = [int(p) for p in d.rng.choice(FC_POOL, size=m, replace=False)]
                terms = [[pos, d.coef(), 0.0 if d.rng.uniform() < 0.25 else d.coef()]
                         for pos in positions]
                target = min(range(m), key=lambda i: (pool[terms[i][0]], i))
                if terms[target][2] == 0.0:      # the fitted term keeps d1 != 0, as in cli_session
                    terms[target][2] = d.coef()
                ops.append({"kind": f"terms{m}", "pset": pi, "terms": terms, "target": target})
        order = d.rng.permutation(len(ops))
        plan_rounds.append([ops[i] for i in order])
    return {"psets": list(FC_PSETS), "rounds": plan_rounds}


# ---------------------------------------------------------------------------
# inequality_sweep

INEQ_ROUND = (["hardy:bumps"] * 4 + ["hardy:poly"] * 3 + ["hardy:modes"] * 3
              + ["rellich:bumps"] * 2 + ["rellich:poly"] + ["sobolev:bumps"] * 3)


def _plan_ineq(d: Draws, rounds: int) -> dict:
    plan_rounds = []
    for _ in range(rounds):
        ops = []
        for i, kind in enumerate(INEQ_ROUND):
            which, family = kind.split(":")
            if which == "rellich":
                N, s = d.rellich()
            elif kind == "hardy:modes" and INEQ_ROUND.index(kind) == i:
                # one mode member per round where the default grid is least
                # accurate (N = 1, s near 2), so every run measures the worst case
                N, s = 1, d.s(1.8, S_HI)
            else:
                N = d.int(1, 4) if which == "hardy" else d.int(2, 4)
                s = d.s()
            ops.append({"kind": kind, "which": which, "family": family, "s": s, "N": N,
                        "seed": d.int(0, 2 ** 31 - 1)})
        order = d.rng.permutation(len(ops))
        plan_rounds.append([ops[i] for i in order])
    return {"rounds": plan_rounds}


def make_plan(workload: str, seed: int, seconds: float, work: str) -> dict:
    """The seeded operation list of one run; input files are written under `work`."""
    d = Draws(seed)
    rounds = n_rounds(workload, seconds)
    if workload == "cli_session":
        plan = _plan_cli(d, rounds, work)
        plan["warmup"] = ["profile", "--s", repr(WARMUP_S), "--resolution", "512"]
    elif workload == "frequency_crosscheck":
        plan = _plan_fc(d, rounds)
    else:
        plan = _plan_ineq(d, rounds)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
