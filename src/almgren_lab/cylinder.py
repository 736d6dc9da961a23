"""Explicit eigenbasis of the weighted Laplacian on the half cylinder.

Modes are products of Dirichlet eigenfunctions of the horizontal ball of
radius 2R (closed forms for N = 1 and N = 2) with the regularized Bessel
radial factor t^alpha J_{-alpha}(j_m t / (2R)); the eigenvalue splits as
lambda_{n,m} = mu_n + j_m^2 / (2R)^2.  The horizontal center is fixed at
the origin.  The Bessel kernels (`scipy.special`) are imported on first use,
not with the module; the zeros j_m come from one `_bessel_zeros` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, WeightParams, _count, _radius
from .special_functions import (bessel_h, bessel_h_deriv, bessel_zero, _bessel_zeros,
                                _radial_norm_at_zero)


@dataclass(frozen=True)
class DirichletSpectrum:
    """Ordered Dirichlet spectrum of -Laplace on the ball B'_{2R}.

    `labels` carries the quantum numbers of each entry ((n,) for N = 1;
    (k, p, parity) for the disk with parity in {"cos", "sin"}); evaluators are
    normalized in unweighted L^2(B'_{2R}).
    """

    N: int
    R: float
    mus: tuple[float, ...]
    labels: tuple[tuple, ...]
    _evaluators: tuple

    def evaluator(self, n: int):
        """Evaluator of the n-th eigenfunction (1-based index)."""
        return self._evaluators[n - 1]

    def mu(self, n: int) -> float:
        return self.mus[n - 1]


def _disk_zeros(count: int) -> list[tuple[int, int, float]]:
    """(k, p, j_{k,p}) of the `count` smallest disk eigenvalues, in spectrum order.

    Each zero with k >= 1 carries a cos/sin pair.  Zeros increase with k at
    fixed p (j_{k,p} < j_{k+1,p}), so order k needs no more zeros than order
    k - 1 has below the running cut (the count-th smallest eigenvalue found
    so far), and the sweep stops at the first order with none below it.
    Ties keep the order (k, p) of the sweep, cos before sin.
    """
    from scipy.special import jn_zeros

    found: list[tuple[float, int, int]] = []
    cut = math.inf
    wanted = count
    k = 0
    while wanted > 0:
        zeros = jn_zeros(k, wanted)
        zeros = zeros[zeros <= cut]
        found.extend((float(j), k, p) for p, j in enumerate(zeros, start=1))
        copies = sorted(j for j, kk, _ in found for _ in range(1 if kk == 0 else 2))
        if len(copies) >= count:
            cut = copies[count - 1]
        wanted = int(np.count_nonzero(zeros <= cut))
        k += 1
    found.sort(key=lambda e: e[0])     # stable: equal zeros keep the sweep order
    kept, entries = [], 0
    for j, k, p in found:
        if entries >= count:
            break
        kept.append((k, p, j))
        entries += 1 if k == 0 else 2
    return kept


def dirichlet_eigs(N: int, R: float, count: int) -> DirichletSpectrum:
    """Closed-form Dirichlet spectra for the interval (N = 1) and disk (N = 2)."""
    N, count = _count(N, "dimension N"), _count(count, "count")
    R = _radius(R, "ball radius R", power=2.0)
    if N == 1:
        a = 2.0 * R
        norm = 1.0 / math.sqrt(a)
        entries = []
        for n in range(1, count + 1):
            mu = (n * math.pi / (2.0 * a)) ** 2
            entries.append((
                mu, (n,),
                lambda x, n=n, a=a, norm=norm:
                    norm * np.sin(n * math.pi * (np.asarray(x, dtype=float) + a) / (2 * a)),
            ))
    elif N == 2:
        from scipy.special import jv

        a = 2.0 * R
        entries = []
        for k, p, j in _disk_zeros(count):
            mu = (j / a) ** 2
            c = 1.0 / (math.sqrt(math.pi) * a * abs(jv(k + 1, j)))
            c_k = c if k == 0 else math.sqrt(2.0) * c
            # k = 0 has the cosine member only, cos(0 phi) = 1
            for parity, trig in (("cos", np.cos), ("sin", np.sin))[:1 if k == 0 else 2]:
                entries.append((
                    mu, (k, p, parity),
                    lambda rho, phi=0.0, j=j, a=a, c=c_k, k=k, trig=trig:
                        c * jv(k, j * np.asarray(rho, dtype=float) / a) * trig(k * np.asarray(phi)),
                ))
        entries = entries[:count]      # the last pair may straddle the count
    else:
        raise DomainError(
            f"dimension N = {N} unsupported for the Dirichlet factor (desk-scale "
            "limit: closed forms exist for N in {1, 2})"
        )
    mus, labels, evals = zip(*entries)
    return DirichletSpectrum(N=N, R=R, mus=mus, labels=labels, _evaluators=evals)


@dataclass(frozen=True)
class CylinderMode:
    """Eigenmode e_{n,m}(x,t) of the half-cylinder problem with its eigenvalue."""

    params: WeightParams
    n: int
    m: int
    mu_n: float
    zero_m: float
    gamma_m: float
    _horizontal: object

    @property
    def eigenvalue(self) -> float:
        return self.mu_n + (self.zero_m / (2.0 * self.params.R)) ** 2

    def radial(self, t):
        """Vertical factor gamma_m t^alpha J_{-alpha}(j_m t / (2R)), smooth at 0."""
        c = self.zero_m / (2.0 * self.params.R)
        return self.gamma_m * c ** (-self.params.alpha) * bessel_h(self.params.alpha, c * np.asarray(t, dtype=float))

    def radial_t_derivative(self, t):
        c = self.zero_m / (2.0 * self.params.R)
        return self.gamma_m * c ** (1.0 - self.params.alpha) * bessel_h_deriv(self.params.alpha, c * np.asarray(t, dtype=float))

    def __call__(self, x, t):
        return self.radial(t) * self._horizontal(x)

    def horizontal(self, x):
        return self._horizontal(x)


def cylinder_mode(params: WeightParams, n: int, m: int) -> CylinderMode:
    """Assemble the (n, m) eigenmode; eigenvalue mu_n + j_m^2/(2R)^2.

    One mode solves its own n Dirichlet eigenvalues and its one zero j_m;
    `cylinder_spectrum` is the batch path for many modes of one params.
    """
    n, m = _count(n, "mode index n"), _count(m, "mode index m")
    return _mode(params, dirichlet_eigs(params.N, params.R, n), n, m,
                 bessel_zero(-params.alpha, m))


def _mode(params: WeightParams, spectrum: DirichletSpectrum, n: int, m: int,
          zero: float) -> CylinderMode:
    return CylinderMode(params=params, n=n, m=m, mu_n=spectrum.mu(n), zero_m=zero,
                        gamma_m=_radial_norm_at_zero(params, zero),
                        _horizontal=spectrum.evaluator(n))


def cylinder_spectrum(params: WeightParams, count: int) -> list[CylinderMode]:
    """The `count` lowest modes (n, m), ordered by eigenvalue, ties by (n, m).

    lambda grows in both n and m, so they all have n, m <= count; the zeros
    j_m, m <= count, are solved together in one `_bessel_zeros` call.
    """
    spectrum = dirichlet_eigs(params.N, params.R, count)
    zeros = _bessel_zeros(-params.alpha, np.arange(1, count + 1)).tolist()
    modes = [_mode(params, spectrum, n, m, zeros[m - 1])
             for n in range(1, count + 1) for m in range(1, count + 1)]
    modes.sort(key=lambda mode: mode.eigenvalue)
    return modes[:count]

