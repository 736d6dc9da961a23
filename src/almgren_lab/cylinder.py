"""Explicit eigenbasis of the weighted Laplacian on the half cylinder.

Modes are products of Dirichlet eigenfunctions of the horizontal ball of
radius 2R (closed forms for N = 1 and N = 2) with the regularized Bessel
radial factor t^alpha J_{-alpha}(j_m t / (2R)); the eigenvalue splits as
lambda_{n,m} = mu_n + j_m^2 / (2R)^2.  The eigen-expansion Poisson solver
divides coefficients by lambda.  The horizontal center is fixed at the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros, jv

from .core import DomainError, InputError, WeightParams
from .special_functions import bessel_h, bessel_h_deriv, bessel_zero, _radial_norm_at_zero


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

    def __len__(self) -> int:
        return len(self.mus)


def dirichlet_eigs(N: int, R: float, count: int) -> DirichletSpectrum:
    """Closed-form Dirichlet spectra for the interval (N = 1) and disk (N = 2)."""
    if count < 1:
        raise DomainError("count must be >= 1")
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
        a = 2.0 * R
        entries = []
        k_cap = count + 2
        p_cap = count + 2
        for k in range(k_cap):
            zeros = jn_zeros(k, p_cap)
            for p, j in enumerate(zeros, start=1):
                mu = (j / a) ** 2
                c = 1.0 / (math.sqrt(math.pi) * a * abs(jv(k + 1, j)))
                if k == 0:
                    entries.append((
                        mu, (k, p, "cos"),
                        lambda rho, phi=None, j=j, a=a, c=c:
                            c * jv(0, j * np.asarray(rho, dtype=float) / a),
                    ))
                else:
                    c_k = math.sqrt(2.0) * c
                    entries.append((
                        mu, (k, p, "cos"),
                        lambda rho, phi=0.0, j=j, a=a, c=c_k, k=k:
                            c * jv(k, j * np.asarray(rho, dtype=float) / a) * np.cos(k * np.asarray(phi)),
                    ))
                    entries.append((
                        mu, (k, p, "sin"),
                        lambda rho, phi=0.0, j=j, a=a, c=c_k, k=k:
                            c * jv(k, j * np.asarray(rho, dtype=float) / a) * np.sin(k * np.asarray(phi)),
                    ))
        entries.sort(key=lambda e: e[0])
        entries = entries[:count]
    else:
        raise DomainError(
            f"dimension N = {N} unsupported for the Dirichlet factor (desk-scale "
            "limit: closed forms exist for N in {1, 2})"
        )
    if N == 1:
        entries = entries[:count]
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


def cylinder_mode(params: WeightParams, n: int, m: int,
                  spectrum: DirichletSpectrum | None = None) -> CylinderMode:
    """Assemble the (n, m) eigenmode; eigenvalue mu_n + j_m^2/(2R)^2."""
    if n < 1 or m < 1:
        raise DomainError("mode indices n, m must be >= 1")
    if spectrum is None:
        spectrum = dirichlet_eigs(params.N, params.R, n)
    if len(spectrum) < n:
        raise DomainError(f"spectrum holds {len(spectrum)} entries; need n = {n}")
    return _mode(params, spectrum, n, m, bessel_zero(-params.alpha, m))


def _mode(params: WeightParams, spectrum: DirichletSpectrum, n: int, m: int,
          zero: float) -> CylinderMode:
    return CylinderMode(params=params, n=n, m=m, mu_n=spectrum.mu(n), zero_m=zero,
                        gamma_m=_radial_norm_at_zero(params, zero),
                        _horizontal=spectrum.evaluator(n))


def cylinder_spectrum(params: WeightParams, count: int) -> list[CylinderMode]:
    """The `count` lowest modes (n, m), ordered by eigenvalue, ties by (n, m).

    lambda grows in both n and m, so they all have n, m <= count; each zero
    j_m, m <= count, is solved once: count root solves in all.
    """
    spectrum = dirichlet_eigs(params.N, params.R, count)
    zeros = [bessel_zero(-params.alpha, m) for m in range(1, count + 1)]
    modes = [_mode(params, spectrum, n, m, zeros[m - 1])
             for n in range(1, count + 1) for m in range(1, count + 1)]
    modes.sort(key=lambda mode: mode.eigenvalue)
    return modes[:count]


def poisson_solve(params: WeightParams, coeffs: dict, truncation: int) -> dict:
    """Eigen-expansion solve of the weighted Poisson problem on the cylinder.

    Given expansion coefficients of the datum over modes (n, m), returns the
    coefficients of the solution, c_{n,m} / lambda_{n,m}.
    """
    if not coeffs:
        return {}
    top = max(max(n, m) for (n, m) in coeffs)
    if truncation < top:
        raise DomainError(f"truncation {truncation} below largest index {top}")
    spectrum = dirichlet_eigs(params.N, params.R, max(n for (n, _) in coeffs))
    out = {}
    for (n, m), c in coeffs.items():
        if n < 1 or m < 1:
            raise DomainError("coefficient indices must be >= 1")
        if not np.isfinite(c):
            raise InputError("non-finite coefficient")
        j = bessel_zero(-params.alpha, m)
        lam = spectrum.mu(n) + (j / (2.0 * params.R)) ** 2
        if lam <= 0:
            raise DomainError("nonpositive eigenvalue (cannot happen for this operator)")
        value = c / lam
        if abs(value) >= 1e-14:
            out[(n, m)] = value
    return out
