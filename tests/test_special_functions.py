import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from almgren_lab import (
    DomainError,
    WeightParams,
    bessel_h,
    bessel_j,
    bessel_zero,
    radial_norm_gamma,
)
from almgren_lab.special_functions import bessel_h_deriv


@pytest.mark.parametrize("nu", [1.0, -1.0, 1.5, math.nan])
def test_order_domain(nu):
    refusal = r"Bessel order nu must be a finite real number in \(-1, 1\)"
    with pytest.raises(DomainError, match=refusal):
        bessel_j(nu, 1.0)
    with pytest.raises(DomainError, match=refusal):
        bessel_zero(nu, 1)


def test_half_integer_closed_form():
    # J_{-1/2}(t) = sqrt(2/(pi t)) cos t vanishes at pi/2
    assert abs(bessel_j(-0.5, math.pi / 2)) < 1e-12
    t = 1.3
    assert_allclose(bessel_j(-0.5, t), math.sqrt(2 / (math.pi * t)) * math.cos(t),
                    rtol=1e-13)


def test_j0_at_zero():
    assert bessel_j(0.0, 0.0) == pytest.approx(1.0)


def test_negative_order_at_zero_raises():
    with pytest.raises(DomainError, match="bessel_h"):
        bessel_j(-0.3, 0.0)


@pytest.mark.parametrize("nu", [-0.75, -0.4, -0.25])
@pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
def test_derivative_recurrence(nu, t):
    # J_nu'(t) = -J_{nu+1}(t) + nu J_nu(t) / t, with J' by central differences
    # (five-point stencil keeps the difference noise below the tolerance)
    h = 1e-3 * max(t, 1.0)
    deriv = (-bessel_j(nu, t + 2 * h) + 8 * bessel_j(nu, t + h)
             - 8 * bessel_j(nu, t - h) + bessel_j(nu, t - 2 * h)) / (12 * h)
    residual = deriv + bessel_j(nu + 1, t) - nu * bessel_j(nu, t) / t
    assert abs(residual) < 1e-10


def test_h_closed_form_half():
    # alpha = 1/2: h(t) = sqrt(2/pi) cos t
    c = math.sqrt(2 / math.pi)
    assert_allclose(bessel_h(0.5, 0.0), c, rtol=1e-14)
    t = np.linspace(0.0, 20.0, 101)
    assert_allclose(bessel_h(0.5, t), c * np.cos(t), rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9])
def test_h_matches_power_times_j(alpha):
    t = np.geomspace(1e-3, 50.0, 200)
    want = t ** alpha * bessel_j(-alpha, t)
    assert_allclose(bessel_h(alpha, t), want, rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_h_derivative_vanishes_at_zero(alpha):
    h = 1e-4
    one_sided = (bessel_h(alpha, h) - bessel_h(alpha, 0.0)) / h
    assert abs(one_sided) < 1e-3  # slope ~ h itself since h''(0) finite
    # tighter: value at h scales like h^2 from the even series
    assert abs(bessel_h(alpha, h) - bessel_h(alpha, 0.0)) < 1e-7
    assert abs(bessel_h_deriv(alpha, 0.0)) == 0.0


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_h_growth_guard(alpha):
    # |h(t)| <= C (1 + t^{alpha - 1/2}) on [0, 100], C fitted once
    t = np.linspace(0.0, 100.0, 4001)
    vals = np.abs(bessel_h(alpha, t))
    bound = 1.0 + t ** (alpha - 0.5) if alpha > 0.5 else np.ones_like(t)
    C = 1.05 * np.max(vals / bound)
    assert np.all(vals <= C * bound)
    assert C < 2.0


def test_zero_closed_forms():
    for m in range(1, 21):
        assert abs(bessel_zero(-0.5, m) - (m - 0.5) * math.pi) < 1e-10
    assert abs(bessel_zero(-0.5, 3) - 2.5 * math.pi) < 1e-12


def test_zero_against_bisection_oracle():
    # independent bisection on J_0 over a sign-changing bracket
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j(0.0, lo) * bessel_j(0.0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(bessel_zero(0.0, 1) - oracle) < 1e-10


def test_zero_index_validation():
    with pytest.raises(DomainError):
        bessel_zero(0.0, 0)


@pytest.mark.parametrize("nu", [-0.75, -0.5, -0.1, 0.0, 0.6])
def test_zero_interlacing_and_asymptotics(nu):
    zeros = [bessel_zero(nu, m) for m in range(1, 51)]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))
    drift = [abs(z - math.pi * m) for m, z in enumerate(zeros, start=1)]
    assert max(drift) < math.pi  # j_{nu,m} ~ pi m: bounded drift for m <= 50


_ORACLE_INDICES = [1, 2, 3, 4, 5, 6, 10, 50, 200]


@pytest.mark.parametrize("nu", np.linspace(-0.999, 0.999, 21).tolist())
def test_zeros_against_40_digit_oracle(nu):
    mpmath = pytest.importorskip("mpmath")
    from almgren_lab.special_functions import _bessel_zeros

    zeros = _bessel_zeros(nu, _ORACLE_INDICES)
    assert np.all(np.diff(zeros) > 0)
    with mpmath.workdps(40):
        order = mpmath.mpf(nu)
        for m, z in zip(_ORACLE_INDICES, zeros):
            assert bessel_zero(nu, m) == z      # the scalar call is the kernel's entry
            if nu >= 0:
                want = mpmath.besseljzero(order, m)
            else:
                # j_{nu,m} lies between the zeros m-1 and m of J_{nu+1} (interlacing);
                # the root of t^{-nu} J_nu(t) there is found on that bracket alone
                lo = mpmath.besseljzero(order + 1, m - 1) if m > 1 else mpmath.mpf("1e-30")
                want = mpmath.findroot(lambda t: t ** -order * mpmath.besselj(order, t),
                                       (lo, mpmath.besseljzero(order + 1, m)),
                                       solver="anderson")
            assert abs(mpmath.mpf(float(z)) - want) <= 5e-15 * want, (m, z, want)


def test_radial_norm_gamma_closed_case():
    # b = 0 (alpha = 1/2), R = 1/2, m = 1: the defining integral is 2/pi^2,
    # giving gamma_1 = pi/sqrt(2); cross-checked by direct quadrature below.
    p = WeightParams(s=1.5, N=1, R=0.5)
    got = radial_norm_gamma(p, 1)
    assert_allclose(got, math.pi / math.sqrt(2.0), rtol=1e-12)


@pytest.mark.parametrize("b,m", [(0.0, 1), (0.5, 2), (-0.5, 3)])
def test_radial_norm_gamma_against_quadrature(b, m):
    p = WeightParams.from_b(b, 1, R=0.7)
    alpha = p.alpha
    j = bessel_zero(-alpha, m)
    val, _ = quad(lambda t: t * bessel_j(-alpha, j * t / (2 * p.R)) ** 2,
                  0, 2 * p.R, limit=200)
    assert_allclose(radial_norm_gamma(p, m), val ** -0.5, rtol=1e-9)


def test_radial_norm_gamma_upper_bound():
    # gamma_m <= C j_{-alpha,m} with C = [4R^2 int_0^{j_1} t J^2 dt]^{-1/2}
    p = WeightParams.from_b(0.5, 1, R=0.5)
    alpha = p.alpha
    j1 = bessel_zero(-alpha, 1)
    val, _ = quad(lambda t: t * bessel_j(-alpha, t) ** 2, 1e-12, j1, limit=200)
    C = (4 * p.R ** 2 * val) ** -0.5
    for m in range(1, 11):
        assert radial_norm_gamma(p, m) <= C * bessel_zero(-alpha, m) * (1 + 1e-12)


def test_radial_norm_gamma_radius_scaling():
    # doubling R halves gamma_m (change of variables in the defining integral)
    pa = WeightParams(s=1.5, N=1, R=0.5)
    pb = WeightParams(s=1.5, N=1, R=1.0)
    for m in (1, 2, 5):
        assert_allclose(radial_norm_gamma(pb, m), radial_norm_gamma(pa, m) / 2,
                        rtol=1e-12)
