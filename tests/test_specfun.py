"""Checks for the public Bessel K and the kernels' numerical-error path.

Reference values were generated once with mpmath at 25 significant digits
and are frozen here as literals.
"""

import math

import pytest

from cachenoma import _kernels_py
from cachenoma.errors import QuadratureAccuracyError
from cachenoma.channel import bessel_k

# mpmath, mp.dps = 25

BESSEL_POINTS = [
    # (order, x, reference)
    (0.0, 1.0, 0.421024438240708333),
    (1.0, 2.0, 0.139865881816522427),
    (0.5, 1.0, 0.461068504447894558),
    (2.75, 0.5, 35.140710231317281),
    (9.5, 30.0, 9.26380344332309202e-14),
    (0.0, 600.0, 1.35582853099485244e-262),
    (3.0, 1e-6, 7.99999999999900109e18),
    (0.25, 7.5, 0.000250156792334016452),
]

def test_bessel_reference_points():
    for nu, x, ref in BESSEL_POINTS:
        got = bessel_k(nu, x)
        assert math.isclose(got, ref, rel_tol=1e-10), (nu, x, got, ref)


def test_bessel_half_integer_closed_forms():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^-x, K_{3/2}(x) adds the (1 + 1/x) factor
    for i in range(20):
        x = 0.01 + (50.0 - 0.01) * i / 19.0
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert math.isclose(bessel_k(0.5, x), base, rel_tol=1e-10)
        assert math.isclose(bessel_k(1.5, x), base * (1.0 + 1.0 / x), rel_tol=1e-10)


def test_bessel_even_in_order():
    import numpy as np

    rng = np.random.default_rng(20240917)
    for _ in range(50):
        nu = float(rng.uniform(0.0, 6.0))
        x = float(rng.uniform(0.05, 40.0))
        assert bessel_k(-nu, x) == bessel_k(nu, x)


def test_bessel_decreasing_in_x():
    for nu in (0.0, 0.5, 1.0, 2.5):
        prev = math.inf
        for i in range(100):
            x = 0.01 + (50.0 - 0.01) * i / 99.0
            val = bessel_k(nu, x)
            assert val < prev, (nu, x)
            prev = val


def test_bessel_increasing_in_order():
    # at fixed x the function grows with |order|
    for i in range(20):
        x = 0.05 + 10.0 * i / 19.0
        prev = 0.0
        for j in range(20):
            nu = 5.0 * j / 19.0
            val = bessel_k(nu, x)
            assert val >= prev, (nu, x)
            prev = val


def test_bessel_underflows_to_zero():
    assert bessel_k(0.0, 7500.0) == 0.0
    assert bessel_k(2.0, 2000.0) == 0.0
    # the start forms its exponent -2 x sinh^2(t/2) without 2 x, which
    # overflows above about 9e307
    for nu in (0.0, 0.5, 3.7, 64.0):
        for x in (1e308, 1.7976931348623157e308):
            assert bessel_k(nu, x) == 0.0


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(0.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.0, -1.0)
    with pytest.raises(ValueError):
        bessel_k(math.nan, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0.0, math.nan)


def test_quadrature_budget_exhaustion_reports_best_estimate(monkeypatch):
    # with no relative tolerance, every error check refuses.  The shapes are
    # so large that the series cancels at these c.  Below the mean the
    # trapezoidal rule refuses before any node runs, and the error carries
    # the Gauss-Hermite estimate of the cdf; above it, the trapezoidal
    # rule's estimate of the survival value, with its error bound
    monkeypatch.setattr(_kernels_py, "_REL_TOL", 0.0)
    for x, route, want in ((600.0, "_hermite_cdf_sf", None),
                           (1200.0, "_trapezoid_cdf_sf", 0.04051)):
        with pytest.raises(QuadratureAccuracyError) as exc_info:
            _kernels_py._cdf_sf(x, 30.5, 40.25, 1.5)
        err = exc_info.value
        assert route in str(err), str(err)
        assert 0.0 < err.best_estimate < 1.0
        assert err.error_estimate > 0.0
        if want is not None:
            assert abs(err.best_estimate - want) <= 1e-4, err.best_estimate
