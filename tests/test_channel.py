"""Checks for the cascaded fading channel layer.

Frozen reference values come from mpmath (25 digits): the density and
distribution of the squared product gain, plus unit-shape closed forms.
With an integer shape the survival function is a finite Bessel-K sum; with
both shapes non-integer it is the integrated series or a fixed quadrature
rule, so both kinds of path are pinned.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cachenoma.channel import (
    MAX_SHAPE,
    DoubleNakagamiParams,
    LinkGeometry,
    bessel_k,
    cdf_gain_sq,
    effective_scale,
    sample_gain_sq,
    survival_gain_sq,
)
from cachenoma.mc import BLOCK

UNIT = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0)
TABLE = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
MIXED = DoubleNakagamiParams(m1=2.5, m2=1.5, omega1=2.0, omega2=3.0)
HALF = DoubleNakagamiParams(m1=0.5, m2=0.5, omega1=1.0, omega2=1.0)
INT23 = DoubleNakagamiParams(m1=2.0, m2=3.0, omega1=1.0, omega2=1.5)
ONE_THREEQ = DoubleNakagamiParams(m1=1.0, m2=0.75, omega1=0.75, omega2=0.25)

# mpmath references
PDF_UNIT_AT_1 = 0.227787745499066871      # 2 K_0(2)
CDF_UNIT_AT_1 = 0.720268236366955145      # 1 - 2 K_1(2)
SF_UNIT_AT_1 = 0.279731763633044855       # 2 K_1(2)
PDF_MIXED_AT_4 = 0.0877751672903897534
CDF_MIXED_AT_4 = 0.521593392244174667
SF_MIXED_AT_60 = 0.000846510874328995983
CDF_MIXED_AT_HALF = 0.0666576573636031623
CDF_HALF_AT_1 = 0.791006336995343393
SF_TABLE_AT_02 = 0.85245417360579207
SF_TABLE_AT_03 = 0.806073927054628553
SF_TABLE_AT_15 = 0.512115410395740865
SF_TABLE_AT_120 = 0.0000749263756858060612
SF_MIXED_AT_150 = 1.98024734903396613e-6
SF_INT23_AT_075 = 0.627566361470674744
SF_INT23_AT_100 = 1.48586606145198144e-13
SF_ONE_THREEQ_AT_6 = 0.00012140048101784046


def test_rate_parameter():
    assert UNIT.rate == 1.0
    assert TABLE.rate == 0.25
    assert math.isclose(MIXED.rate, 2.5 * 1.5 / (2.0 * 3.0), rel_tol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        DoubleNakagamiParams(m1=0.4, m2=1.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ValueError):
        DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=0.0, omega2=1.0)
    with pytest.raises(ValueError):
        DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=1.0, omega2=-2.0)
    with pytest.raises(ValueError):
        DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=1e-200, omega2=1e-200)
    with pytest.raises(ValueError):
        DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=1e200, omega2=1e200)


def test_shape_bound():
    # a survival call's cost grows with the Bessel order |m1 - m2|, and at
    # 1e308 lgamma overflows, so shapes above the bound are refused up front
    for m in (1e308, 1e6, math.nextafter(MAX_SHAPE, math.inf)):
        for name, shapes in (("m1", (m, 1.0)), ("m2", (1.0, m))):
            with pytest.raises(ValueError, match=name):
                DoubleNakagamiParams(*shapes, omega1=1.0, omega2=1.0)
    # at the bound both the widest order and the largest shapes still work
    for m1, m2 in ((MAX_SHAPE, 0.5), (0.75, MAX_SHAPE), (MAX_SHAPE, MAX_SHAPE)):
        params = DoubleNakagamiParams(m1=m1, m2=m2, omega1=2.0, omega2=2.0)
        mean = params.omega1 * params.omega2
        for x in (1e-3 * mean, mean, 3.0 * mean):
            sf = survival_gain_sq(x, params)
            assert 0.0 <= sf <= 1.0, (m1, m2, x, sf)
            assert math.isclose(sf + cdf_gain_sq(x, params), 1.0,
                                abs_tol=1e-9), (m1, m2, x)


def test_effective_scale_examples():
    assert effective_scale(LinkGeometry(distance=1.0, pathloss_exp=2.0)) == 1.0
    assert effective_scale(LinkGeometry(distance=0.5, pathloss_exp=2.0)) == 4.0
    assert effective_scale(LinkGeometry(distance=2.0, pathloss_exp=0.0)) == 1.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(distance=0.0, pathloss_exp=2.0)
    with pytest.raises(ValueError):
        LinkGeometry(distance=1.0, pathloss_exp=-1.0)
    with pytest.raises(ValueError):
        LinkGeometry(distance=1e-300, pathloss_exp=2.0)
    with pytest.raises(ValueError):
        LinkGeometry(distance=1e200, pathloss_exp=2.0)


def density(x, params):
    """Density of W = X * Y at x > 0 in mpmath, as
    tests/make_reference_values.py forms it."""
    m1, m2, r = mp.mpf(params.m1), mp.mpf(params.m2), mp.mpf(params.rate)
    h = (m1 + m2) / 2
    return (2 * r ** h * x ** (h - 1) * mp.besselk(m1 - m2, 2 * mp.sqrt(r * x))
            / (mp.gamma(m1) * mp.gamma(m2)))


def test_pdf_reference_points():
    assert math.isclose(density(1.0, UNIT), PDF_UNIT_AT_1, rel_tol=1e-12)
    assert math.isclose(density(4.0, MIXED), PDF_MIXED_AT_4, rel_tol=1e-12)
    # the package's distribution function has that density as its slope
    for x, params, want in ((1.0, UNIT, PDF_UNIT_AT_1),
                            (4.0, MIXED, PDF_MIXED_AT_4)):
        h = 1e-4 * x
        slope = (cdf_gain_sq(x + h, params) - cdf_gain_sq(x - h, params)) / (2 * h)
        assert math.isclose(slope, want, rel_tol=1e-6), (x, slope, want)


def test_cdf_reference_points():
    assert math.isclose(cdf_gain_sq(1.0, UNIT), CDF_UNIT_AT_1, abs_tol=1e-8)
    assert math.isclose(cdf_gain_sq(4.0, MIXED), CDF_MIXED_AT_4, abs_tol=1e-8)
    assert math.isclose(cdf_gain_sq(0.5, MIXED), CDF_MIXED_AT_HALF, abs_tol=1e-8)
    assert math.isclose(cdf_gain_sq(1.0, HALF), CDF_HALF_AT_1, abs_tol=1e-8)


def test_survival_reference_points():
    assert math.isclose(survival_gain_sq(1.0, UNIT), SF_UNIT_AT_1, abs_tol=1e-8)
    assert math.isclose(survival_gain_sq(60.0, MIXED), SF_MIXED_AT_60, abs_tol=1e-8)
    assert math.isclose(survival_gain_sq(0.2, TABLE), SF_TABLE_AT_02, abs_tol=1e-8)
    assert math.isclose(survival_gain_sq(0.3, TABLE), SF_TABLE_AT_03, abs_tol=1e-8)
    assert math.isclose(survival_gain_sq(1.5, TABLE), SF_TABLE_AT_15, abs_tol=1e-8)
    # deep tail of unit shapes, through the closed-form Bessel-K sum
    assert math.isclose(survival_gain_sq(120.0, TABLE), SF_TABLE_AT_120, rel_tol=1e-6)
    # deep tail with non-integer shapes (sf < 1e-4): the tail integral
    assert math.isclose(survival_gain_sq(150.0, MIXED), SF_MIXED_AT_150, rel_tol=1e-6)
    # several terms of the Bessel-K sum (shapes 2 and 3), bulk and deep tail
    assert math.isclose(survival_gain_sq(0.75, INT23), SF_INT23_AT_075, rel_tol=1e-12)
    assert math.isclose(survival_gain_sq(100.0, INT23), SF_INT23_AT_100,
                        rel_tol=1e-12)
    # one integer and one non-integer shape, in either order
    swapped = DoubleNakagamiParams(m1=0.75, m2=1.0, omega1=0.25, omega2=0.75)
    for params in (ONE_THREEQ, swapped):
        assert math.isclose(survival_gain_sq(6.0, params), SF_ONE_THREEQ_AT_6,
                            rel_tol=1e-12)


def test_survival_integer_shapes_match_oracle():
    # integer shapes 1..10 against integer and non-integer partners (the
    # latter in both orders), w from 1e-12 out to where sf falls below
    # 1e-15.  The oracle is mpmath's Meijer G form of the product-Gamma
    # tail, G^{3,0}_{1,3}(r w | 1; m1, m2, 0) / (Gamma(m1) Gamma(m2)).
    worst = (0.0, ())
    for n in range(1, 11):
        pairs = [(n, 1.0), (n, 11.0 - n)]
        for other in (0.5, 7.5):
            pairs += [(n, other), (other, n)]
        for m1, m2 in pairs:
            params = DoubleNakagamiParams(m1=m1, m2=m2, omega1=m1, omega2=m2)
            w = 1e-12
            while True:
                with mp.workdps(20):
                    want = (mp.meijerg([[], [1]], [[m1, m2, 0], []], w)
                            / (mp.gamma(m1) * mp.gamma(m2)))
                err = abs(survival_gain_sq(w, params) / float(want) - 1.0)
                worst = max(worst, (err, (m1, m2, w)))
                if want < 1e-15:
                    break
                w *= 10.0 if w > 1e-3 else 1e3
    assert worst[0] <= 1e-12, worst


def test_extreme_arguments_match_oracle():
    # Bessel values that overflow at tiny arguments (order 59.25 at
    # 2 sqrt(45e-12); order 2 at a subnormal threshold) once gave nan or a
    # math domain error.  The closed form now takes such a value as its
    # logarithm; the non-integer shapes take the series there.
    closed_form = ((1e-12, 60.0, 0.75), (1e-12, 0.75, 60.0),
                   (5e-324, 2.0, 3.0), (5e-324, 3.0, 2.0))
    non_integer = ((1e-12, 59.5, 0.75), (1e-12, 70.0, 0.75),
                   (5e-324, 0.5, 0.5), (5e-324, 2.5, 3.5))
    for cases, tol in ((closed_form, 1e-12), (non_integer, 1e-9)):
        for x, m1, m2 in cases:
            params = DoubleNakagamiParams(m1=m1, m2=m2, omega1=1.0, omega2=1.0)
            with mp.workdps(30):
                want = (mp.meijerg([[], [1]], [[m1, m2, 0], []],
                                   mp.mpf(params.rate) * mp.mpf(x))
                        / (mp.gamma(m1) * mp.gamma(m2)))
                want_cdf = float(1 - want)
            sf = survival_gain_sq(x, params)
            cdf = cdf_gain_sq(x, params)
            assert math.isclose(sf, float(want), rel_tol=tol), (x, m1, m2, sf)
            assert abs(cdf - want_cdf) <= tol, (x, m1, m2, cdf)


def test_pdf_integrates_to_one():
    total = float(mp.quad(lambda x: density(x, TABLE) if x > 0 else 0.0,
                          [0, mp.inf]))
    assert math.isclose(total, 1.0, abs_tol=1e-8)


def test_cdf_boundary_values():
    assert cdf_gain_sq(0.0, UNIT) == 0.0
    assert survival_gain_sq(0.0, UNIT) == 1.0
    assert cdf_gain_sq(1e6, UNIT) >= 1.0 - 1e-6
    # a threshold that overflowed to inf is never met, on either route; nor
    # is one whose product with the rate overflows (the Bessel-K sum used
    # to return nan there)
    for params in (UNIT, MIXED):
        assert cdf_gain_sq(math.inf, params) == 1.0
        assert survival_gain_sq(math.inf, params) == 0.0
    steep = DoubleNakagamiParams(m1=1.0, m2=2.0, omega1=1e-100, omega2=1e-100)
    assert cdf_gain_sq(1e200, steep) == 1.0
    assert survival_gain_sq(1e200, steep) == 0.0
    for bad in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            cdf_gain_sq(bad, UNIT)
        with pytest.raises(ValueError):
            survival_gain_sq(bad, UNIT)


def test_cdf_plus_survival_is_one():
    for params in (UNIT, TABLE, MIXED, HALF):
        for x in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0):
            s = cdf_gain_sq(x, params) + survival_gain_sq(x, params)
            assert abs(s - 1.0) <= 1e-12, (params, x, s)
    # far tail.  Unit shapes take 1 - sf from the Bessel-K sum; with
    # non-integer shapes (sf < 1e-4 here) the two sides come from different
    # integrals.
    for params, xs in ((TABLE, (60.0, 120.0, 200.0)), (MIXED, (100.0, 150.0, 200.0))):
        for x in xs:
            s = cdf_gain_sq(x, params) + survival_gain_sq(x, params)
            assert abs(s - 1.0) <= 1e-8, (params, x, s)


def test_cdf_monotone_nondecreasing():
    xs = np.linspace(1e-6, 40.0, 1000)
    prev = 0.0
    for x in xs:
        val = cdf_gain_sq(float(x), TABLE)
        assert val >= prev - 1e-14
        prev = val


def test_unit_shape_closed_form():
    # with both shapes at 1 the cdf collapses to 1 - 2 sqrt(r x) K_1(2 sqrt(r x))
    for params in (UNIT, TABLE):
        r = params.rate
        for i in range(50):
            x = 0.02 + (30.0 - 0.02) * i / 49.0
            z = 2.0 * math.sqrt(r * x)
            closed = 1.0 - z * bessel_k(1.0, z)
            assert abs(cdf_gain_sq(x, params) - closed) <= 1e-8, (params, x)


def test_sampling_matches_cdf_ks():
    rng = np.random.default_rng(7)
    geom = LinkGeometry(distance=1.0, pathloss_exp=2.0)
    n = 100_000
    draws = np.sort(sample_gain_sq(TABLE, geom, rng, size=n))
    grid = np.arange(1, n + 1) / n
    model = np.array([cdf_gain_sq(float(x), TABLE) for x in draws[:: n // 2000]])
    emp = grid[:: n // 2000]
    ks = float(np.max(np.abs(model - emp)))
    assert ks <= 0.006, ks


def test_sampling_mean():
    # E[W] = s * Omega1 * Omega2; unit shapes, both spreads 2, scale 1
    rng = np.random.default_rng(1234)
    geom = LinkGeometry(distance=1.0, pathloss_exp=2.0)
    draws = sample_gain_sq(TABLE, geom, rng, size=10_000_000)
    assert abs(float(np.mean(draws)) - 4.0) <= 0.01


def test_sampling_scale_applies():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    near = LinkGeometry(distance=0.5, pathloss_exp=2.0)
    far = LinkGeometry(distance=1.0, pathloss_exp=2.0)
    a = sample_gain_sq(TABLE, near, rng1, size=1000)
    b = sample_gain_sq(TABLE, far, rng2, size=1000)
    assert np.allclose(a, 4.0 * b)


def test_sampling_ecdf_point():
    rng = np.random.default_rng(4242)
    geom = LinkGeometry(distance=1.0, pathloss_exp=2.0)
    n = 1_000_000
    draws = sample_gain_sq(TABLE, geom, rng, size=n)
    p_hat = float(np.mean(draws <= 1.0))
    p = cdf_gain_sq(1.0, TABLE)
    ci = 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(p_hat - p) <= ci, (p_hat, p, ci)


def test_sampling_deterministic_by_seed():
    geom = LinkGeometry(distance=1.0, pathloss_exp=2.0)
    a = sample_gain_sq(MIXED, geom, np.random.default_rng(5), size=64)
    b = sample_gain_sq(MIXED, geom, np.random.default_rng(5), size=64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("m1, m2", [(1.0, 1.0), (1.5, 2.5), (0.75, 1.25),
                                    (0.5, 7.3)])
def test_sampling_into_given_arrays_keeps_the_bits(m1, m2):
    # a full block, then a 5-sample view of the same block-sized pair, as
    # the Monte Carlo blocks use them
    params = DoubleNakagamiParams(m1=m1, m2=m2, omega1=2.0, omega2=3.0)
    geom = LinkGeometry(distance=0.7, pathloss_exp=2.5)
    s = effective_scale(geom)
    x, y = np.empty(BLOCK), np.empty(BLOCK)
    for size in (BLOCK, 5):
        rng = np.random.default_rng(11)
        ref = rng.gamma(m1, 2.0 / m1, size) * s * rng.gamma(m2, 3.0 / m2, size)
        fresh = sample_gain_sq(params, geom, np.random.default_rng(11), size=size)
        given = sample_gain_sq(params, geom, np.random.default_rng(11), size=size,
                               out=(x[:size], y[:size]))
        assert given.__array_interface__["data"][0] == \
            x.__array_interface__["data"][0]
        assert given.tobytes() == fresh.tobytes() == ref.tobytes()


class RecordingGenerator:
    """A generator that records the names of the samplers called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("size", [BLOCK, 5, None])
@pytest.mark.parametrize("m1, m2", [(1.0, 1.0), (1.0, 2.5), (0.75, 1.0)])
def test_unit_shape_draw_keeps_the_gamma_bits(m1, m2, size):
    # A shape-1 hop is drawn by the exponential sampler.  The reference is
    # the standard_gamma formula, computed here and not stored, so a numpy
    # whose two samplers part ways fails this test.
    params = DoubleNakagamiParams(m1=m1, m2=m2, omega1=2.0, omega2=3.0)
    geom = LinkGeometry(distance=0.7, pathloss_exp=2.5)
    s = effective_scale(geom)
    for seed in (0, 11, 2 ** 63 + 5):
        ref_rng = np.random.default_rng(seed)
        x = ref_rng.standard_gamma(m1, size) * (2.0 / m1)
        y = ref_rng.standard_gamma(m2, size) * (3.0 / m2)
        ref = x * s * y
        rng = RecordingGenerator(np.random.default_rng(seed))
        got = sample_gain_sq(params, geom, rng, size=size)
        assert rng.calls == ["standard_exponential" if m == 1.0
                             else "standard_gamma" for m in (m1, m2)]
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        # the generators are left in the same state
        assert rng.rng.random(3).tobytes() == ref_rng.random(3).tobytes()
