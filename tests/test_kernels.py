"""The scalar kernels against mpmath.

Bessel K on a grid of orders and arguments, and the distribution functions
of the product-Gamma variable on integer and non-integer shape pairs, three
rates and arguments from 1e-8 deep into the upper tail.  The public
``cdf_w``/``sf_w`` are checked together with the private quadrature
``_quad_cdf_sf`` on every pair, so the quadrature stays covered on the
pairs where the public functions take the Bessel-K sum, the series or the
Gauss-Laguerre tail.  The oracles are mpmath's Meijer G forms,
P(W > x) = G^{3,0}_{1,3}(r x | 1; m1, m2, 0) / (Gamma(m1) Gamma(m2)) for
the tail and P(W <= x) = G^{2,1}_{1,3}(r x | 1; m1, m2, 0) / (Gamma(m1)
Gamma(m2)) for the lower range, and for the deep tail literals from
``tests/make_reference_values.py``.
"""
import math
import sys

import mpmath as mp
from hypothesis import given, settings, strategies as st

from cachenoma import _kernels_py

ORDERS = (0.0, 0.5, 1.0, 2.25, 3.5)
BESSEL_ARGS = (1e-6, 0.05, 0.8, 2.0, 7.5, 40.0, 300.0)
SHAPES = (
    (1.0, 1.0), (2.0, 1.0), (1.0, 4.0),
    (0.5, 0.5), (3.5, 2.25), (1.5, 2.5), (0.75, 1.25), (2.5, 0.75),
)
RATES = (0.25, 1.0, 4.0)
XS = (1e-8, 0.01, 0.4, 1.3, 6.0, 30.0, 120.0)


def quad_cdf(x, m1, m2, r):
    return _kernels_py._quad_cdf_sf(r * x, m1, m2)[0]


def quad_sf(x, m1, m2, r):
    return _kernels_py._quad_cdf_sf(r * x, m1, m2)[1]


def oracle_sf(x, m1, m2, r):
    with mp.workdps(30):
        return (mp.meijerg([[], [1]], [[m1, m2, 0], []], mp.mpf(r) * mp.mpf(x))
                / (mp.gamma(m1) * mp.gamma(m2)))


def oracle_cdf(c, m1, m2):
    with mp.workdps(30):
        return (mp.meijerg([[1], []], [[m1, m2], [0]], mp.mpf(c))
                / (mp.gamma(m1) * mp.gamma(m2)))


def oracle_bessel_sum(c, m, n):
    """The Bessel-K sum for integer shape n, in 40-digit arithmetic."""
    with mp.workdps(40):
        c = mp.mpf(c)
        z = 2 * mp.sqrt(c)
        return (2 / mp.gamma(m)
                * mp.fsum(c ** ((m + k) / mp.mpf(2)) / mp.factorial(k)
                          * mp.besselk(m - k, z) for k in range(n)))


def route(c, m1, m2):
    """The route ``_cdf_sf`` takes at 0 < c < inf."""
    if _kernels_py._integer_shape_sf(c, m1, m2) is not None:
        return "bessel-k sum"
    if _kernels_py._series_cdf_sf(c, m1, m2) is not None:
        return "series" if (m1 - m2) % 1.0 else "integer-order series"
    if c > m1 * m2 and _kernels_py._laguerre_sf(c, m1, m2) is not None:
        return "laguerre tail"
    return "lower quadrature" if c <= m1 * m2 else "tail quadrature"


def test_bessel_k_matches_oracle():
    worst = (0.0, None)
    for nu in ORDERS:
        for x in BESSEL_ARGS:
            with mp.workdps(30):
                want = mp.besselk(nu, x)
            err = float(abs(_kernels_py.bessel_k(nu, x) / want - 1))
            worst = max(worst, (err, (nu, x)))
    assert worst[0] <= 1e-12, worst


def test_scaled_bessel_k_matches_oracle():
    # e^x K_nu(x); K itself underflows at x = 800
    assert _kernels_py.bessel_k(1.0, 800.0) == 0.0
    for nu in ORDERS + (9.5,):
        for x in (0.5, 3.0, 40.0, 800.0):
            with mp.workdps(30):
                want = mp.exp(x) * mp.besselk(nu, x)
            got = _kernels_py.bessel_k(nu, x, scaled=True)
            assert float(abs(got / want - 1)) <= 1e-13, (nu, x, got)


def test_cdf_w_matches_oracle():
    worst = {}
    for m1, m2 in SHAPES:
        for r in RATES:
            for x in XS:
                with mp.workdps(30):
                    want = 1 - oracle_sf(x, m1, m2, r)
                for f in (_kernels_py.cdf_w, quad_cdf):
                    err = float(abs(f(x, m1, m2, r) - want))
                    worst[f.__name__] = max(worst.get(f.__name__, (0.0,)),
                                            (err, (m1, m2, r, x)))
    assert all(err <= 1e-9 for err, _ in worst.values()), worst


def test_sf_w_matches_oracle():
    # relative error, so the deep tail (the Bessel-K sum, or the direct
    # tail integral) counts
    worst = {}
    for m1, m2 in SHAPES:
        for r in RATES:
            for x in XS:
                want = oracle_sf(x, m1, m2, r)
                for f in (_kernels_py.sf_w, quad_sf):
                    err = float(abs(f(x, m1, m2, r) / want - 1))
                    worst[f.__name__] = max(worst.get(f.__name__, (0.0,)),
                                            (err, (m1, m2, r, x)))
    assert all(err <= 1e-6 for err, _ in worst.values()), worst


def test_log_bessel_k_where_bessel_k_overflows():
    for nu, x in ((59.25, 1.3e-5), (100.5, 1e-3), (2.0, 1e-161), (200.0, 0.5)):
        assert math.isinf(_kernels_py.bessel_k(nu, x))
        with mp.workdps(30):
            want = mp.log(mp.besselk(nu, x))
        assert math.isclose(_kernels_py.log_bessel_k(nu, x), float(want),
                            rel_tol=1e-14)
    # in range it agrees with the plain recurrence
    for nu, x in ((0.25, 7.5), (3.0, 1e-6), (9.5, 30.0)):
        assert math.isclose(_kernels_py.log_bessel_k(nu, x),
                            math.log(_kernels_py.bessel_k(nu, x)), rel_tol=1e-14)


def test_pdf_w_where_the_bessel_factor_overflows():
    # K_{m1-m2} overflows at the first three arguments while v^(h-1)
    # underflows; the density is formed in log space instead of as 0 * inf.
    # The last argument is the smallest subnormal
    for v, m1, m2 in ((1e-12, 60.0, 0.75), (1e-12, 59.5, 0.75),
                      (1e-200, 30.5, 0.5), (5e-324, 0.5, 0.5)):
        h = 0.5 * (m1 + m2)
        with mp.workdps(30):
            vm = mp.mpf(v)
            want = (2 * vm ** (h - 1) * mp.besselk(m1 - m2, 2 * mp.sqrt(vm))
                    / (mp.gamma(m1) * mp.gamma(m2)))
        got = _kernels_py.pdf_w(v, m1, m2)
        assert math.isclose(got, float(want), rel_tol=1e-11), (v, m1, m2, got)


def test_quadrature_far_above_the_mean():
    # every node of an integral over (0, sqrt(c)] misses the mass this far
    # out, so only the tail integral gets sf = 0 here.  From c ~ 3e303 on,
    # c / t**2 overflows at some nodes where the density has underflowed
    for m1, m2 in SHAPES:
        if m1.is_integer() or m2.is_integer():
            continue
        for c in (1e7, 1e12, 1e300, 1e305, 1e308, 1.7e308):
            assert _kernels_py.sf_w(c, m1, m2, 1.0) == 0.0, (m1, m2, c)
            assert _kernels_py.cdf_w(c, m1, m2, 1.0) == 1.0, (m1, m2, c)
        for r in RATES:
            sfs = [_kernels_py.sf_w(10.0 ** (k / 4), m1, m2, r)
                   for k in range(1201)]
            assert all(b <= a for a, b in zip(sfs, sfs[1:])), (m1, m2, r)


SHAPE_VALUES = st.one_of(st.integers(1, 8).map(float),
                         st.floats(0.5, 6.0).filter(lambda m: not m.is_integer()))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(m1=SHAPE_VALUES, m2=SHAPE_VALUES, r=st.floats(0.05, 20.0),
       x=st.floats(1e-6, 60.0))
def test_routes_are_invariant(m1, m2, r, x):
    # swapping the shapes leaves both routes unchanged.  With two integer
    # shapes the Bessel-K sum runs over the other shape, so the two orders
    # agree to its rounding (a few 1e-14 relative) only: relatively for sf,
    # absolutely for cdf = 1 - sf
    sf, swapped = _kernels_py.sf_w(x, m1, m2, r), _kernels_py.sf_w(x, m2, m1, r)
    assert math.isclose(sf, swapped, rel_tol=1e-12), (sf, swapped)
    assert abs(_kernels_py.cdf_w(x, m1, m2, r)
               - _kernels_py.cdf_w(x, m2, m1, r)) <= 1e-13
    c = r * x
    assert _kernels_py._quad_cdf_sf(c, m1, m2) == _kernels_py._quad_cdf_sf(c, m2, m1)
    # at an integer shape the Bessel-K sum agrees with the quadrature
    if m1.is_integer() or m2.is_integer():
        if sf > 1e-12:
            quad = quad_sf(x, m1, m2, r)
            assert abs(quad / sf - 1.0) <= 1e-6, (sf, quad)


def test_integer_shape_sum_where_bessel_k_underflows():
    # 2 sqrt(c) > 745, so every K_{m-k}(2 sqrt(c)) of the sum underflows to
    # 0 while the survival value is still a normal float
    for c, m1, m2 in ((1.4e5, 64.0, 1.0), (1.4e5, 64.0, 64.0),
                      (2e5, 64.0, 64.0)):
        assert _kernels_py.bessel_k(m1 - 1.0, 2.0 * math.sqrt(c)) == 0.0
        want = oracle_bessel_sum(c, m1, int(m2))
        for a, b in ((m1, m2), (m2, m1)):
            got = _kernels_py.sf_w(c, a, b, 1.0)
            assert math.isclose(got, float(want), rel_tol=1e-10), (c, a, b, got)


def test_integer_shape_sum_where_bessel_k_is_subnormal():
    # 709 < 2 sqrt(c) < 745: some K_{m-k}(2 sqrt(c)) of the sum are
    # subnormal, with only a few significant bits left
    for c in (1.3e5, 1.33e5, 1.36e5):
        assert 0.0 < _kernels_py.bessel_k(63.0, 2.0 * math.sqrt(c)) \
            < sys.float_info.min
        want = float(oracle_bessel_sum(c, 64.0, 64))
        got = _kernels_py.sf_w(c, 64.0, 64.0, 1.0)
        assert math.isclose(got, want, rel_tol=1e-12), (c, got, want)


SERIES_SHAPES = (
    (0.75, 1.25), (1.5, 2.5), (3.5, 2.25), (0.6, 7.3), (0.5, 0.5),
    (2.5, 0.75), (1.5, 3.5), (0.7, 3.7),
)
# orders within 1e-4, 1e-7 and 1e-5 of an integer
NEAR_INTEGER_SHAPES = ((1.5, 2.4999), (1.5, 2.4999999), (0.5, 0.50001))
SERIES_CS = (1e-8, 1e-3, 0.05, 0.4, 1.3, 3.0, 6.0, 12.0, 30.0)
# (c, m1, m2) above the mean where the 16- and 10-point Laguerre rules
# disagree: large shapes near the mean, and small shapes whose order lies
# 1e-7 from an integer
LAGUERRE_FALLBACKS = [(1300.0, 30.5, 40.25), (0.05, 0.1, 0.1000001)]


def test_series_matches_oracle():
    # wherever the series' error bound keeps it, both cdf and sf are within
    # the quadrature's relative tolerance of the oracle; at the same points
    # the quadrature is held to the tolerances of the tests above
    taken = {}
    for m1, m2 in SERIES_SHAPES + NEAR_INTEGER_SHAPES:
        for c in SERIES_CS:
            want_cdf, want_sf = oracle_cdf(c, m1, m2), oracle_sf(c, m1, m2, 1.0)
            got = _kernels_py._series_cdf_sf(c, m1, m2)
            if got is not None:
                taken.setdefault((m1, m2), []).append(c)
                assert float(abs(got[0] / want_cdf - 1)) <= 1e-9, (m1, m2, c)
                assert float(abs(got[1] / want_sf - 1)) <= 1e-9, (m1, m2, c)
            cdf, sf = _kernels_py._quad_cdf_sf(c, m1, m2)
            assert float(abs(cdf - want_cdf)) <= 1e-9, (m1, m2, c)
            assert float(abs(sf / want_sf - 1)) <= 1e-6, (m1, m2, c)
    # the series covers every c up to 5 away from an integer order, and at
    # least the smallest c next to one
    for pair in SERIES_SHAPES:
        assert all(c in taken[pair] for c in SERIES_CS if c <= 5.0), pair
    for pair in NEAR_INTEGER_SHAPES:
        assert SERIES_CS[0] in taken[pair], pair


def test_series_keeps_small_cdf_values_relatively_precise():
    # the lower integral converges to its absolute tolerance only, 2e-5
    # relative here; the series keeps about 1e-14
    for c in (1e-3, 1.0):
        assert route(c, 30.5, 40.25) == "series"
        want = oracle_cdf(c, 30.5, 40.25)
        got = _kernels_py.cdf_w(c, 30.5, 40.25, 1.0)
        assert float(abs(got / want - 1)) <= 1e-12, (c, got, want)


def test_small_cdf_of_integer_shapes_is_relatively_precise():
    # 1 minus the Bessel-K sum is precise only to about 1e-16 absolute, far
    # above the cdf of 2.5e-21 at (2, 3), c = 1e-10.  Below the mean cdf_w
    # takes the series first; sf_w keeps the sum.
    for m1, m2 in ((2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (60.0, 0.75),
                   (1.0, 4.0)):
        for c in (1e-10, 1e-4, 0.3):
            want = oracle_cdf(c, m1, m2)
            got = _kernels_py.cdf_w(c, m1, m2, 1.0)
            assert float(abs(got / want - 1)) <= 1e-9, (m1, m2, c, got, want)
            assert _kernels_py.sf_w(c, m1, m2, 1.0) \
                == _kernels_py._integer_shape_sf(c, m1, m2)


def test_quadrature_runs_unchanged_where_the_series_bound_fails(monkeypatch):
    calls = []
    quad = _kernels_py._quad_cdf_sf

    def recorded(c, m1, m2):
        calls.append((c, m1, m2))
        return quad(c, m1, m2)

    monkeypatch.setattr(_kernels_py, "_quad_cdf_sf", recorded)
    # small c: the series, and no quadrature
    for c, m1, m2 in ((1.0, 0.75, 1.25), (1.0, 1.5, 2.5)):
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) \
            == _kernels_py._series_cdf_sf(c, m1, m2)
    assert calls == []
    # large c: the Gauss-Laguerre tail, and no quadrature
    assert _kernels_py._series_cdf_sf(30.0, 0.75, 1.25) is None
    sf = _kernels_py._laguerre_sf(30.0, 0.75, 1.25)
    assert _kernels_py._cdf_sf(30.0, 0.75, 1.25, 1.0) == (1.0 - sf, sf)
    assert calls == []
    # an order 1e-7 from an integer below the mean, and large shapes just
    # above it where the Laguerre rules disagree: the quadrature's own value
    for c, m1, m2 in ((1.0, 1.5, 2.4999999), (1300.0, 30.5, 40.25)):
        assert _kernels_py._series_cdf_sf(c, m1, m2) is None
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) == quad(c, m1, m2)
    assert calls == [(1.0, 1.5, 2.4999999), (1300.0, 30.5, 40.25)]


def test_cdf_plus_sf_is_one_on_every_route():
    seen = set()
    points = [(c, m1, m2) for m1, m2 in SHAPES + NEAR_INTEGER_SHAPES
              for c in SERIES_CS + (120.0,)]
    for c, m1, m2 in points + LAGUERRE_FALLBACKS:
        seen.add(route(c, m1, m2))
        cdf, sf = _kernels_py._cdf_sf(c, m1, m2, 1.0)
        assert abs(cdf + sf - 1.0) <= sys.float_info.epsilon, (m1, m2, c)
    assert seen == {"bessel-k sum", "series", "integer-order series",
                    "laguerre tail", "lower quadrature", "tail quadrature"}


def _handoff(inside, outside, accepted):
    """Bisect in log space to a pair of arguments 1e-12 apart (relatively)
    on either side of the series' handoff to quadrature."""
    assert accepted(inside) and not accepted(outside)
    while abs(outside / inside - 1.0) > 1e-12:
        mid = math.sqrt(inside * outside)
        if accepted(mid):
            inside = mid
        else:
            outside = mid
    return inside, outside


def _assert_no_jump(series_side, quad_side):
    cdf, sf = series_side
    tol = max(_kernels_py._ABS_TOL, _kernels_py._REL_TOL * min(cdf, sf))
    assert abs(cdf - quad_side[0]) <= tol, (series_side, quad_side)
    assert abs(sf - quad_side[1]) <= tol, (series_side, quad_side)


def test_no_jump_at_the_series_handoff():
    # in c, as the cancellation grows
    for m1, m2 in SERIES_SHAPES + ((30.5, 40.25),):
        c_in, c_out = _handoff(
            1e-3, 1e3, lambda c: _kernels_py._series_cdf_sf(c, m1, m2) is not None)
        # the next route: the Laguerre tail above the mean, else quadrature
        assert route(c_out, m1, m2) == (
            "laguerre tail" if c_out > m1 * m2 else "lower quadrature")
        _assert_no_jump(_kernels_py._cdf_sf(c_in, m1, m2, 1.0),
                        _kernels_py._cdf_sf(c_out, m1, m2, 1.0))
    # in c, where the Laguerre rules start to agree above the mean
    for c, m1, m2 in LAGUERRE_FALLBACKS:
        c_in, c_out = _handoff(
            1e4, c, lambda c: _kernels_py._laguerre_sf(c, m1, m2) is not None)
        assert route(c_out, m1, m2) == "tail quadrature"
        _assert_no_jump(_kernels_py._cdf_sf(c_in, m1, m2, 1.0),
                        _kernels_py._cdf_sf(c_out, m1, m2, 1.0))
    # in the distance of the order from an integer
    for m1, m2 in ((1.5, 2.5), (0.5, 0.5), (0.75, 2.75)):
        for c in (0.3, 1.0, 3.0):
            d_in, d_out = _handoff(
                1e-2, 1e-12,
                lambda d: _kernels_py._series_cdf_sf(c, m1, m2 - d) is not None)
            _assert_no_jump(_kernels_py._cdf_sf(c, m1, m2 - d_in, 1.0),
                            _kernels_py._cdf_sf(c, m1, m2 - d_out, 1.0))


# P(V > c) of the unit-rate variable from tests/make_reference_values.py
DEEP_TAIL_SF = {
    (1.5, 2.5, 1e3): 3.01956631238762175e-24,
    (1.5, 2.5, 1e4): 2.11222885920105571e-82,
    (1.5, 2.5, 1e5): 5.72032170388145306e-269,
    (0.75, 1.25, 1e3): 3.08438710105083166e-27,
    (0.75, 1.25, 1e4): 2.21388659310111774e-86,
    (0.75, 1.25, 1e5): 6.04456955590638453e-274,
    (5.5, 0.6, 1e3): 7.96879916915024249e-23,
    (5.5, 0.6, 1e4): 5.41410111354711495e-80,
    (5.5, 0.6, 1e5): 1.57080891343973047e-265,
    (0.3, 0.45, 1e3): 7.59661277436322384e-30,
    (0.3, 0.45, 1e4): 1.31178181579802906e-89,
    (0.3, 0.45, 1e5): 8.53259806787048656e-278,
    (30.5, 40.25, 1e3): 0.769953673213765095,
    (30.5, 40.25, 1e4): 6.05453724214537874e-27,
    (30.5, 40.25, 1e5): 2.4660110821034133e-180,
}


def test_deep_tail_keeps_relative_precision():
    # an adaptive tail integral held to an absolute floor is 1.4e-3 off at
    # c = 1e4 and 5e-2 at 1e5
    for (m1, m2, c), want in DEEP_TAIL_SF.items():
        got = _kernels_py.sf_w(c, m1, m2, 1.0)
        assert math.isclose(got, want, rel_tol=1e-12), (m1, m2, c, got, want)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(m1=st.integers(1, 64).map(float), m2=st.integers(1, 64).map(float))
def test_laguerre_tail_matches_the_bessel_k_sum(m1, m2):
    # the Laguerre formula holds at integer shapes too, where the Bessel-K
    # sum is exact; from the mean out to where sf leaves the normal floats
    c = m1 * m2
    while True:
        want = _kernels_py._integer_shape_sf(c, m1, m2)
        if want < sys.float_info.min:
            break
        got = _kernels_py._laguerre_sf(c, m1, m2)
        assert got == _kernels_py._laguerre_sf(c, m2, m1), (m1, m2, c)
        if got is not None:
            assert math.isclose(got, want, rel_tol=1e-12), \
                (m1, m2, c, got, want)
        else:
            # only near the mean does the error check reject the rule
            assert c < 16.0 * m1 * m2, (m1, m2, c)
        c *= 4.0


def test_laguerre_tail_falls_back_to_quadrature(monkeypatch):
    calls = []
    quad = _kernels_py._quad_cdf_sf

    def recorded(c, m1, m2):
        calls.append((c, m1, m2))
        return quad(c, m1, m2)

    monkeypatch.setattr(_kernels_py, "_quad_cdf_sf", recorded)
    # the last point is a large shape, where the power factor of the rule
    # overflows at the outer nodes: no OverflowError, the quadrature runs
    points = LAGUERRE_FALLBACKS + [(7500.46875, 1.5, 4000.25)]
    for c, m1, m2 in points:
        assert c > m1 * m2
        assert _kernels_py._series_cdf_sf(c, m1, m2) is None
        assert _kernels_py._laguerre_sf(c, m1, m2) is None
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) == quad(c, m1, m2)
    assert calls == points


def test_laguerre_node_tables():
    import numpy as np

    # an n-point rule integrates x^k e^-x exactly for k <= 2n - 1
    for n, nodes, weights in ((16, _kernels_py._XGL16, _kernels_py._WGL16),
                              (10, _kernels_py._XGL10, _kernels_py._WGL10)):
        assert len(nodes) == len(weights) == n
        for k in range(2 * n):
            got = math.fsum(w * x ** k for x, w in zip(nodes, weights))
            assert math.isclose(got, math.factorial(k), rel_tol=1e-13), (n, k)
        # numpy's weights come out of a normalisation and sit up to about
        # 150 ulps from the correctly rounded ones held here; its nodes
        # within a few ulps
        want_x, want_w = np.polynomial.laguerre.laggauss(n)
        for x, w, wx, ww in zip(nodes, weights, want_x, want_w):
            assert abs(x - wx) <= 8 * np.spacing(wx), (n, x, wx)
            assert math.isclose(w, ww, rel_tol=1e-13), (n, w, ww)
