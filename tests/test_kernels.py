"""The scalar kernels against mpmath.

Bessel K on a grid of orders and arguments, and the distribution functions
of the product-Gamma variable on integer and non-integer shape pairs, three
rates and arguments from 1e-8 deep into the upper tail.  The public
``cdf_w``/``sf_w`` are checked together with the private quadrature
``_quad_cdf_sf`` on every pair, so the quadrature stays covered on the
integer pairs too, where the public functions take the Bessel-K sum.  The
oracle for the tail is mpmath's Meijer G form,
P(W > x) = G^{3,0}_{1,3}(r x | 1; m1, m2, 0) / (Gamma(m1) Gamma(m2)).
""",
import math

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


def test_bessel_k_matches_oracle():
    worst = (0.0, None)
    for nu in ORDERS:
        for x in BESSEL_ARGS:
            with mp.workdps(30):
                want = mp.besselk(nu, x)
            err = float(abs(_kernels_py.bessel_k(nu, x) / want - 1))
            worst = max(worst, (err, (nu, x)))
    assert worst[0] <= 1e-12, worst


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
    def oracle(c, m, n):
        with mp.workdps(40):
            c = mp.mpf(c)
            z = 2 * mp.sqrt(c)
            return (2 / mp.gamma(m)
                    * mp.fsum(c ** ((m + k) / mp.mpf(2)) / mp.factorial(k)
                              * mp.besselk(m - k, z) for k in range(n)))

    for c, m1, m2 in ((1.4e5, 64.0, 1.0), (1.4e5, 64.0, 64.0),
                      (2e5, 64.0, 64.0)):
        assert _kernels_py.bessel_k(m1 - 1.0, 2.0 * math.sqrt(c)) == 0.0
        want = oracle(c, m1, int(m2))
        for a, b in ((m1, m2), (m2, m1)):
            got = _kernels_py.sf_w(c, a, b, 1.0)
            assert math.isclose(got, float(want), rel_tol=1e-10), (c, a, b, got)
