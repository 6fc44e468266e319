"""The scalar kernels against mpmath.

Bessel K on a grid of orders and arguments, and the distribution functions
of the product-Gamma variable on integer and non-integer shape pairs, three
rates and arguments from 1e-8 deep into the upper tail.  The public
``cdf_w``/``sf_w`` are checked together with the private Gauss-Hermite
route ``_hermite_cdf_sf`` wherever its own check keeps its value, so that
route stays covered on the pairs where the public functions take the
Bessel-K sum or the series.  The oracles are mpmath's Meijer G forms,
P(W > x) = G^{3,0}_{1,3}(r x | 1; m1, m2, 0) / (Gamma(m1) Gamma(m2)) for
the tail and P(W <= x) = G^{2,1}_{1,3}(r x | 1; m1, m2, 0) / (Gamma(m1)
Gamma(m2)) for the lower range, and for the deep tail literals from
``tests/make_reference_values.py``.
"""
import math
import random
import sys

import mpmath as mp
from hypothesis import given, settings, strategies as st

from cachenoma import _kernels_py
from cachenoma.channel import bessel_k

ORDERS = (0.0, 0.5, 1.0, 2.25, 3.5)
BESSEL_ARGS = (1e-6, 0.05, 0.8, 2.0, 7.5, 40.0, 300.0)
SHAPES = (
    (1.0, 1.0), (2.0, 1.0), (1.0, 4.0),
    (0.5, 0.5), (3.5, 2.25), (1.5, 2.5), (0.75, 1.25), (2.5, 0.75),
)
RATES = (0.25, 1.0, 4.0)
XS = (1e-8, 0.01, 0.4, 1.3, 6.0, 30.0, 120.0)


def hermite(c, m1, m2, upper=None):
    """(P(V <= c), P(V > c)) by the Gauss-Hermite route, averaging the
    survival side when ``upper`` (by default when c is above the mean), or
    None where no pair of its rules agrees."""
    if upper is None:
        upper = c > m1 * m2
    cdf, sf, err = _kernels_py._hermite_cdf_sf(c, m1, m2, upper)
    return (cdf, sf) if err <= _kernels_py._REL_TOL * min(cdf, sf) else None


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


def oracle_tail_sf(c, m1, m2):
    """P(V > c) from its tail integral in z = 2 sqrt(v), taken relative to
    the integrand's size at the lower end z0 (as ``sf_unit`` in
    tests/make_reference_values.py), so it holds far below the floats."""
    with mp.workdps(30):
        z0, p = 2 * mp.sqrt(c), mp.mpf(m1) + m2 - 1
        integral = mp.quad(
            lambda t: (1 + t / z0) ** p * mp.besselk(m1 - m2, z0 + t)
            * mp.exp(z0), [0, 1, 5, 20, 60, 200, mp.inf])
        return (4 ** ((1 - p) / 2) * z0 ** p * mp.exp(-z0) * integral
                / (mp.gamma(m1) * mp.gamma(m2)))


def route(c, m1, m2):
    """The route ``_cdf_sf`` takes at 0 < c < inf."""
    if _kernels_py._integer_shape_sf(c, m1, m2) is not None:
        return "bessel-k sum"
    if _kernels_py._series_cdf_sf(c, m1, m2) is not None:
        return "series"
    if _kernels_py._sf_underflows(c, m1, m2):
        return "far-tail bound"
    if hermite(c, m1, m2) is not None:
        return "hermite"
    if hermite(c, m1, m2, c <= m1 * m2) is not None:
        return "hermite, other average"
    return "none"


ALL_ROUTES = {"bessel-k sum", "series", "far-tail bound", "hermite",
              "hermite, other average"}


def test_bessel_k_matches_oracle():
    worst = (0.0, ())
    for nu in ORDERS:
        for x in BESSEL_ARGS:
            with mp.workdps(30):
                want = mp.besselk(nu, x)
            err = float(abs(_kernels_py.bessel_k(nu, x) / want - 1))
            worst = max(worst, (err, (nu, x)))
    assert worst[0] <= 1e-12, worst


def test_scaled_bessel_k_matches_oracle():
    # the ladder runs on e^x K_nu(x) and keeps K's relative precision where K
    # itself underflows (x = 800): its log is within 1e-13 of ln K
    assert _kernels_py.bessel_k(1.0, 800.0) == 0.0
    for nu in ORDERS + (9.5,):
        for x in (0.5, 3.0, 40.0, 800.0):
            [got], _ = _kernels_py._log_k_ladder(nu, x, 1)
            with mp.workdps(30):
                err = float(abs(mp.mpf(got) - mp.log(mp.besselk(nu, x))))
            assert err <= 1e-13, (nu, x, got)


def test_gamma_pair_matches_oracle():
    # Temme's G1 and G2 and 1/Gamma(1 +- mu), all from one Taylor table of
    # 1/Gamma(1+z), within 4 u of mpmath over [-1/2, 1/2].  A difference
    # quotient for G1 above |mu| = 0.1 was 92 u off at 0.1075
    with mp.workdps(40):
        table = mp.taylor(lambda z: mp.rgamma(1 + z), 0, 21)
    assert _kernels_py._RGAMMA_TAYLOR == tuple(map(float, table))
    rng = random.Random(24)
    mus = [rng.uniform(-0.5, 0.5) for _ in range(400)]
    for mu in (1e-9, 0.1, 0.1006185, 0.1036, 0.1075, 0.5):
        mus += [mu, -mu]
    for mu in mus + [0.0]:
        with mp.workdps(40):
            m = mp.mpf(mu)
            inv_p, inv_m = mp.rgamma(1 + m), mp.rgamma(1 - m)
            g1 = (inv_m - inv_p) / (2 * m) if mu else -mp.euler
            want = (g1, (inv_m + inv_p) / 2, inv_p, inv_m)
            errs = [float(abs(got / w - 1)) / _kernels_py._U
                    for got, w in zip(_kernels_py._gamma_pair(mu), want)]
        assert max(errs) <= 4.0, (mu, errs)


def test_bessel_start_matches_oracle():
    # the start pair e^x K_mu(x), e^x K_(mu+1)(x), mu in [-1/2, 1/2], on both
    # sides of the switch at x = 2, within the one budget of 128 + 2 |ln x| u
    # that _integer_shape_sf's bound charges for it (Temme's series took
    # 1242 u at x = 2 here while G1 was a difference quotient); the
    # trapezoidal rule above x = 2 stays within 32 u.  Then the worst two
    # points of a scan near x = 2 (83 u and 79 u, where Temme's sum for K_mu
    # cancels most), and 200 random (mu, x), x from 1e-160 (about the least
    # the sum reaches) to 2500
    worst = {"temme": (0.0,), "rule": (0.0,)}
    xs = [10.0 ** (k / 4) for k in range(-24, 14)] + [2500.0, 2.0 - 1e-12,
                                                      2.0, 2.0 + 1e-12]
    nus = [k / 8 for k in range(9)] + [0.5625, 0.75, 0.875, 0.1006185,
                                       0.1036, 1.0 - 0.1006185]
    rng = random.Random(5)
    points = [(nu, x) for nu in nus for x in xs] + [
        (0.4498678940126021, 1.9472647661030624),
        (0.5000340707899158, 1.9543538963537286)] + [
        (rng.uniform(0.0, 3.0),
         10.0 ** rng.uniform(-8.0 if i % 4 else -160.0, math.log10(2500.0)))
        for i in range(200)]
    for nu, x in points:
        mu, nl, k0, k1 = _kernels_py._start(nu, x)
        assert nl + mu == nu and abs(mu) <= 0.5
        with mp.workdps(30):
            ex = mp.exp(x)
            errs = [abs(k / (ex * mp.besselk(mu + i, x)) - 1)
                    for i, k in enumerate((k0, k1))]
        err = float(max(errs)) / _kernels_py._U
        side = "temme" if x <= 2.0 else "rule"
        worst[side] = max(worst[side], (
            err / (128.0 + 2.0 * abs(math.log(x))), err, (mu, x)))
    assert worst["temme"][0] < 1.0 and worst["rule"][0] < 1.0, worst
    assert worst["rule"][1] <= 32.0, worst


def test_cdf_w_matches_oracle():
    worst = {}
    for m1, m2 in SHAPES:
        for r in RATES:
            for x in XS:
                with mp.workdps(30):
                    want = 1 - oracle_sf(x, m1, m2, r)
                got = {"cdf_w": _kernels_py.cdf_w(x, m1, m2, r)}
                kept = hermite(r * x, m1, m2)
                if kept is not None:
                    got["hermite"] = kept[0]
                for name, value in got.items():
                    err = float(abs(value - want))
                    worst[name] = max(worst.get(name, (0.0,)),
                                      (err, (m1, m2, r, x)))
    assert set(worst) == {"cdf_w", "hermite"}
    assert all(err <= 1e-9 for err, _ in worst.values()), worst


def test_sf_w_matches_oracle():
    # relative error, so the deep tail (the Bessel-K sum, or the
    # Gauss-Hermite rule) counts
    worst = {}
    for m1, m2 in SHAPES:
        for r in RATES:
            for x in XS:
                want = oracle_sf(x, m1, m2, r)
                got = {"sf_w": _kernels_py.sf_w(x, m1, m2, r)}
                kept = hermite(r * x, m1, m2)
                if kept is not None:
                    got["hermite"] = kept[1]
                for name, value in got.items():
                    err = float(abs(value / want - 1))
                    worst[name] = max(worst.get(name, (0.0,)),
                                      (err, (m1, m2, r, x)))
    assert set(worst) == {"sf_w", "hermite"}
    assert all(err <= 1e-6 for err, _ in worst.values()), worst


def test_bessel_ladder_where_bessel_k_overflows():
    # the ladder rescales its pair by 2^-e where it would overflow (small x,
    # high order), and scale = x + e ln 2 counts the factors taken off
    for nu, x in ((59.25, 1.3e-5), (100.5, 1e-3), (2.0, 1e-161), (200.0, 0.5)):
        assert math.isinf(bessel_k(nu, x))
        with mp.workdps(30):
            want = mp.log(mp.besselk(nu, x))
        [got], scale = _kernels_py._log_k_ladder(nu, x, 1)
        e = round((scale - x) / _kernels_py._LN2)
        assert e > 0 and scale == e * _kernels_py._LN2 + x
        assert math.isclose(got, float(want), rel_tol=1e-14)
    # in range only e^x is taken off, and it agrees with mpmath order by order
    for nu, x in ((0.25, 7.5), (3.0, 1e-6), (9.5, 30.0)):
        ladder, scale = _kernels_py._log_k_ladder(nu, x, 4)
        assert len(ladder) == 4 and scale == x
        for i, got in enumerate(ladder):
            with mp.workdps(30):
                want = mp.log(mp.besselk(nu + i, x))
            assert math.isclose(got, float(want), rel_tol=1e-14)


def test_quadrature_far_above_the_mean():
    # the far-tail bound gets sf = 0 this far out, with no overflow, on
    # integer shapes too, where the Bessel-K sum refuses the subnormals
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
    for m1, m2 in ((0.5, 0.5), (1.5, 2.5), (30.5, 40.25), (99.5, 0.75),
                   (1.0, 1.0), (100.0, 100.0)):
        for c in (1e17, 1e30, 1e100, 1e300, 1.7e308):
            assert _kernels_py.sf_w(c, m1, m2, 1.0) == 0.0, (m1, m2, c)
            assert _kernels_py.cdf_w(c, m1, m2, 1.0) == 1.0, (m1, m2, c)


def test_far_tail_bound_is_sound():
    # where the far-tail bound first answers 0, the Chernoff bound behind it
    # lies above P(V > c) and, in exact arithmetic, below half the least
    # subnormal 2^-1074
    for m1, m2 in ((0.5, 0.5), (1.5, 2.5), (99.5, 0.75), (100.0, 100.0)):
        c, _ = _handoff(1e7, 1e5,
                        lambda c: _kernels_py._sf_underflows(c, m1, m2))
        with mp.workdps(30):
            z = mp.sqrt(c)
            bound = sum((z / m) ** m * mp.exp(m - z) for m in (m1, m2))
            assert oracle_tail_sf(c, m1, m2) < bound < mp.mpf(2) ** -1075, \
                (m1, m2, c)


SHAPE_VALUES = st.one_of(st.integers(1, 8).map(float),
                         st.floats(0.5, 6.0).filter(lambda m: not m.is_integer()))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(m1=SHAPE_VALUES, m2=SHAPE_VALUES, r=st.floats(0.05, 20.0),
       x=st.floats(1e-6, 60.0))
def test_routes_are_invariant(m1, m2, r, x):
    # swapping the shapes leaves every route unchanged.  With two integer
    # shapes the Bessel-K sum runs over the other shape, so the two orders
    # agree to its rounding (a few 1e-14 relative) only: relatively for sf,
    # absolutely for cdf = 1 - sf
    sf, swapped = _kernels_py.sf_w(x, m1, m2, r), _kernels_py.sf_w(x, m2, m1, r)
    assert math.isclose(sf, swapped, rel_tol=1e-12), (sf, swapped)
    assert abs(_kernels_py.cdf_w(x, m1, m2, r)
               - _kernels_py.cdf_w(x, m2, m1, r)) <= 1e-13
    c = r * x
    for upper in (False, True):
        assert _kernels_py._hermite_cdf_sf(c, m1, m2, upper) \
            == _kernels_py._hermite_cdf_sf(c, m2, m1, upper)
    # at an integer shape the Bessel-K sum agrees with the oracle
    if m1.is_integer() or m2.is_integer():
        if sf > 1e-12:
            want = float(oracle_sf(x, m1, m2, r))
            assert abs(sf / want - 1.0) <= 1e-9, (sf, want)


def test_integer_shape_sum_where_bessel_k_underflows():
    # 2 sqrt(c) > 745, so every K_{m-k}(2 sqrt(c)) of the sum underflows to
    # 0 while the survival value is still a normal float: the ladders start
    # from e^x K
    for c, m1, m2 in ((1.4e5, 64.0, 1.0), (1.4e5, 64.0, 64.0),
                      (2e5, 64.0, 64.0), (2e5, 100.0, 100.0),
                      (2e5, 100.0, 1.0)):
        assert _kernels_py.bessel_k(m1 - 1.0, 2.0 * math.sqrt(c)) == 0.0
        want = oracle_bessel_sum(c, m1, int(m2))
        for a, b in ((m1, m2), (m2, m1)):
            got = _kernels_py.sf_w(c, a, b, 1.0)
            assert math.isclose(got, float(want), rel_tol=1e-10), (c, a, b, got)


def test_integer_shape_sum_where_bessel_k_is_subnormal():
    # 709 < 2 sqrt(c) < 745: some K_{m-k}(2 sqrt(c)) of the sum are
    # subnormal, with only a few significant bits left
    for m1, m2 in ((64.0, 64.0), (100.0, 100.0), (100.0, 1.0)):
        for c in (1.3e5, 1.33e5, 1.36e5):
            assert 0.0 < _kernels_py.bessel_k(m1 - 1.0, 2.0 * math.sqrt(c)) \
                < sys.float_info.min
            want = float(oracle_bessel_sum(c, m1, int(m2)))
            got = _kernels_py.sf_w(c, m1, m2, 1.0)
            assert math.isclose(got, want, rel_tol=1e-12), (m1, m2, c, got)


SERIES_SHAPES = (
    (0.75, 1.25), (1.5, 2.5), (3.5, 2.25), (0.6, 7.3), (0.5, 0.5),
    (2.5, 0.75), (1.5, 3.5), (0.7, 3.7),
)
# orders within 1e-4, 1e-7, 1e-5 and 1e-5 of an integer
NEAR_INTEGER_SHAPES = ((1.5, 2.4999), (1.5, 2.4999999), (0.5, 0.50001),
                       (1.5, 2.50001))
# orders 0.1036, 0.1036 and 0.1006 from an integer, where G1 was once a
# difference quotient
NEAR_POINT_ONE_SHAPES = ((1.5, 2.6036), (0.75, 1.8536), (2.25, 3.1494))
SERIES_CS = (1e-8, 1e-3, 0.05, 0.4, 1.3, 3.0, 6.0, 12.0, 30.0)
# (c, m1, m2) where the series cancels and the Gauss-Hermite rule on its own
# average holds: large shapes just above the mean, both large or one large
# and one small; large shapes below the mean; close shapes just below the
# mean, where the 24- and 16-point rules disagree and the 32-point rule
# holds
HERMITE_ABOVE_THE_MEAN = [(1300.0, 30.5, 40.25), (200.0, 40.5, 3.25)]
HERMITE_BELOW_THE_MEAN = (100.0, 30.5, 40.25)
HERMITE_32_POINTS = (120.0, 12.5, 12.5)
# close shapes just below the mean, where no pair of rules on the cdf
# average agrees: the survival average
HERMITE_OTHER_AVERAGE = (8.0, 2.99, 2.99)


def test_series_matches_oracle():
    # wherever the series' error bound keeps it, both cdf and sf are within
    # the kernels' relative tolerance of the oracle; at the same points the
    # Gauss-Hermite route, wherever its own check keeps it, is held to the
    # tolerances of the tests above
    taken = {}
    by_hermite = []
    pairs = SERIES_SHAPES + NEAR_INTEGER_SHAPES + NEAR_POINT_ONE_SHAPES
    for m1, m2 in pairs:
        for c in SERIES_CS:
            want_cdf, want_sf = oracle_cdf(c, m1, m2), oracle_sf(c, m1, m2, 1.0)
            got = _kernels_py._series_cdf_sf(c, m1, m2)
            if got is not None:
                taken.setdefault((m1, m2), []).append(c)
                assert float(abs(got[0] / want_cdf - 1)) <= 1e-9, (m1, m2, c)
                assert float(abs(got[1] / want_sf - 1)) <= 1e-9, (m1, m2, c)
            kept = hermite(c, m1, m2)
            if kept is not None:
                by_hermite.append((m1, m2, c))
                assert float(abs(kept[0] - want_cdf)) <= 1e-9, (m1, m2, c)
                assert float(abs(kept[1] / want_sf - 1)) <= 1e-6, (m1, m2, c)
    assert by_hermite
    # the series covers every c up to 5, next to an integer order too
    for pair in pairs:
        assert all(c in taken[pair] for c in SERIES_CS if c <= 5.0), pair


def test_series_refuses_a_nan_argument():
    # the loop reads a nan ratio of terms as growth, and stops on the nan
    # sum of magnitudes rather than running on
    for m1, m2 in SERIES_SHAPES:
        assert _kernels_py._series_cdf_sf(math.nan, m1, m2) is None, (m1, m2)


def test_series_keeps_small_cdf_values_relatively_precise():
    # an adaptive lower integral held to an absolute tolerance was 2e-5
    # relative off here; the series keeps about 1e-14
    for c in (1e-3, 1.0):
        assert route(c, 30.5, 40.25) == "series"
        want = oracle_cdf(c, 30.5, 40.25)
        got = _kernels_py.cdf_w(c, 30.5, 40.25, 1.0)
        assert float(abs(got / want - 1)) <= 1e-12, (c, got, want)


def test_small_cdf_of_large_shapes_is_relatively_precise():
    # below the mean, where the series cancels: an adaptive lower integral
    # held to an absolute tolerance was 6.5e-6 and 2.8e-7 relative off here
    for c in (25.0, 100.0):
        assert route(c, 30.5, 40.25) == "hermite"
        want = oracle_cdf(c, 30.5, 40.25)
        got = _kernels_py.cdf_w(c, 30.5, 40.25, 1.0)
        assert float(abs(got / want - 1)) <= 1e-9, (c, got, want)


def test_small_cdf_of_integer_shapes_is_relatively_precise():
    # 1 minus the Bessel-K sum is precise only to about 1e-16 absolute, far
    # above the cdf of 2.5e-21 at (2, 3), c = 1e-10, so there the sum's own
    # bound refuses it and a route that holds the cdf runs.  At (64, 64) the
    # cdf is 7.36e-116 at c = 10 and 4.68e-24 at c = 500 (1 minus the sum
    # once gave 0 and 1.8e-15).  cdf_w and sf_w are the one pair _cdf_sf
    # returns.
    points = [(m1, m2, c) for m1, m2 in ((2.0, 3.0), (3.0, 2.0), (1.0, 1.0),
                                          (60.0, 0.75), (1.0, 4.0))
              for c in (1e-10, 1e-4, 0.3)]
    # Then two census points the sum kept only once its start was charged
    # 128 + 2 |ln z| u rather than 2000 + 2 |ln z| u (the series and the
    # Gauss-Hermite rule held them before)
    kept = [(1.0, 0.7892275881193312, 7.892275881193312e-07),
            (23.0, 21.649287062388833, 157.46043072271843)]
    for m1, m2, c in kept:
        assert route(c, m1, m2) == "bessel-k sum", (m1, m2, c)
    for m1, m2, c in points + kept + [(64.0, 64.0, 10.0), (64.0, 64.0, 500.0)]:
        want = oracle_cdf(c, m1, m2)
        got = _kernels_py.cdf_w(c, m1, m2, 1.0)
        assert float(abs(got / want - 1)) <= 1e-9, (m1, m2, c, got, want)
        assert (got, _kernels_py.sf_w(c, m1, m2, 1.0)) \
            == _kernels_py._cdf_sf(c, m1, m2, 1.0)


def record_calls(monkeypatch, name):
    """Wrap the kernel function ``name``; returns the list of its calls'
    arguments, as tuples."""
    calls = []
    original = getattr(_kernels_py, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels_py, name, recorded)
    return calls


def test_quadrature_runs_unchanged_where_the_series_bound_fails(monkeypatch):
    points = [HERMITE_BELOW_THE_MEAN, (1300.0, 30.5, 40.25), (30.0, 0.75, 1.25),
              HERMITE_32_POINTS]
    own = [hermite(c, m1, m2) for c, m1, m2 in points]
    c, m1, m2 = HERMITE_OTHER_AVERAGE
    assert hermite(c, m1, m2) is None
    other = hermite(c, m1, m2, upper=True)
    calls = record_calls(monkeypatch, "_hermite_cdf_sf")
    # small c: the series, and no Gauss-Hermite rule
    for c, m1, m2 in ((1.0, 0.75, 1.25), (1.0, 1.5, 2.5)):
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) \
            == _kernels_py._series_cdf_sf(c, m1, m2)
    assert calls == []
    # large shapes below the mean, small and large shapes above it, and
    # close shapes just below it: the Gauss-Hermite rule on its own average
    for (c, m1, m2), want in zip(points, own):
        assert _kernels_py._series_cdf_sf(c, m1, m2) is None
        assert want is not None
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) == want
    assert calls == [point + (point[0] > point[1] * point[2],)
                     for point in points]
    # where no pair of its rules agrees: the other Gauss-Hermite average
    del calls[:]
    c, m1, m2 = HERMITE_OTHER_AVERAGE
    assert _kernels_py._cdf_sf(c, m1, m2, 1.0) == other
    assert calls == [HERMITE_OTHER_AVERAGE + (False,),
                     HERMITE_OTHER_AVERAGE + (True,)]


def test_cdf_plus_sf_is_one_on_every_route():
    seen = set()
    points = [(c, m1, m2) for m1, m2 in SHAPES + NEAR_INTEGER_SHAPES
              for c in SERIES_CS + (120.0,)]
    for c, m1, m2 in points + HERMITE_ABOVE_THE_MEAN + [
            HERMITE_BELOW_THE_MEAN, HERMITE_32_POINTS,
            HERMITE_OTHER_AVERAGE, (1e7, 1.5, 2.5)]:
        seen.add(route(c, m1, m2))
        cdf, sf = _kernels_py._cdf_sf(c, m1, m2, 1.0)
        assert abs(cdf + sf - 1.0) <= sys.float_info.epsilon, (m1, m2, c)
    assert seen == ALL_ROUTES


def _handoff(inside, outside, accepted):
    """Bisect in log space to a pair of arguments 1e-12 apart (relatively)
    on either side of a route's handoff to the next."""
    assert accepted(inside) and not accepted(outside)
    while abs(outside / inside - 1.0) > 1e-12:
        mid = math.sqrt(inside * outside)
        if accepted(mid):
            inside = mid
        else:
            outside = mid
    return inside, outside


def _assert_no_jump(inside, outside):
    cdf, sf = inside
    tol = max(_kernels_py._ABS_TOL, _kernels_py._REL_TOL * min(cdf, sf))
    assert abs(cdf - outside[0]) <= tol, (inside, outside)
    assert abs(sf - outside[1]) <= tol, (inside, outside)


def test_no_jump_at_the_series_handoff():
    # in c, as the cancellation grows
    for m1, m2 in SERIES_SHAPES + ((30.5, 40.25),):
        c_in, c_out = _handoff(
            1e-3, 1e3, lambda c: _kernels_py._series_cdf_sf(c, m1, m2) is not None)
        # the next route: the Gauss-Hermite rule, on the other average
        # where the rules on its own disagree (close shapes near the mean)
        assert route(c_out, m1, m2) in ("hermite", "hermite, other average")
        _assert_no_jump(_kernels_py._cdf_sf(c_in, m1, m2, 1.0),
                        _kernels_py._cdf_sf(c_out, m1, m2, 1.0))
    # in c, where the far-tail bound takes over from the Gauss-Hermite rule
    for m1, m2 in ((0.5, 0.5), (1.5, 2.5), (99.5, 0.75), (100.0, 100.0)):
        c_in, c_out = _handoff(
            1e7, 1e5, lambda c: _kernels_py._sf_underflows(c, m1, m2))
        assert route(c_out, m1, m2) == "hermite"
        _assert_no_jump(_kernels_py._cdf_sf(c_in, m1, m2, 1.0),
                        _kernels_py._cdf_sf(c_out, m1, m2, 1.0))
    # as the order nears an integer from either side the series is kept,
    # and it moves no more than its slope over d from 1e-2 to 0 allows
    for m1, m2 in ((1.5, 2.5), (0.5, 0.5), (0.75, 2.75)):
        for c in (0.3, 1.0, 3.0):
            at_integer = _kernels_py._series_cdf_sf(c, m1, m2)
            assert at_integer is not None, (m1, m2, c)
            for side in (-1.0, 1.0):
                values = {}
                for k in range(2, 13):
                    d = 10.0 ** -k
                    values[d] = _kernels_py._series_cdf_sf(c, m1, m2 + side * d)
                    assert values[d] is not None, (m1, m2, c, side, d)
                slope = 2.0 * abs(values[1e-2][0] - at_integer[0]) / 1e-2
                tol = max(_kernels_py._ABS_TOL,
                          _kernels_py._REL_TOL * min(at_integer))
                for d, (cdf, sf) in values.items():
                    assert abs(cdf - at_integer[0]) <= slope * d + tol, \
                        (m1, m2, c, side, d)
                    assert abs(sf - at_integer[1]) <= slope * d + tol, \
                        (m1, m2, c, side, d)


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


# P(V > c) of the unit-rate variable from tests/make_reference_values.py
# (ORACLE_SHAPES there): integer orders, orders away from an integer, orders
# 1e-4, 1e-7 and 1e-10 from one, and integer shapes, over shapes 0.5 to 100
# and c from 1e-12 to where P(V > c) falls below 1e-300; then seven points
# near the mean of two close shapes (BELOW_THE_MEAN there)
ORACLE_SF = {
    (0.5, 0.5, 1e-12): 0.999981871239892546,
    (0.5, 0.5, 1e-06): 0.990666463826455724,
    (0.5, 0.5, 0.001): 0.84385601369860357,
    (0.5, 0.5, 0.1): 0.340162112253229317,
    (0.5, 0.5, 0.125): 0.307188502200579272,
    (0.5, 0.5, 0.25): 0.208993663004652327,
    (0.5, 0.5, 0.5): 0.124535360149672386,
    (0.5, 0.5, 1.0): 0.0618288894755922427,
    (0.5, 0.5, 10.0): 0.000522757616972332913,
    (0.5, 0.5, 100.0): 3.57068336669459008e-10,
    (0.5, 0.5, 1000.0): 3.38862450850071793e-29,
    (0.5, 0.5, 10000.0): 7.78359490909243821e-89,
    (0.5, 0.5, 100000.0): 6.74604379055027521e-277,
    (0.5, 0.5, 118000.0): 1.29703835783997463e-300,
    (1.5, 2.5, 1e-12): 0.999999999999999999,
    (1.5, 2.5, 1e-06): 0.999999999434120532,
    (1.5, 2.5, 0.001): 0.999982182006291765,
    (1.5, 2.5, 0.1): 0.98499430022425495,
    (1.5, 2.5, 1.0): 0.756360859123088919,
    (1.5, 2.5, 1.875): 0.576642942609890067,
    (1.5, 2.5, 3.75): 0.335668838107333849,
    (1.5, 2.5, 7.5): 0.130929514331635125,
    (1.5, 2.5, 10.0): 0.0751433212150283009,
    (1.5, 2.5, 100.0): 1.13214068333712247e-6,
    (1.5, 2.5, 1000.0): 3.01956631238762175e-24,
    (1.5, 2.5, 10000.0): 2.11222885920105571e-82,
    (1.5, 2.5, 100000.0): 5.72032170388145306e-269,
    (1.5, 2.5, 125000.0): 2.86895648222741695e-301,
    (7.25, 20.25, 1e-12): 1.0,
    (7.25, 20.25, 1e-06): 1.0,
    (7.25, 20.25, 0.001): 1.0,
    (7.25, 20.25, 0.1): 1.0,
    (7.25, 20.25, 1.0): 0.999999999999792372,
    (7.25, 20.25, 10.0): 0.999998039590947589,
    (7.25, 20.25, 73.40625): 0.905969600390707555,
    (7.25, 20.25, 100.0): 0.751121410081767454,
    (7.25, 20.25, 146.8125): 0.431527746064583827,
    (7.25, 20.25, 293.625): 0.0296480104546011203,
    (7.25, 20.25, 1000.0): 1.23603091084860937e-8,
    (7.25, 20.25, 10000.0): 1.44685469720300247e-55,
    (7.25, 20.25, 100000.0): 1.5191137936700778e-230,
    (7.25, 20.25, 160000.0): 1.13648080952236457e-300,
    (40.5, 99.5, 1e-12): 1.0,
    (40.5, 99.5, 1e-06): 1.0,
    (40.5, 99.5, 0.001): 1.0,
    (40.5, 99.5, 0.1): 1.0,
    (40.5, 99.5, 1.0): 1.0,
    (40.5, 99.5, 10.0): 1.0,
    (40.5, 99.5, 100.0): 1.0,
    (40.5, 99.5, 1000.0): 0.999999999949740718,
    (40.5, 99.5, 2014.875): 0.999663125390243713,
    (40.5, 99.5, 4029.75): 0.470139490267370206,
    (40.5, 99.5, 8059.5): 0.0000249679124108616032,
    (40.5, 99.5, 10000.0): 3.14991410068547857e-8,
    (40.5, 99.5, 100000.0): 1.1058953183858502e-129,
    (40.5, 99.5, 304000.0): 4.92310600715054594e-301,
    (0.75, 1.25, 1e-12): 0.999999997872310391,
    (0.75, 1.25, 1e-06): 0.999932797148678458,
    (0.75, 1.25, 0.001): 0.988479053826036639,
    (0.75, 1.25, 0.1): 0.737481668283807761,
    (0.75, 1.25, 0.46875): 0.433705287005463718,
    (0.75, 1.25, 0.9375): 0.275510311777606177,
    (0.75, 1.25, 1.0): 0.261464129949110622,
    (0.75, 1.25, 1.875): 0.140007143444002581,
    (0.75, 1.25, 10.0): 0.0054602716523103887,
    (0.75, 1.25, 100.0): 1.06550903342558608e-8,
    (0.75, 1.25, 1000.0): 3.08438710105083166e-27,
    (0.75, 1.25, 10000.0): 2.21388659310111774e-86,
    (0.75, 1.25, 100000.0): 6.04456955590638453e-274,
    (0.75, 1.25, 120000.0): 3.84622967098743561e-300,
    (0.6, 7.3, 1e-12): 0.999999977039249919,
    (0.6, 7.3, 1e-06): 0.999908591613529749,
    (0.6, 7.3, 0.001): 0.994232899756123993,
    (0.6, 7.3, 0.1): 0.909189066988856279,
    (0.6, 7.3, 1.0): 0.658565520340976738,
    (0.6, 7.3, 2.19): 0.490930720761462955,
    (0.6, 7.3, 4.38): 0.314603289179979467,
    (0.6, 7.3, 8.76): 0.149285771314941931,
    (0.6, 7.3, 10.0): 0.12326956723803595,
    (0.6, 7.3, 100.0): 0.000019163853551886583,
    (0.6, 7.3, 1000.0): 1.99085484133228983e-21,
    (0.6, 7.3, 10000.0): 9.43158487598617673e-78,
    (0.6, 7.3, 100000.0): 2.08490580987543228e-262,
    (0.6, 7.3, 130000.0): 1.51017920779888859e-300,
    (30.5, 40.25, 1e-12): 1.0,
    (30.5, 40.25, 1e-06): 1.0,
    (30.5, 40.25, 0.001): 1.0,
    (30.5, 40.25, 0.1): 1.0,
    (30.5, 40.25, 1.0): 1.0,
    (30.5, 40.25, 10.0): 1.0,
    (30.5, 40.25, 100.0): 0.999999999999999989,
    (30.5, 40.25, 613.8125): 0.995635396283721518,
    (30.5, 40.25, 1000.0): 0.769953673213765095,
    (30.5, 40.25, 1227.625): 0.460314153431459266,
    (30.5, 40.25, 2455.25): 0.00078268679770074879,
    (30.5, 40.25, 10000.0): 6.05453724214537874e-27,
    (30.5, 40.25, 100000.0): 2.4660110821034133e-180,
    (30.5, 40.25, 219000.0): 2.22342951630291653e-300,
    (99.7, 0.55, 1e-12): 0.999999977418982008,
    (99.7, 0.55, 1e-06): 0.999954944945930087,
    (99.7, 0.55, 0.001): 0.997987471928908737,
    (99.7, 0.55, 0.1): 0.974672837993711976,
    (99.7, 0.55, 1.0): 0.910427334624479636,
    (99.7, 0.55, 10.0): 0.692214155757353832,
    (99.7, 0.55, 27.417500000000004): 0.495173770139309788,
    (99.7, 0.55, 54.83500000000001): 0.323702235599007557,
    (99.7, 0.55, 100.0): 0.175748295441255347,
    (99.7, 0.55, 109.67000000000002): 0.155360785094206707,
    (99.7, 0.55, 1000.0): 0.0000138049665489209267,
    (99.7, 0.55, 10000.0): 9.13316764613993686e-35,
    (99.7, 0.55, 100000.0): 2.02010378328288473e-180,
    (99.7, 0.55, 224000.0): 1.10529103250398591e-300,
    (1.5, 2.5001, 1e-12): 0.999999999999999999,
    (1.5, 2.5001, 1e-06): 0.999999999434192974,
    (1.5, 2.5001, 0.001): 0.999982184259316105,
    (1.5, 2.5001, 0.1): 0.984995795122172442,
    (1.5, 2.5001, 1.0): 0.756374092205594729,
    (1.5, 2.5001, 1.8750750000000003): 0.576646302194993149,
    (1.5, 2.5001, 3.7501500000000005): 0.335670237336346093,
    (1.5, 2.5001, 7.500300000000001): 0.130929065028673465,
    (1.5, 2.5001, 10.0): 0.075149025169219761,
    (1.5, 2.5001, 100.0): 1.1323330775887144e-6,
    (1.5, 2.5001, 1000.0): 3.0204065677318455e-24,
    (1.5, 2.5001, 10000.0): 2.11305532247781552e-82,
    (1.5, 2.5001, 100000.0): 5.72321488387339144e-269,
    (1.5, 2.5001, 125000.0): 2.87043945080241704e-301,
    (20.5, 30.4999, 1e-12): 1.0,
    (20.5, 30.4999, 1e-06): 1.0,
    (20.5, 30.4999, 0.001): 1.0,
    (20.5, 30.4999, 0.1): 1.0,
    (20.5, 30.4999, 1.0): 1.0,
    (20.5, 30.4999, 10.0): 1.0,
    (20.5, 30.4999, 100.0): 0.999999966386497857,
    (20.5, 30.4999, 312.62397500000003): 0.98484327321004382,
    (20.5, 30.4999, 625.2479500000001): 0.453000293883435564,
    (20.5, 30.4999, 1000.0): 0.0337631369198639072,
    (20.5, 30.4999, 1250.4959000000001): 0.00353443155963919701,
    (20.5, 30.4999, 10000.0): 1.59701043422443267e-37,
    (20.5, 30.4999, 100000.0): 9.54623850850546208e-201,
    (20.5, 30.4999, 193000.0): 1.29751218009044146e-300,
    (0.5, 0.5000001, 1e-12): 0.999981871263318932,
    (0.5, 0.5000001, 1e-06): 0.990666469501859764,
    (0.5, 0.5000001, 0.001): 0.843856056606905604,
    (0.5, 0.5000001, 0.1): 0.340162163313515087,
    (0.5, 0.5000001, 0.125000025): 0.307188520998742315,
    (0.5, 0.5000001, 0.25000005): 0.20899367365309111,
    (0.5, 0.5000001, 0.5000001): 0.124535363931107462,
    (0.5, 0.5000001, 1.0): 0.0618289036322280321,
    (0.5, 0.5000001, 10.0): 0.000522757786675907876,
    (0.5, 0.5000001, 100.0): 3.57068490666001682e-10,
    (0.5, 0.5000001, 1000.0): 3.38862634948671824e-29,
    (0.5, 0.5000001, 10000.0): 7.78360002575154003e-89,
    (0.5, 0.5000001, 100000.0): 6.74604899954367397e-277,
    (0.5, 0.5000001, 118000.0): 1.2970393700727261e-300,
    (3.25, 10.2500001, 1e-12): 1.0,
    (3.25, 10.2500001, 1e-06): 1.0,
    (3.25, 10.2500001, 0.001): 0.999999999999975828,
    (3.25, 10.2500001, 0.1): 0.999999924516686485,
    (3.25, 10.2500001, 1.0): 0.99988006670857148,
    (3.25, 10.2500001, 10.0): 0.920533148947487435,
    (3.25, 10.2500001, 16.656250162499997): 0.774834408625397792,
    (3.25, 10.2500001, 33.312500324999995): 0.40064292315395222,
    (3.25, 10.2500001, 66.62500064999999): 0.0785497172199408143,
    (3.25, 10.2500001, 100.0): 0.0146714569219970374,
    (3.25, 10.2500001, 1000.0): 6.63206732055569581e-16,
    (3.25, 10.2500001, 10000.0): 1.80654298905079579e-69,
    (3.25, 10.2500001, 100000.0): 2.45221409964656057e-251,
    (3.25, 10.2500001, 140000.0): 8.67297230025206352e-301,
    (2.25, 3.2500000001, 1e-12): 1.0,
    (2.25, 3.2500000001, 1e-06): 0.999999999999995134,
    (2.25, 3.2500000001, 0.001): 0.999999972770254636,
    (2.25, 3.2500000001, 0.1): 0.999290849050804262,
    (2.25, 3.2500000001, 1.0): 0.941044714495294355,
    (2.25, 3.2500000001, 3.6562500001125002): 0.648780410301857735,
    (2.25, 3.2500000001, 7.3125000002250005): 0.359973528331065057,
    (2.25, 3.2500000001, 10.0): 0.234909590530622447,
    (2.25, 3.2500000001, 14.625000000450001): 0.116412099060972677,
    (2.25, 3.2500000001, 100.0): 0.0000158700884467625478,
    (2.25, 3.2500000001, 1000.0): 2.2446342083140349e-22,
    (2.25, 3.2500000001, 10000.0): 8.68102881676109188e-80,
    (2.25, 3.2500000001, 100000.0): 1.31519626013535659e-265,
    (2.25, 3.2500000001, 127000.0): 2.87502597799047764e-300,
    (60.5, 0.5000000001, 1e-12): 0.999999854023077878,
    (60.5, 0.5000000001, 1e-06): 0.99985402307850151,
    (60.5, 0.5000000001, 0.001): 0.995383830473249029,
    (60.5, 0.5000000001, 0.1): 0.953864110627626799,
    (60.5, 0.5000000001, 1.0): 0.854843557771815678,
    (60.5, 0.5000000001, 10.0): 0.563166112556558676,
    (60.5, 0.5000000001, 15.125000003025): 0.47722800777871749,
    (60.5, 0.5000000001, 30.25000000605): 0.315323442210370727,
    (60.5, 0.5000000001, 60.5000000121): 0.15646228319567884,
    (60.5, 0.5000000001, 100.0): 0.0692177137187809086,
    (60.5, 0.5000000001, 1000.0): 4.47238935268871398e-8,
    (60.5, 0.5000000001, 10000.0): 1.28140172938783486e-45,
    (60.5, 0.5000000001, 100000.0): 2.10181962004723096e-206,
    (60.5, 0.5000000001, 188000.0): 1.56691739969218256e-300,
    (1, 4, 1e-12): 0.999999999999666667,
    (1, 4, 1e-06): 0.99999966666675,
    (1, 4, 0.001): 0.999666749972276656,
    (1, 4, 0.1): 0.967474528452062235,
    (1, 4, 1.0): 0.731971975803986107,
    (1, 4, 2.0): 0.551980234027158644,
    (1, 4, 4.0): 0.331886998157977318,
    (1, 4, 8.0): 0.137452009356351295,
    (1, 4, 10.0): 0.0925073694795325774,
    (1, 4, 100.0): 2.82474453996562442e-6,
    (1, 4, 1000.0): 2.02706250845484495e-23,
    (1, 4, 10000.0): 4.25191485452519881e-81,
    (1, 4, 100000.0): 3.57997004310691837e-267,
    (1, 4, 126000.0): 1.20889811342106285e-300,
    (100, 0.75, 1e-12): 0.999999999965364861,
    (100, 0.75, 1e-06): 0.999998904740737367,
    (100, 0.75, 0.001): 0.999805233149194606,
    (100, 0.75, 0.1): 0.993843590270930164,
    (100, 0.75, 1.0): 0.965515448029738476,
    (100, 0.75, 10.0): 0.813457113065908166,
    (100, 0.75, 37.5): 0.551394521786022945,
    (100, 0.75, 75.0): 0.346864279563674153,
    (100, 0.75, 100.0): 0.258907207990339446,
    (100, 0.75, 150.0): 0.147300900869283029,
    (100, 0.75, 1000.0): 0.0000297284661552932478,
    (100, 0.75, 10000.0): 3.19104840816214809e-34,
    (100, 0.75, 100000.0): 1.2122178899487198e-179,
    (100, 0.75, 225000.0): 1.20549814376164e-300,
    (2.99, 2.99, 8.0): 0.417670535876472745,
    (7.25, 7.75, 30.0): 0.823941823896575054,
    (12.5, 12.5, 120.0): 0.683052642961538674,
    (3.3, 7.7, 15.0): 0.687802518879495162,
    (16.5, 16.25, 220.0): 0.658875223409880614,
    (18.5, 18.25, 320.0): 0.5095192079769533,
    (15.5, 14.5, 190.0): 0.617744375539680555,
}


def test_survival_matches_the_tabulated_oracle():
    # every route, in relative terms: within the kernels' relative
    # tolerance however small P(V > c) is.  The far-tail bound gives 0,
    # below every literal
    routes = set()
    worst = (0.0, ())
    for (m1, m2, c), want in ORACLE_SF.items():
        routes.add(route(c, m1, m2))
        got = _kernels_py.sf_w(c, m1, m2, 1.0)
        worst = max(worst, (abs(got / want - 1.0), (m1, m2, c, got, want)))
    assert worst[0] <= 1e-9, worst
    assert routes == ALL_ROUTES - {"far-tail bound"}


def test_deep_tail_keeps_relative_precision():
    # an adaptive tail integral held to an absolute floor is 1.4e-3 off at
    # c = 1e4 and 5e-2 at 1e5
    for (m1, m2, c), want in DEEP_TAIL_SF.items():
        got = _kernels_py.sf_w(c, m1, m2, 1.0)
        assert math.isclose(got, want, rel_tol=1e-12), (m1, m2, c, got, want)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(m1=st.integers(1, 100).map(float), m2=st.integers(1, 100).map(float))
def test_hermite_route_matches_the_bessel_k_sum(m1, m2):
    # the Gauss-Hermite rule on the survival average holds at integer shapes
    # too, where the Bessel-K sum is exact: at the mean to the kernels'
    # tolerance, and above it to 1e-12 relative, out to where sf leaves the
    # normal floats, and only there does the sum's own bound refuse it
    c = m1 * m2
    while True:
        want = _kernels_py._integer_shape_sf(c, m1, m2)
        if want is None or want < sys.float_info.min:
            assert _kernels_py.sf_w(c, m1, m2, 1.0) < sys.float_info.min
            break
        got = hermite(c, m1, m2, upper=True)
        assert got is not None, (m1, m2, c)
        assert got == hermite(c, m2, m1, upper=True), (m1, m2, c)
        tol = 1e-12 if c > m1 * m2 else _kernels_py._REL_TOL
        assert math.isclose(got[1], want, rel_tol=tol), (m1, m2, c, got, want)
        c *= 4.0


def test_hermite_rules_escalate(monkeypatch):
    # each pair of rules runs only where the pair before it disagrees, and
    # each rule is summed once: above the mean at a large shape against a
    # small one and at two large shapes, then at close shapes just below the
    # mean and at moderate close shapes at half the mean
    sizes = record_calls(monkeypatch, "_hermite_rule")
    for (c, m1, m2), last in (((7500.46875, 1.5, 4000.25), 24),
                              ((1300.0, 30.5, 40.25), 24),
                              (HERMITE_32_POINTS, 32), ((7.875, 3.5, 4.5), 48)):
        del sizes[:]
        cdf, sf, err = _kernels_py._hermite_cdf_sf(c, m1, m2, c > m1 * m2)
        assert err <= _kernels_py._REL_TOL * min(cdf, sf), (c, m1, m2)
        assert sizes == [(n,) for n in (16, 24, 32, 48) if n <= last], \
            (c, m1, m2, sizes)
        assert _kernels_py._cdf_sf(c, m1, m2, 1.0) == (cdf, sf)
    # where Newton's method has not settled, on the cdf average far above
    # the mean, no value is kept: cdf = 0 once passed with a zero error
    # estimate, as e^phi underflowed at the rules' nodes
    for c in (1e12, 1e100):
        cdf, sf, err = _kernels_py._hermite_cdf_sf(c, 1.5, 2.5, False)
        assert not err <= _kernels_py._REL_TOL * min(cdf, sf), (c, cdf, sf)


def test_survival_census_over_the_shape_domain():
    # a fixed design over shapes [0.5, 100]^2: a fifth of the pairs with an
    # order next to an integer, a fifth with an integer shape, the rest
    # generic; c from 1e-6 to 1e3 times the mean on every pair.  No call
    # raises, every value is a probability, and sf never rises with c by
    # more than rounding.  Then two integer-shape pairs where an unchecked
    # Bessel-K sum rose with c by up to 2.5e-13 below the mean
    rng = random.Random(2026)
    pairs = []
    for i in range(30):
        m1 = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        m2 = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        if i % 5 == 0:
            m2 = min(max(round(m2) + (m1 - round(m1)), 0.5), 100.0)
            m2 += 10.0 ** rng.uniform(-10.0, -3.0)
        elif i % 5 == 1:
            m1 = float(round(m1))
        pairs.append((m1, m2))
    seen = set()
    for m1, m2 in pairs + [(99.0, 4.0), (69.0, 35.61327090588239)]:
        prev = 1.0
        for k in range(-24, 13):
            c = m1 * m2 * 10.0 ** (k / 4)
            seen.add(route(c, m1, m2))
            sf = _kernels_py.sf_w(c, m1, m2, 1.0)
            assert 0.0 <= sf <= 1.0 and sf <= prev * (1.0 + 1e-14), \
                (m1, m2, c, sf, prev)
            prev = sf
    assert {"hermite", "hermite, other average", "far-tail bound"} <= seen


def test_incomplete_gamma_matches_oracle():
    # the smaller of P(a, t) and Q(a, t) to nearly full relative precision,
    # on both sides of t = a + 1 where the series hands over to the
    # continued fraction
    for a in (0.5, 0.75, 3.3, 40.25, 100.0):
        for t in (1e-3 * a, 0.1 * a, 0.5 * a, a, a + 1.0, 1.5 * a + 2.0,
                  4.0 * a + 10.0, 1e3):
            log_p, log_q, _ = _kernels_py._log_gamma_pq(a, math.log(t),
                                                        math.lgamma(a))
            with mp.workdps(30):
                want_p = mp.gammainc(a, 0, t, regularized=True)
                want_q = mp.gammainc(a, t, mp.inf, regularized=True)
                want = float(mp.log(min(want_p, want_q)))
            got = min(log_p, log_q)
            # an error in the logarithm is the relative error of the value
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), \
                (a, t, got, want)


def test_hermite_rules():
    import numpy as np

    # an n-point rule integrates x^k e^(-x^2) exactly for k <= 2n - 1
    for n in (16, 24, 32, 48):
        rule = _kernels_py._hermite_rule(n)
        assert rule is _kernels_py._hermite_rule(n)  # built once
        assert len(rule) == n
        xs = [s / math.sqrt(2.0) for s, _ in rule]
        ws = [v * math.exp(-x * x) / math.sqrt(2.0)
              for x, (_, v) in zip(xs, rule)]
        for k in range(2 * n):
            got = math.fsum(w * x ** k for x, w in zip(xs, ws))
            want = math.gamma((k + 1) / 2) if k % 2 == 0 else 0.0
            assert abs(got - want) <= 1e-13 * math.gamma((k + 1) / 2), (n, k)
        want_x, want_w = np.polynomial.hermite.hermgauss(n)
        for x, w in zip(sorted(xs), [w for _, w in sorted(zip(xs, ws))]):
            i = int(np.argmin(abs(want_x - x)))
            assert abs(x - want_x[i]) <= 8 * np.spacing(abs(want_x[i])), (n, x)
            assert math.isclose(w, want_w[i], rel_tol=1e-13), (n, w)
