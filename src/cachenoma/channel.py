"""Cascaded Nakagami-m channel model.

The squared envelope of a cascaded (double) Nakagami-m link is s * X * Y
with X ~ Gamma(m1, omega1/m1) and Y ~ Gamma(m2, omega2/m2) independent, and
s a deterministic geometry scale.  The distribution functions below describe
the unit-scale product W = X * Y; callers fold the geometry in by dividing
thresholds by ``effective_scale``.

The functions here validate their input and make one kernel call each; how
a distribution value is computed is decided in ``_kernels_py``, whose module
docstring describes the routes.  ``cdf_gain_sq`` and ``survival_gain_sq``
share ``_cdf_sf``, a memo of the kernels' (cdf, sf) pairs, which ``cli.main``
empties before each command.  ``bessel_k`` validates its arguments and
reads K off the kernels' Bessel recurrence.
"""
import functools
import math

from . import _kernels_py
from ._record import Record

__all__ = [
    "DoubleNakagamiParams",
    "LinkGeometry",
    "effective_scale",
    "bessel_k",
    "cdf_gain_sq",
    "survival_gain_sq",
    "sample_gain_sq",
]

# Largest hop shape m.  A survival call runs Bessel-K recurrences up to the
# order |m1 - m2|, or incomplete gamma sums that lengthen with the shapes,
# so its cost grows with them: at an SNR of -20 dB, ``optimize --case
# split`` takes about 0.3 s on a 2-vCPU VM at shapes (100, 0.75) on both
# links, 0.9 s at (99.5, 0.75), where the trapezoidal rule takes every
# survival value the series refuses (1.0 s with the Gauss-Hermite rules
# before it), and 3.9 s at (999.5, 0.75).
MAX_SHAPE = 100

# (x, m1, m2, rate) -> (P(W <= x), P(W > x)) for the last 2048 distinct
# arguments, about 300 bytes each: a command's thresholds repeat (226 of 376
# survival calls are distinct on a zeta sweep, 1150 of 1436 on a surface)
_cdf_sf = functools.lru_cache(maxsize=2048)(_kernels_py._cdf_sf)


class DoubleNakagamiParams(Record):
    """Shape and spread parameters of the two hops."""

    __slots__ = ("m1", "m2", "omega1", "omega2")

    def __init__(self, m1: float, m2: float, omega1: float, omega2: float):
        for name, v in (("m1", m1), ("m2", m2)):
            if not 0.5 <= v <= MAX_SHAPE:
                raise ValueError(f"{name} must lie in [0.5, {MAX_SHAPE}], "
                                 f"got {v!r}")
        for name, v in (("omega1", omega1), ("omega2", omega2)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        num, denom = m1 * m2, omega1 * omega2
        if not (denom > 0.0 and 0.0 < num / denom < math.inf):
            raise ValueError(f"rate {num!r} / {denom!r} must be finite and positive")
        super().__init__(m1, m2, omega1, omega2)

    @property
    def rate(self):
        """Combined rate parameter r = m1 m2 / (omega1 omega2)."""
        return (self.m1 * self.m2) / (self.omega1 * self.omega2)


class LinkGeometry(Record):
    """Transmitter-receiver distance and path-loss exponent."""

    __slots__ = ("distance", "pathloss_exp")

    def __init__(self, distance: float, pathloss_exp: float):
        if not (math.isfinite(distance) and distance > 0.0):
            raise ValueError(f"distance must be positive, got {distance!r}")
        if not (math.isfinite(pathloss_exp) and pathloss_exp >= 0.0):
            raise ValueError(
                f"pathloss_exp must be nonnegative, got {pathloss_exp!r}"
            )
        super().__init__(distance, pathloss_exp)
        try:
            scale = effective_scale(self)
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError(f"distance ** -pathloss_exp = {scale!r} must be finite "
                             "and positive")


def effective_scale(geom: LinkGeometry) -> float:
    """Deterministic power scale s = distance^(-pathloss_exp).

    Squared-gain thresholds are divided by s before any distribution lookup
    (equivalently, the channel power is multiplied by s).
    """
    return geom.distance ** (-geom.pathloss_exp)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, real order.

    Returns K_|nu|(x); the function is even in the order.  It is read off
    the kernels' upward recurrence on e^x K (Temme's series up to x = 2, a
    trapezoidal rule above).  The value is 0.0 where K underflows (beyond
    roughly x = 745) and inf where it overflows, rather than raising.
    """
    if not math.isfinite(nu):
        raise ValueError(f"bessel_k requires a finite order, got {nu!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"bessel_k requires x > 0, got {x!r}")
    [log_k], _ = _kernels_py._log_k_ladder(abs(float(nu)), float(x), 1)
    try:
        return math.exp(log_k)
    except OverflowError:
        return math.inf


def cdf_gain_sq(x, params: DoubleNakagamiParams):
    """P(W <= x) for x >= 0 (1.0 at x = inf).  The ``_kernels_py`` module
    docstring says which route computes it."""
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"cdf_gain_sq requires x >= 0, got {x!r}")
    return _cdf_sf(float(x), params.m1, params.m2, params.rate)[0]


def survival_gain_sq(x, params: DoubleNakagamiParams):
    """P(W > x) for x >= 0 (0.0 at x = inf).  The ``_kernels_py`` module
    docstring says which route computes it."""
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"survival_gain_sq requires x >= 0, got {x!r}")
    return _cdf_sf(float(x), params.m1, params.m2, params.rate)[1]


def sample_gain_sq(params: DoubleNakagamiParams, geom: LinkGeometry, rng, size=None,
                   out=(None, None)):
    """Draw squared-gain samples s * X * Y using the caller's generator.

    ``out``, a pair of float64 arrays of one shape, receives the draws
    instead of two new arrays: X and the result go into the first, Y into
    the second, and the first is returned.  The bits are the same either way.
    A hop of shape exactly 1 is drawn as a standard exponential, which is
    what numpy's gamma sampler draws for that shape, bit for bit and with
    the same generator state after, through a faster loop.
    """
    s = effective_scale(geom)
    x_out, y_out = out
    # rng.gamma(m, scale) is scale * rng.standard_gamma(m), element by element
    x = _standard_gamma(rng, params.m1, size, x_out)
    x *= params.omega1 / params.m1
    y = _standard_gamma(rng, params.m2, size, y_out)
    y *= params.omega2 / params.m2
    # in place, in the order of s * x * y
    x *= s
    x *= y
    return x


def _standard_gamma(rng, shape, size, out):
    # 1.09 ms rather than 1.24 ms per 131 072 draws (2-vCPU machine, numpy 2.4.6)
    if shape == 1.0:
        return rng.standard_exponential(size, out=out)
    return rng.standard_gamma(shape, size, out=out)
