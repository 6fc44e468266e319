"""Cascaded Nakagami-m channel model.

The squared envelope of a cascaded (double) Nakagami-m link is s * X * Y
with X ~ Gamma(m1, omega1/m1) and Y ~ Gamma(m2, omega2/m2) independent, and
s a deterministic geometry scale.  The distribution functions below describe
the unit-scale product W = X * Y; callers fold the geometry in by dividing
thresholds by ``effective_scale``.

When either shape is an integer the survival function is a finite sum of
Bessel K terms (Karagiannidis, Sagias and Mathiopoulos, "N*Nakagami", IEEE
Trans. Commun. 2007; Gradshteyn and Ryzhik 3.471.9) and no quadrature runs.
With both shapes non-integer the kernels integrate the density adaptively.
"""
import math
from dataclasses import dataclass

from . import _kernels_py

__all__ = [
    "DoubleNakagamiParams",
    "LinkGeometry",
    "effective_scale",
    "pdf_gain_sq",
    "cdf_gain_sq",
    "survival_gain_sq",
    "sample_gain_sq",
]


@dataclass(frozen=True)
class DoubleNakagamiParams:
    """Shape and spread parameters of the two hops."""

    m1: float
    m2: float
    omega1: float
    omega2: float

    def __post_init__(self):
        for name in ("m1", "m2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.5):
                raise ValueError(f"{name} must be finite and >= 0.5, got {v!r}")
        for name in ("omega1", "omega2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        num, denom = self.m1 * self.m2, self.omega1 * self.omega2
        if not (denom > 0.0 and 0.0 < num / denom < math.inf):
            raise ValueError(f"rate {num!r} / {denom!r} must be finite and positive")

    @property
    def rate(self):
        """Combined rate parameter r = m1 m2 / (omega1 omega2)."""
        return (self.m1 * self.m2) / (self.omega1 * self.omega2)


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter-receiver distance and path-loss exponent."""

    distance: float
    pathloss_exp: float

    def __post_init__(self):
        if not (math.isfinite(self.distance) and self.distance > 0.0):
            raise ValueError(f"distance must be positive, got {self.distance!r}")
        if not (math.isfinite(self.pathloss_exp) and self.pathloss_exp >= 0.0):
            raise ValueError(
                f"pathloss_exp must be nonnegative, got {self.pathloss_exp!r}"
            )
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


# Longest Bessel-K sum the closed form runs; a larger integer shape (with a
# non-integer partner) goes to quadrature instead.
_MAX_SUM_TERMS = 64


def _short_integer(m):
    return float(m).is_integer() and m <= _MAX_SUM_TERMS


def _integer_shape_sf(x, params):
    """P(W > x) in closed form when a shape is a short integer, else None.

    With Y ~ Gamma(n, 1) for integer n, P(Y > t) = e^-t sum_{k<n} t^k / k!;
    averaging over the other factor gives, with c = r x and shape m of it,

        P(W > x) = 2 / Gamma(m) * sum_{k<n} c^((m+k)/2) / k! * K_{m-k}(2 sqrt(c)).

    Every term is positive, so the sum has no cancellation; each is formed
    in log space so that neither the power nor the factorial overflows, and
    a Bessel value that overflows (tiny c with a large order) is taken as
    its logarithm.
    """
    m, n = params.m1, params.m2
    if not _short_integer(n):
        if not _short_integer(m):
            return None
        m, n = n, m
    c = params.rate * x
    if c == 0.0:
        return 1.0
    z = 2.0 * math.sqrt(c)
    log_c = math.log(c)
    head = math.log(2.0) - math.lgamma(m)
    total = 0.0
    for k in range(int(n)):
        kv = _kernels_py.bessel_k(m - k, z)
        if kv == 0.0:
            continue
        if math.isinf(kv):
            log_kv = _kernels_py.log_bessel_k(m - k, z)
        else:
            log_kv = math.log(kv)
        total += math.exp(head + 0.5 * (m + k) * log_c - math.lgamma(k + 1.0)
                          + log_kv)
    return min(total, 1.0)


def pdf_gain_sq(x, params: DoubleNakagamiParams):
    """Density of W = X * Y at x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"pdf_gain_sq requires x > 0, got {x!r}")
    return _kernels_py.pdf_w(float(x), params.m1, params.m2, params.rate)


def cdf_gain_sq(x, params: DoubleNakagamiParams):
    """P(W <= x).  1 - P(W > x) from the Bessel-K sum when a shape is an
    integer; otherwise adaptive quadrature of the density."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"cdf_gain_sq requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    sf = _integer_shape_sf(float(x), params)
    if sf is not None:
        return 1.0 - sf
    return _kernels_py.cdf_w(float(x), params.m1, params.m2, params.rate)


def survival_gain_sq(x, params: DoubleNakagamiParams):
    """P(W > x).  A finite Bessel-K sum when a shape is an integer, exact to
    full relative precision deep into the tail.  Otherwise 1 - cdf by
    quadrature, except deep in the upper tail, where the tail integral is
    evaluated directly."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"survival_gain_sq requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    sf = _integer_shape_sf(float(x), params)
    if sf is not None:
        return sf
    return _kernels_py.sf_w(float(x), params.m1, params.m2, params.rate)


def sample_gain_sq(params: DoubleNakagamiParams, geom: LinkGeometry, rng, size=None):
    """Draw squared-gain samples s * X * Y using the caller's generator."""
    s = effective_scale(geom)
    x = rng.gamma(params.m1, params.omega1 / params.m1, size)
    y = rng.gamma(params.m2, params.omega2 / params.m2, size)
    return s * x * y
