"""Special functions and adaptive quadrature.

Public, validated interface over the scalar kernels.  ``bessel_k`` follows
the usual evaluation strategy for the modified Bessel function of the second
kind with real order: a Temme-type series below x = 2, a Steed continued
fraction above, and stable upward recurrence in the order.  Negative orders
map to positive ones through K_{-nu} = K_nu before any computation.
"""
import math
from dataclasses import dataclass

from . import _kernels_py
from ._quadcore import adaptive_gk15, map_semi_infinite
from .errors import QuadratureAccuracyError

__all__ = [
    "QuadratureSpec",
    "QuadratureAccuracyError",
    "ln_gamma",
    "bessel_k",
    "adaptive_quad",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy targets for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be a positive finite number")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be a positive finite number")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise ValueError(f"ln_gamma requires a positive finite argument, got {x!r}")
    return math.lgamma(float(x))


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, real order.

    Returns K_|nu|(x); the function is even in the order.  The value
    underflows to 0.0 for large x (beyond roughly x = 745) rather than
    raising.
    """
    if not math.isfinite(nu):
        raise ValueError(f"bessel_k requires a finite order, got {nu!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"bessel_k requires x > 0, got {x!r}")
    return _kernels_py.bessel_k(float(nu), float(x))


def adaptive_quad(f, a, b, spec=None):
    """Integrate f from a to b (b may be math.inf).

    Globally adaptive Gauss-Kronrod 7-15 bisection; semi-infinite ranges are
    mapped onto (0, 1) with u = a + t/(1-t).  Raises QuadratureAccuracyError
    (carrying the best estimate) when the subdivision budget is exhausted
    before the requested accuracy is met.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not (b > a):
        raise ValueError("upper limit must exceed the lower limit")
    if math.isinf(b):
        g = map_semi_infinite(f, a)
        lo, hi = 0.0, 1.0
    else:
        g = f
        lo, hi = a, b
    val, err, used, ok = adaptive_gk15(
        g, lo, hi, spec.abs_tol, spec.rel_tol, spec.max_subdivisions
    )
    if not ok:
        raise QuadratureAccuracyError(
            f"quadrature did not converge after {used} subdivisions "
            f"(error estimate {err:.3e})",
            val,
            err,
        )
    return val
