"""Special functions: the validated public interface over the scalar kernels.

``bessel_k`` follows the usual evaluation strategy for the modified Bessel
function of the second kind with real order: a Temme-type series below
x = 2, a Steed continued fraction above, and stable upward recurrence in the
order.  Negative orders map to positive ones through K_{-nu} = K_nu before
any computation.
"""
import math

from . import _kernels_py

__all__ = ["bessel_k"]


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
