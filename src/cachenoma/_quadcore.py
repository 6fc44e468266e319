"""Globally adaptive Gauss-Kronrod (7-15) quadrature for Python callables.

Used by the channel distribution integrals in ``_kernels_py`` and by the
public ``specfun.adaptive_quad``.
"""
import math

# 15-point Kronrod abscissae (positive half, descending) and weights,
# with the embedded 7-point Gauss weights.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


def gk15(f, a, b):
    """One Gauss-Kronrod 7-15 panel on [a, b].

    Returns (kronrod_estimate, |kronrod - gauss|).
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        s = f1 + f2
        resk += _WGK[j] * s
        if j % 2 == 1:  # Kronrod nodes 1, 3, 5 are the Gauss nodes
            resg += _WG[j // 2] * s
    return resk * half, abs((resk - resg) * half)


def adaptive_gk15(f, a, b, abs_tol, rel_tol, max_subdivisions):
    """Globally adaptive bisection; refines the worst panel first.

    Returns (value, error_estimate, subdivisions_used, converged).
    """
    val, err = gk15(f, a, b)
    segs = [(a, b, val, err)]
    total_val = val
    total_err = err
    used = 0
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if used >= max_subdivisions:
            return total_val, total_err, used, False
        worst = 0
        werr = segs[0][3]
        for i in range(1, len(segs)):
            if segs[i][3] > werr:
                worst = i
                werr = segs[i][3]
        sa, sb, sval, serr = segs.pop(worst)
        mid = 0.5 * (sa + sb)
        lval, lerr = gk15(f, sa, mid)
        rval, rerr = gk15(f, mid, sb)
        segs.append((sa, mid, lval, lerr))
        segs.append((mid, sb, rval, rerr))
        total_val += lval + rval - sval
        total_err += lerr + rerr - serr
        used += 1
    return total_val, total_err, used, True


def map_semi_infinite(f, a):
    """Transform integral over [a, inf) to [0, 1) via u = a + t/(1-t)."""

    def g(t):
        om = 1.0 - t
        return f(a + t / om) / (om * om)

    return g
