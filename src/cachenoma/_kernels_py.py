"""Scalar kernels: the modified Bessel function of the second kind for real
order, and the density / CDF / survival function of the product of two
independent Gamma variables (the squared envelope of a cascaded Nakagami-m
channel, before any geometry scaling).

The product variable W = X * Y uses shape/scale parametrisation
X ~ Gamma(m1, omega1/m1), Y ~ Gamma(m2, omega2/m2) and is summarised here by
``r = m1 * m2 / (omega1 * omega2)``:

    pdf(w) = 2 r^h w^(h-1) K_{m1-m2}(2 sqrt(r w)) / (Gamma(m1) Gamma(m2)),
    h = (m1 + m2) / 2.

``cdf_w`` and ``sf_w`` alone decide how P(W <= x) and P(W > x) are
computed.  Both work with the unit-rate variable V = r W, whose density is
the one above with r = 1 and whose mean is m1 m2: P(W <= x) = P(V <= c)
with c = r x.  c = 0 and c = inf are answered exactly; otherwise one of two
routes runs:

* Bessel-K sum, when either shape is an integer up to ``_MAX_SUM_TERMS``:
  P(V > c) is a finite sum of Bessel K terms (Karagiannidis, Sagias and
  Mathiopoulos, "N*Nakagami", IEEE Trans. Commun. 2007; Gradshteyn and
  Ryzhik 3.471.9), exact to full relative precision deep into the tail,
  and P(V <= c) is 1 minus it.  No quadrature runs.
* Quadrature, for every other shape pair, split at the mean: for c up to
  m1 m2 the density is integrated over (0, c] and P(V > c) is 1 minus that;
  above it the density is integrated over (c, inf) and P(V <= c) is 1 minus
  that, so the deep tail keeps its relative precision.  Both integrals use
  globally adaptive Gauss-Kronrod 7-15 quadrature.

A quadrature that exhausts ``_MAX_SUBDIV`` subdivisions raises
``QuadratureAccuracyError`` with its best estimate.
"""
import math

from .errors import QuadratureAccuracyError

# Odd Taylor coefficients of 1/Gamma(1+z): indices z^1, z^3, ..., z^11.
_INV_GAMMA_TAYLOR_ODD = (
    0.5772156649015329,
    -0.0420026350340952,
    -0.0421977345555443,
    0.0072189432466630,
    -0.0002152416741149,
    -0.0000201348547807,
)

_EPS = 1e-16
_MAXIT = 30000

# Internal quadrature budget for the distribution integrals.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_SUBDIV = 400


def _gamma_pair(mu):
    """(G1, G2, 1/Gamma(1+mu), 1/Gamma(1-mu)) for |mu| <= 0.5.

    G1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) continued through mu = 0,
    computed from the Taylor series of 1/Gamma(1+z) near zero to avoid the
    cancellation in the difference quotient.
    """
    inv_p = math.exp(-math.lgamma(1.0 + mu))
    inv_m = math.exp(-math.lgamma(1.0 - mu))
    if abs(mu) <= 0.1:
        mu2 = mu * mu
        g1 = 0.0
        for c in reversed(_INV_GAMMA_TAYLOR_ODD):
            g1 = g1 * mu2 + c
        g1 = -g1
    else:
        g1 = (inv_m - inv_p) / (2.0 * mu)
    g2 = 0.5 * (inv_m + inv_p)
    return g1, g2, inv_p, inv_m


def _temme_series(mu, x):
    """K_mu(x) and K_{mu+1}(x) for 0 < x <= 2, |mu| <= 0.5."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) >= 1e-15 else 1.0
    d = -math.log(x2)
    e = mu * d
    fact2 = math.sinh(e) / e if abs(e) >= 1e-15 else 1.0
    g1, g2, inv_p, inv_m = _gamma_pair(mu)
    ff = fact * (g1 * math.cosh(e) + g2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee / inv_p
    q = 0.5 / (ee * inv_m)
    c = 1.0
    x2sq = x2 * x2
    total1 = p
    mu2 = mu * mu
    for i in range(1, _MAXIT + 1):
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= x2sq / i
        p /= (i - mu)
        q /= (i + mu)
        delta = c * ff
        total += delta
        total1 += c * (p - i * ff)
        if abs(delta) < abs(total) * _EPS:
            break
    return total, total1 * (2.0 / x)


def _cf2(mu, x, scale):
    """scale e^x K_mu(x) and scale e^x K_{mu+1}(x) for x > 2, |mu| <= 0.5
    (Steed's algorithm): K itself at scale e^-x, e^x K at scale 1."""
    if scale == 0.0:
        # both values underflow; 2 (1 + x) below would overflow near 9e307
        return 0.0, 0.0
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAXIT + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    h = a1 * h
    kmu = math.sqrt(math.pi / (2.0 * x)) * scale / s
    kmu1 = kmu * (mu + x + 0.5 - h) / x
    return kmu, kmu1


def _start(nu, x, scaled=False):
    """Split |nu| = mu + nl with |mu| <= 0.5; K_mu(x) and K_{mu+1}(x),
    both times e^x when ``scaled``."""
    anu = abs(nu)
    nl = int(anu + 0.5)
    mu = anu - nl
    if x <= 2.0:
        k0, k1 = _temme_series(mu, x)
        if scaled:
            k0, k1 = k0 * math.exp(x), k1 * math.exp(x)
    else:
        k0, k1 = _cf2(mu, x, 1.0 if scaled else math.exp(-x))
    return mu, nl, k0, k1


def bessel_k(nu, x):
    """K_nu(x) for real order, x > 0.  K_{-nu} = K_nu by construction."""
    mu, nl, k0, k1 = _start(nu, x)
    xi = 2.0 / x
    for l in range(1, nl):
        k0, k1 = k1, k0 + (mu + l) * xi * k1
    return k1 if nl > 0 else k0


def log_bessel_k(nu, x, scaled=False):
    """log K_nu(x), finite where K_nu(x) itself overflows (small x, large
    order); log(e^x K_nu(x)) when ``scaled``, finite where K_nu(x)
    underflows (large x).  The upward recurrence is renormalised at every
    step."""
    mu, nl, k0, k1 = _start(nu, x, scaled)
    if nl == 0:
        return math.log(k0)
    log_scale = 0.0
    xi = 2.0 / x
    for l in range(1, nl):
        log_scale += math.log(k1)
        k0, k1 = 1.0, k0 / k1 + (mu + l) * xi
    return log_scale + math.log(k1)


def pdf_w(v, m1, m2):
    """Density of the unit-rate product variable V = r W at v > 0."""
    h = 0.5 * (m1 + m2)
    z = 2.0 * math.sqrt(v)
    k = bessel_k(m1 - m2, z)
    if k == 0.0:
        return 0.0
    lg = math.lgamma(m1) + math.lgamma(m2)
    log_front = (h - 1.0) * math.log(v) - lg
    if math.isinf(k):
        # the Bessel factor overflows where the power factor underflows
        return 2.0 * math.exp(log_front + log_bessel_k(m1 - m2, z))
    return 2.0 * math.exp(log_front) * k


# Globally adaptive Gauss-Kronrod (7-15) quadrature for the distribution
# integrals: the 15-point Kronrod abscissae (positive half, descending) and
# weights, with the embedded 7-point Gauss weights.
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


# Longest Bessel-K sum the closed form runs; a larger integer shape (with a
# non-integer partner) goes to quadrature instead.
_MAX_SUM_TERMS = 64


def _short_integer(m):
    return float(m).is_integer() and m <= _MAX_SUM_TERMS


def _integer_shape_sf(c, m1, m2):
    """P(V > c), 0 < c < inf, in closed form when a shape is a short
    integer, else None.

    With Y ~ Gamma(n, 1) for integer n, P(Y > t) = e^-t sum_{k<n} t^k / k!;
    averaging over the other factor gives, with shape m of it,

        P(V > c) = 2 / Gamma(m) * sum_{k<n} c^((m+k)/2) / k! * K_{m-k}(2 sqrt(c)).

    Every term is positive, so the sum has no cancellation; each is formed
    in log space so that neither the power nor the factorial overflows, and
    a Bessel value that overflows (tiny c with a large order) or underflows
    (large c) is taken as its logarithm.
    """
    m, n = m1, m2
    if not _short_integer(n):
        if not _short_integer(m):
            return None
        m, n = n, m
    z = 2.0 * math.sqrt(c)
    log_c = math.log(c)
    head = math.log(2.0) - math.lgamma(m)
    total = 0.0
    for k in range(int(n)):
        kv = bessel_k(m - k, z)
        if kv == 0.0:
            # K underflows (z beyond about 745) while e^z K does not
            log_kv = log_bessel_k(m - k, z, scaled=True) - z
        elif math.isinf(kv):
            log_kv = log_bessel_k(m - k, z)
        else:
            log_kv = math.log(kv)
        total += math.exp(head + 0.5 * (m + k) * log_c - math.lgamma(k + 1.0)
                          + log_kv)
    return min(total, 1.0)


def _quad_or_raise(f, a, b, what):
    val, err, used, ok = adaptive_gk15(f, a, b, _ABS_TOL, _REL_TOL, _MAX_SUBDIV)
    if not ok:
        raise QuadratureAccuracyError(
            f"{what}: quadrature did not converge after {used} subdivisions "
            f"(error estimate {err:.3e})",
            val,
            err,
        )
    return min(max(val, 0.0), 1.0)


def _quad_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c)), 0 < c < inf, by quadrature of the density.

    Up to the mean m1 m2 of V the lower integral runs, with v = u^2 so that
    the integrable singularity at v = 0 (when m1 + m2 <= 2) goes away.
    Above the mean the tail integral runs, with v = c / t mapping (c, inf)
    onto (0, 1], so a small survival value keeps its relative precision.
    """
    if c <= m1 * m2:

        def lower(u):
            v = u * u
            if v == 0.0:
                # u^2 underflows: the mass this node stands for is far below
                # any tolerance
                return 0.0
            return 2.0 * u * pdf_w(v, m1, m2)

        cdf = _quad_or_raise(lower, 0.0, math.sqrt(c), "cdf")
        return cdf, 1.0 - cdf

    def tail(t):
        v = c / t
        if v == math.inf:
            # c / t overflows, far past all the mass
            return 0.0
        p = pdf_w(v, m1, m2)
        if p == 0.0:
            # the density underflows before v / t overflows: 0 * inf is nan
            return 0.0
        return p * (v / t)

    sf = _quad_or_raise(tail, 0.0, 1.0, "survival tail")
    return 1.0 - sf, sf


def _cdf_sf(x, m1, m2, r):
    """(P(W <= x), P(W > x)) by the route the module docstring describes."""
    c = r * x
    if c <= 0.0:
        return 0.0, 1.0
    if c == math.inf:
        # x = inf, or r x overflows: far past all the mass
        return 1.0, 0.0
    sf = _integer_shape_sf(c, m1, m2)
    if sf is not None:
        return 1.0 - sf, sf
    return _quad_cdf_sf(c, m1, m2)


def cdf_w(x, m1, m2, r):
    """P(W <= x) by the route the module docstring describes."""
    return _cdf_sf(x, m1, m2, r)[0]


def sf_w(x, m1, m2, r):
    """P(W > x) by the route the module docstring describes."""
    return _cdf_sf(x, m1, m2, r)[1]
