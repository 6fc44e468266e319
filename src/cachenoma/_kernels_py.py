"""Scalar kernels: the modified Bessel function of the second kind for real
order, and the density / CDF / survival function of the product of two
independent Gamma variables (the squared envelope of a cascaded Nakagami-m
channel, before any geometry scaling).

The product variable W = X * Y uses shape/scale parametrisation
X ~ Gamma(m1, omega1/m1), Y ~ Gamma(m2, omega2/m2) and is summarised here by
``r = m1 * m2 / (omega1 * omega2)``:

    pdf(w) = 2 r^h w^(h-1) K_{m1-m2}(2 sqrt(r w)) / (Gamma(m1) Gamma(m2)),
    h = (m1 + m2) / 2.
"""
import math

from ._quadcore import adaptive_gk15
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

# Above this CDF level the survival function integrates the upper tail
# directly instead of computing 1 - cdf.
TAIL_SWITCH = 1.0 - 1e-4


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


def _cf2(mu, x):
    """K_mu(x) and K_{mu+1}(x) for x > 2, |mu| <= 0.5 (Steed's algorithm)."""
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
    kmu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    kmu1 = kmu * (mu + x + 0.5 - h) / x
    return kmu, kmu1


def _start(nu, x):
    """Split |nu| = mu + nl with |mu| <= 0.5; K_mu(x) and K_{mu+1}(x)."""
    anu = abs(nu)
    nl = int(anu + 0.5)
    mu = anu - nl
    if x <= 2.0:
        k0, k1 = _temme_series(mu, x)
    else:
        k0, k1 = _cf2(mu, x)
    return mu, nl, k0, k1


def bessel_k(nu, x):
    """K_nu(x) for real order, x > 0.  K_{-nu} = K_nu by construction."""
    mu, nl, k0, k1 = _start(nu, x)
    xi = 2.0 / x
    for l in range(1, nl):
        k0, k1 = k1, k0 + (mu + l) * xi * k1
    return k1 if nl > 0 else k0


def log_bessel_k(nu, x):
    """log K_nu(x), finite where K_nu(x) itself overflows (small x, large
    order).  The upward recurrence is renormalised at every step."""
    mu, nl, k0, k1 = _start(nu, x)
    if nl == 0:
        return math.log(k0)
    log_scale = 0.0
    xi = 2.0 / x
    for l in range(1, nl):
        log_scale += math.log(k1)
        k0, k1 = 1.0, k0 / k1 + (mu + l) * xi
    return log_scale + math.log(k1)


def pdf_w(w, m1, m2, r):
    """Density of the unit-scale product variable at w > 0."""
    h = 0.5 * (m1 + m2)
    z = 2.0 * math.sqrt(r * w)
    if z == 0.0:
        z = 2.0 * math.sqrt(r) * math.sqrt(w)  # r * w underflows
    k = bessel_k(m1 - m2, z)
    if k == 0.0:
        return 0.0
    lg = math.lgamma(m1) + math.lgamma(m2)
    log_front = h * math.log(r) + (h - 1.0) * math.log(w) - lg
    if math.isinf(k):
        # the Bessel factor overflows where the power factor underflows
        return 2.0 * math.exp(log_front + log_bessel_k(m1 - m2, z))
    return 2.0 * math.exp(log_front) * k


def _quad_or_raise(f, a, b, what):
    val, err, used, ok = adaptive_gk15(f, a, b, _ABS_TOL, _REL_TOL, _MAX_SUBDIV)
    if not ok:
        raise QuadratureAccuracyError(
            f"{what}: quadrature did not converge after {used} subdivisions "
            f"(error estimate {err:.3e})",
            val,
            err,
        )
    return val


def cdf_w(x, m1, m2, r):
    """P(W <= x) by quadrature of the density.

    Substituting w = u^2 removes the integrable endpoint singularity that
    appears when m1 + m2 <= 2.
    """
    if x <= 0.0:
        return 0.0

    def integrand(u):
        w = u * u
        if w == 0.0:
            # u^2 underflows: the mass this node stands for is far below
            # any tolerance
            return 0.0
        return 2.0 * u * pdf_w(w, m1, m2, r)

    val = _quad_or_raise(integrand, 0.0, math.sqrt(x), "cdf")
    return min(max(val, 0.0), 1.0)


def sf_w(x, m1, m2, r):
    """P(W > x); integrates the upper tail directly when the CDF is near 1.

    The tail integral maps (x, inf) onto (0, 1] via w = x / t.
    """
    if x <= 0.0:
        return 1.0
    c = cdf_w(x, m1, m2, r)
    if c <= TAIL_SWITCH:
        return 1.0 - c

    def integrand(t):
        p = pdf_w(x / t, m1, m2, r)
        if p == 0.0:
            return 0.0
        return p * x / (t * t)

    val = _quad_or_raise(integrand, 0.0, 1.0, "survival tail")
    return min(max(val, 0.0), 1.0)
