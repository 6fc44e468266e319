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
with c = r x.  c = 0 and c = inf are answered exactly; otherwise the first
of these routes that applies runs.  Each is a closed form or a fixed rule
with its own error check, held to ``_ABS_TOL`` and ``_REL_TOL``:

* Bessel-K sum, when either shape is an integer: P(V > c) is a finite sum
  of Bessel K terms (Karagiannidis, Sagias and Mathiopoulos, "N*Nakagami",
  IEEE Trans. Commun. 2007; Gradshteyn and Ryzhik 3.471.9), one per unit
  of that shape with no cap, read off at most two Bessel recurrences, and
  P(V <= c) is 1 minus it.  Each call bounds its own rounding, so a small
  P(V <= c), which 1 minus the sum holds only absolutely, passes on.
* Series, for every other shape pair, where its error bound holds: the
  ascending series of K_nu (DLMF 10.27.4 and 10.25.2) integrated term by
  term gives P(V <= c) in closed form, and P(V > c) is 1 minus it.  One
  series serves every order nu = m1 - m2: each pole of its first sum is
  paired with the matching term of its second (Temme's device), so it
  reduces to DLMF 10.31.1 at an integer order and loses nothing next to
  one.  The terms alternate in sign, and the cancellation grows with c
  (like e^(4 sqrt c) relative to a small P(V > c)).  Each call bounds its
  own rounding error and keeps the value only where the bound is at most
  ``_ABS_TOL`` and ``_REL_TOL`` times min(P(V <= c), P(V > c)).  No
  constant picks a crossover.
* Gauss-Laguerre tail, above the mean m1 m2 wherever the series' bound
  fails: with z = 2 sqrt(v) = 2 sqrt(c) + t, P(V > c) is e^(-t) times a
  factor that grows only like a power of t, integrated over t > 0 by a
  fixed 16-point rule (DLMF 3.5.v); P(V <= c) is 1 minus it.  The value is
  kept where a 10-point rule agrees with it to ``_REL_TOL``, relative
  only, so the deep tail keeps its relative precision.  The rules
  disagree near the mean for large shapes.
* Gauss-Hermite, wherever none of the routes above applies (shapes whose
  mean lies beyond the series' reach, c above about 10): P(V <= c) and
  P(V > c) are averages of regularized incomplete gamma functions over a
  Gamma variable, the first formed at or below the mean and the second
  above it, by a fixed 32-point rule centred at the integrand's mode.  The
  value is kept where a 20-point rule agrees with it to ``_REL_TOL`` times
  min(P(V <= c), P(V > c)).  Near the mean of two close shapes, where the
  rules disagree, the Gauss-Laguerre rule is tried below the mean too,
  and then the Hermite rule on the other average.

Where every check refuses, ``QuadratureAccuracyError`` carries the first
Hermite estimate; a census of 16 000 points over shapes 0.5 to 100, c
from 1e-6 to 1e3 times the mean, found no such input.
"""
import functools
import math
import sys

from .errors import QuadratureAccuracyError

_EPS = 1e-16
_U = sys.float_info.epsilon / 2  # unit roundoff
_LN2 = math.log(2.0)
_MAXIT = 30000

# Tolerances of the distribution routes: each keeps a value only where its
# own error bound or check meets them.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9


def _gamma_pair(mu):
    """(G1, G2, 1/Gamma(1+mu), 1/Gamma(1-mu)) for |mu| <= 0.5.

    G1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) continued through mu = 0,
    computed from the Taylor series of 1/Gamma(1+z) near zero to avoid the
    cancellation in the difference quotient.
    """
    inv_p = math.exp(-math.lgamma(1.0 + mu))
    inv_m = math.exp(-math.lgamma(1.0 - mu))
    if abs(mu) <= 0.1:
        # the odd Taylor coefficients of 1/Gamma(1+z), of z^11 down to z^1
        # (Euler's gamma), by Horner's rule in mu^2
        mu2 = mu * mu
        g1 = -(((((-0.0000201348547807 * mu2 - 0.0002152416741149) * mu2
                  + 0.0072189432466630) * mu2 - 0.0421977345555443) * mu2
                - 0.0420026350340952) * mu2 + 0.5772156649015329)
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
    for i in map(float, range(1, _MAXIT + 1)):  # float: faster arithmetic
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


def bessel_k(nu, x, scaled=False):
    """K_nu(x) for real order, x > 0.  K_{-nu} = K_nu by construction.
    e^x K_nu(x) when ``scaled``, finite where K_nu(x) underflows (large x)."""
    mu, nl, k0, k1 = _start(nu, x, scaled)
    xi = 2.0 / x
    for l in range(1, nl):
        k0, k1 = k1, k0 + (mu + l) * xi * k1
    return k1 if nl > 0 else k0


def _log_k_ladder(nu, x, count):
    """([log K_(nu+i)(x) for i < count], scale), nu >= 0, off one upward
    recurrence from one ``_start`` pair: on e^x K where K_mu(x) is below the
    normal floats (x beyond about 705), and rescaled by 2^-e where the pair
    would overflow (small x, high order), so every value keeps its relative
    precision.  ``scale`` = x + e ln 2 for the factors taken off."""
    mu, nl, k0, k1 = _start(nu, x)
    shift = 0.0
    if k0 < sys.float_info.min:
        mu, nl, k0, k1 = _start(nu, x, scaled=True)
        shift = -x
    offset, exponent = shift, 0
    xi = 2.0 / x
    top = nl + count - 1
    logs = [math.log(k0) + shift] if nl == 0 < top else []
    for l in range(1, top):
        # k0 and k1 are K_(mu+l-1)(x) and K_(mu+l)(x) times e^-shift
        if l >= nl:
            logs.append(math.log(k1) + shift)
        k2 = k0 + (mu + l) * xi * k1
        if k2 == math.inf:
            e = math.frexp(k1)[1]
            k0, k1 = math.ldexp(k0, -e), math.ldexp(k1, -e)
            exponent += e
            shift = offset + exponent * _LN2
            k2 = k0 + (mu + l) * xi * k1
        k0, k1 = k1, k2
    logs.append(math.log(k1 if top else k0) + shift)
    return logs, exponent * _LN2 - offset


def _integer_shape_sf(c, m1, m2):
    """P(V > c), 0 < c < inf, by the Bessel-K sum when a shape is an
    integer, else None; None also where its bound misses the tolerances.

    With Y ~ Gamma(n, 1) for integer n, P(Y > t) = e^-t sum_{k<n} t^k / k!;
    averaging over the other factor gives, with shape m of it,

        P(V > c) = 2 / Gamma(m) * sum_{k<n} c^((m+k)/2) / k! * K_{m-k}(2 sqrt(c)).

    The terms are positive and formed in log space from ladders of the
    exact orders m - k (k <= m) and k - m (k > m).  The bound is u times
    the sum times a term's roundings at their most: 16 |ln| of 2 / Gamma(m)
    and of k!, plus 26, for lgamma (within 13 u max(1, |value|) of mpmath
    from 0.5 to 101) and the additions; 10 |ln c^((m+k)/2)|; 6 |ln K| and
    5 times the ladder's scale; 700 + 2 |ln z| for its start pair (the worst
    of 20 000 (mu, z) against mpmath was 600 u, at z = 2) and 5 per step;
    z + |m - k| + 1 for the rounding of z (it bounds z d(ln K_nu(z))/dz);
    1 for exp, n for the sum, and half the least subnormal per subnormal.
    """
    m, n = m1, m2
    if not float(n).is_integer():
        if not float(m).is_integer():
            return None
        m, n = n, m
    n = int(n)
    z = 2.0 * math.sqrt(c)
    log_c = math.log(c)
    head = _LN2 - math.lgamma(m)
    low = n - 1 if n - 1 <= m else int(m)  # the last k with k <= m
    log_ks, scale = _log_k_ladder(m - low, z, low + 1)
    log_ks.reverse()
    if low + 1 < n:
        tail, tail_scale = _log_k_ladder(low + 1 - m, z, n - 1 - low)
        log_ks, scale = log_ks + tail, max(scale, tail_scale)
    total = 0.0
    for k, log_k in enumerate(log_ks):
        lg_k = math.lgamma(k + 1.0)
        total += math.exp(head + 0.5 * (m + k) * log_c - lg_k + log_k)
    sf = min(total, 1.0)
    # with lg_k = ln (n-1)! now, |m - k| < m + n and 2 |ln z| <= |ln c| + 2
    roundings = (16.0 * (abs(head) + lg_k) + 6.0 * max(map(abs, log_ks))
                 + (m + n) * (5.0 * abs(log_c) + 7.0) + abs(log_c)
                 + 5.0 * scale + z + 730.0)
    bound = _U * roundings * total + n * 5e-324  # the smallest subnormal
    small = sf if sf < 0.5 else 1.0 - sf
    return sf if bound <= _ABS_TOL and bound <= _REL_TOL * small else None


def _series_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c)), 0 < c < inf, from the ascending series of the
    density integrated term by term, or None where the series' error bound
    misses ``_ABS_TOL`` or ``_REL_TOL``.

    With lo <= hi and the order nu = hi - lo = n + d, n = round(nu),
    |d| <= 1/2, the ascending series of K_nu (DLMF 10.27.4, 10.25.2)
    integrated term by term gives, with a = lo + n + j and b = a + d = hi + j,

        P(V <= c) Gamma(lo) Gamma(hi)
          = sum_{k<n} (-1)^k Gamma(nu-k) c^(lo+k) / ((lo+k) k!)
            + (-1)^n (pi d / sin(pi d)) sum_j c^a
              * (G2 (X_j - Y_j) / d + G1 (X_j + Y_j)),
        X_j = P_j / a,  P_j = 1 / ((n+j)! (1-d)_j),
        Y_j = c^d Q_j / b,  Q_j = 1 / (j! (1+d)_(n+j)).

    Each term of the second sum pairs the pole of Gamma(nu - k) at k = n + j
    with the j-th term of the c^(hi+j) sum, and G1, G2 are ``_gamma_pair(d)``
    (Temme's device, as in ``_temme_series``).  With R_j = (P_j - Q_j) / d
    and E = (c^d - 1) / d,

        (X_j - Y_j) / d = R_j / a + Q_j / (a b) - E Q_j / b,

    and R_j = p_j R_(j-1) + (2j + n) p_j q_j Q_(j-1), where
    P_j = p_j P_(j-1), Q_j = q_j Q_(j-1), p_j = 1 / ((n+j) (j-d)) and
    q_j = 1 / (j (n+j+d)), takes positive updates only, so nothing is
    divided by sin(d pi) or by d.  At d = 0 this is DLMF 10.31.1
    integrated: E = ln c and R_j = P_j (H_j + H_(n+j)).

    The bound is u times the sum of the terms' magnitudes times the
    roundings a term goes through: up to 5 per step of the recurrences that
    form it and 1 for its share of the running sums; 3 times the magnitude
    of the logarithms the first terms are summed from (their additions and
    the lgamma calls); and 50 for forming a term from its parts, for G1
    (whose difference quotient loses up to about 20 u at |d| = 0.1) and for
    the exp, expm1 and log calls.  Where m1 - m2 is not a float, the
    rounding of nu shifts the order the series is summed at; the bound adds
    that shift times the sensitivity of the terms to it.  The value is kept
    where the bound is at most ``_ABS_TOL`` and ``_REL_TOL`` times
    min(cdf, sf).
    """
    lo, hi = min(m1, m2), max(m1, m2)
    nu = hi - lo
    nu_err = abs((hi - (nu - (nu - hi))) + (-lo - (nu - hi)))  # TwoSum
    n = round(nu)
    d = nu - n  # exact: nu lies within a factor of 2 of n
    log_c = math.log(c)
    lg_lo, lg_hi = math.lgamma(lo), math.lgamma(hi)
    lg_nu = math.lgamma(nu) if n else 0.0
    lg_n = math.lgamma(n + 1.0)
    log_pd = math.log(math.pi * d / math.sin(math.pi * d)) if d else 0.0
    # the logarithms of the first terms of the two sums.  The sums are kept
    # in units of e^scale; one whose terms' magnitudes pass the limit cannot
    # meet _ABS_TOL, and the cap keeps every term finite
    lg = -lg_lo - lg_hi + lg_nu + lo * log_c if n else -math.inf
    lh = -lg_lo - lg_hi + log_pd + (lo + n) * log_c - lg_n
    scale = max(lg, lh)
    limit = math.exp(min(math.log(_ABS_TOL / _U) - scale, 700.0))
    if limit < 1.0:
        return None
    # the k < n terms of the first sum, g = (-1)^k Gamma(nu-k) c^(lo+k) / k!,
    # and n! Q_0 and n! R_0 by the recurrences in n from Q = 1 and R = 0
    total = size = 0.0
    g = math.exp(lg - scale)
    q, r = 1.0, 0.0
    for k in range(n):
        t = g / (lo + k)
        total += t
        size += abs(t)
        if k + 1 < n:
            g *= -c / ((k + 1) * (nu - k - 1))
        r += q / (k + 1 + d)
        q *= (k + 1) / (k + 1 + d)
    p = math.exp(lh - scale)  # c^a P_j; q and r become c^a Q_j and c^a R_j
    q *= p
    r *= p
    e = math.expm1(d * log_c) / d if d else log_c
    cd = 1.0 + d * e  # c^d
    g1, g2, _, _ = _gamma_pair(d)
    ag1, ag2 = -g1, g2  # G1 < 0 < G2 for |d| <= 1/2
    if n % 2:
        g1, g2 = -g1, -g2
    # the second sum is g2 sr + g1 sp + g2 sqab + (g1 c^d - g2 E) sqb, with
    # the positive sums sr of r / a, sp of p / a, sqab of q / (a b) and sqb
    # of q / b
    q_mag = ag1 * cd + ag2 * abs(e)
    sp_limit = limit / ag1
    # past j = 0, a and b exceed 1 and b > a - 1/2, so a term is at most
    # (|G1| + |G2|) (1 + |E| + c^d) (p + q + r) / (a - 1/2)
    tail = (ag1 + ag2) * (1.0 + abs(e) + cd) / (0.5 * _U)
    lon = lo + n
    a = lon
    j = 0.0
    nj = float(n)  # n + j
    sr = sp = sqab = sqb = 0.0
    while True:
        qb = q / (a + d)
        sr += r / a
        sp += p / a
        sqab += qb / a
        sqb += qb
        j += 1.0
        nj += 1.0
        a = lon + j
        pc = c / (nj * (j - d))
        qj = 1.0 / (j * (nj + d))
        qc = c * qj
        s = (j + nj) * qj
        r = pc * (r + s * q)
        p *= pc
        q *= qc
        if not (pc + qc) * (1.0 + s) <= 0.5:  # nan too, from a nan c
            # the terms may still grow
            if not sp <= sp_limit:  # then so does the sum of magnitudes
                return None
        elif tail * (p + q + r) <= (a - 0.5) * (
                size + ag2 * (sr + sqab) + ag1 * sp + q_mag * sqb):
            # each step from here on scales p + q + r by at most 1/2, so
            # the rest of the sum is below u times the sum of magnitudes
            break
    size += ag2 * (sr + sqab) + ag1 * sp + q_mag * sqb
    if not size <= limit:
        return None
    total += g2 * (sr + sqab) + g1 * sp + (g1 * cd - g2 * e) * sqb
    terms = n + j
    log_mag = (abs(lg_lo) + abs(lg_hi) + abs(lg_nu) + lg_n + log_pd
               + abs(lo * log_c) + abs(lon * log_c))
    weight = math.exp(scale)
    cdf = min(max(total * weight, 0.0), 1.0)
    sf = 1.0 - cdf
    roundings = 6.0 * terms + 3.0 * log_mag + 50.0
    shift = abs(log_c) + math.log(terms + hi + 2.0)
    bound = size * weight * (_U * roundings + nu_err * shift)
    if bound <= _ABS_TOL and bound <= _REL_TOL * min(cdf, sf):
        return cdf, sf
    return None


# Gauss-Laguerre rules (DLMF 3.5.v) for int_0^inf e^-t f(t) dt, used by the
# survival tail: the roots x of L_n and the weights x / ((n+1) L_{n+1}(x))^2
# of the 16- and 10-point rules, correctly rounded.
_XGL16 = (
    0.08764941047892784,
    0.46269632891508083,
    1.141057774831227,
    2.1292836450983805,
    3.4370866338932067,
    5.078018614549768,
    7.070338535048234,
    9.438314336391938,
    12.21422336886616,
    15.441527368781617,
    19.180156856753136,
    23.515905693991908,
    28.57872974288214,
    34.58339870228662,
    41.94045264768833,
    51.70116033954332,
)
_WGL16 = (
    0.206151714957801,
    0.3310578549508842,
    0.26579577764421414,
    0.13629693429637754,
    0.04732892869412522,
    0.011299900080339454,
    0.0018490709435263109,
    0.00020427191530827845,
    1.4844586873981299e-05,
    6.828319330871199e-07,
    1.8810248410796733e-08,
    2.8623502429738814e-10,
    2.1270790332241028e-12,
    6.297967002517868e-15,
    5.050473700035513e-18,
    4.161462370372855e-22,
)
_XGL10 = (
    0.13779347054049243,
    0.7294545495031705,
    1.808342901740316,
    3.4014336978548996,
    5.552496140063804,
    8.330152746764497,
    11.843785837900066,
    16.279257831378104,
    21.99658581198076,
    29.92069701227389,
)
_WGL10 = (
    0.30844111576502015,
    0.40111992915527356,
    0.2180682876118094,
    0.062087456098677746,
    0.0095015169751811,
    0.0007530083885875388,
    2.8259233495995656e-05,
    4.2493139849626863e-07,
    1.8395648239796308e-09,
    9.911827219609008e-13,
)


def _laguerre_sf(c, m1, m2):
    """P(V > c), 0 < c < inf, by a fixed Gauss-Laguerre rule, or None where
    the rule's own error check fails.  It runs above the mean, and at or
    below it only where the Hermite rules disagree, near the mean.

    With z = 2 sqrt(v) = z0 + t, z0 = 2 sqrt(c), h = (m1 + m2) / 2 and
    nu = m1 - m2,

        P(V > c) = 2 c^(h-1/2) e^(-z0) / (Gamma(m1) Gamma(m2))
                   * int_0^inf e^(-t) (z/z0)^(2h-1) e^z K_nu(z) dt,

    and the factor after e^(-t) is smooth and grows only like a power of
    t, which a 16-point rule integrates well.  The factor in front is
    formed in log space, so a large c gives 0 rather than an overflow.
    The 16-point value is kept where the 10-point rule agrees with it to
    ``_REL_TOL`` relative, with no absolute floor, so a deep-tail value
    keeps its relative precision.
    """
    lo, hi = min(m1, m2), max(m1, m2)
    nu = hi - lo
    p = m1 + m2 - 1.0  # 2h - 1
    z0 = 2.0 * math.sqrt(c)

    def rule(nodes, weights):
        return sum(w * math.exp(p * math.log1p(t / z0))
                   * bessel_k(nu, z0 + t, scaled=True)
                   for t, w in zip(nodes, weights))

    try:
        g16 = rule(_XGL16, _WGL16)
        g10 = rule(_XGL10, _WGL10)
    except OverflowError:
        # (z/z0)^(2h-1) overflows at the outer nodes (a large shape near
        # the mean): the factor is far from a power of t
        return None
    if not (0.0 < g16 < math.inf and abs(g16 - g10) <= _REL_TOL * g16):
        return None
    log_front = (math.log(2.0) + 0.5 * p * math.log(c) - z0
                 - math.lgamma(lo) - math.lgamma(hi))
    return math.exp(log_front + math.log(g16))


def _log_gamma_pq(a, log_t, lg_a):
    """(log P(a, t), log Q(a, t), log(t^a e^-t / Gamma(a))) at t = e^log_t
    for the regularized incomplete gamma functions, with lg_a =
    log Gamma(a); the smaller of P and Q is relatively precise.  Below
    t = a + 1 the series of DLMF 8.7.1 gives P, above it the continued
    fraction of DLMF 8.9.2 (modified Lentz method) gives Q, and the other
    is 1 minus it."""
    t = math.exp(log_t)
    log_tg = a * log_t - t - lg_a
    if t < a + 1.0:
        # P = t^a e^-t / Gamma(a + 1) * sum_k t^k / ((a+1) ... (a+k))
        term = total = 1.0
        k = a
        while term > _U * total:
            k += 1.0
            term *= t / k
            total += term
        log_p = log_tg + math.log(total / a)
        return log_p, math.log1p(-math.exp(log_p)), log_tg
    # for t >= a + 1 the Lentz denominators stay well away from 0 (above 2
    # for a from 0.5 to 100 and t up to 1e6 (a + 1)): no guard is needed
    b = t + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, _MAXIT):
        b += 2.0
        d = 1.0 / (i * (a - i) * d + b)
        c = b + i * (a - i) / c
        h *= c * d
        if not abs(c * d - 1.0) > 2.0 * _U:  # a nan stops it too
            break
    log_q = log_tg + math.log(h)
    return math.log1p(-math.exp(log_q)), log_q, log_tg


@functools.cache
def _hermite_rule(n):
    """The n-point Gauss-Hermite rule (DLMF 3.5.vi), n even, built on first
    use as pairs (s, v) with int f(y) dy about sum v f(s) for f near a
    Gaussian of unit curvature: s = sqrt(2) x and v = sqrt(2) w e^(x^2) for
    the roots x of H_n and their weights w.  Newton's method on the
    orthonormal Hermite recurrence finds the roots from the largest down,
    from the guesses of Press et al., Numerical Recipes, 3rd ed., 4.6."""
    roots, rule = [], []
    for i in range(n // 2):
        if i == 0:
            z = math.sqrt(2.0 * n + 1.0) - 1.85575 * (2.0 * n + 1.0) ** (-1 / 6)
        elif i == 1:
            z -= 1.14 * n ** 0.426 / z
        elif i < 4:
            z = (1.76 + 0.05 * i) * z - (0.76 + 0.05 * i) * roots[i - 2]
        else:
            z = 2.0 * z - roots[i - 2]
        for _ in range(100):
            h0, h1 = 0.0, math.pi ** -0.25
            for j in range(1, n + 1):
                h0, h1 = h1, (z * math.sqrt(2.0 / j) * h1
                              - math.sqrt((j - 1.0) / j) * h0)
            # h1 = h_n(z), h0 = h_(n-1)(z) and h_n' = sqrt(2 n) h_(n-1)
            dz = h1 / (math.sqrt(2.0 * n) * h0)
            z -= dz
            if abs(dz) <= 1e-15 * z:
                break
        roots.append(z)
        v = math.sqrt(2.0) * math.exp(z * z) / (n * h0 * h0)
        rule += [(math.sqrt(2.0) * z, v), (-math.sqrt(2.0) * z, v)]
    return tuple(rule)


def _hermite_cdf_sf(c, m1, m2, upper):
    """(P(V <= c), P(V > c), error estimate), 0 < c < inf, by Gauss-Hermite
    rules centred at the mode of their integrand (Q. Liu and D. A. Pierce,
    Biometrika 81 (1994) 624-629).

    With lo <= hi, V = X Y for X ~ Gamma(hi, 1) and Y ~ Gamma(lo, 1), so
    P(V <= c) = E[P(lo, c / X)] and P(V > c) = E[Q(lo, c / X)]; the second
    is averaged when ``upper``, else the first, F below.  In y = log X the
    average is the integral of e^phi, with

        phi(y) = hi y - e^y - log Gamma(hi) + log F(lo, c e^-y),

    concave because log X and log Y have log-concave densities.  With
    t = c e^-y, rho = t^lo e^-t / (Gamma(lo) F) and s = +1 for Q, -1 for P,
    phi' = s rho + hi - e^y and phi'' = -s rho (lo - t) - rho^2 - e^y.
    Four Newton steps find the mode from where phi' vanishes with rho
    replaced by its asymptote (lo - t for P at small t, t - lo + 1 for Q at
    large t): e^y = x, the positive root of x^2 - (hi - lo + [upper]) x - c.
    The 32-point rule is scaled there by (-phi'')^(-1/2), and the error
    estimate is its distance to the 20-point rule; nan and inf where the
    arithmetic fails.
    """
    lo, hi = min(m1, m2), max(m1, m2)
    s = 1.0 if upper else -1.0
    log_c = math.log(c)
    lg_lo, lg_hi = math.lgamma(lo), math.lgamma(hi)

    def phi(y):
        """phi(y), phi'(y) and phi''(y)."""
        log_p, log_q, log_tg = _log_gamma_pq(lo, log_c - y, lg_lo)
        log_f = log_q if upper else log_p
        rho, t, x = math.exp(log_tg - log_f), math.exp(log_c - y), math.exp(y)
        return (hi * y - x - lg_hi + log_f, s * rho + hi - x,
                -s * rho * (lo - t) - rho * rho - x)

    b = hi - lo + (1.0 if upper else 0.0)
    y = math.log(0.5 * (b + math.sqrt(b * b + 4.0 * c)))
    try:
        for _ in range(4):
            _, d1, d2 = phi(y)
            y -= d1 / d2
        top, _, d2 = phi(y)
        scale = 1.0 / math.sqrt(-d2)
        f32, f20 = (scale * math.exp(top) * sum(
            v * math.exp(phi(y + scale * u)[0] - top)
            for u, v in _hermite_rule(n)) for n in (32, 20))
    except (ArithmeticError, ValueError):
        # far from where the routes before it hand over (c many decades from
        # the mean), a Newton step or the curvature leaves the float range
        return math.nan, math.nan, math.inf
    f = min(f32, 1.0)
    err = abs(f32 - f20)
    return (1.0 - f, f, err) if upper else (f, 1.0 - f, err)


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
    cdf_sf = _series_cdf_sf(c, m1, m2)
    if cdf_sf is not None:
        return cdf_sf
    upper = c > m1 * m2
    if upper:
        sf = _laguerre_sf(c, m1, m2)
        if sf is not None:
            return 1.0 - sf, sf
    cdf, sf, err = _hermite_cdf_sf(c, m1, m2, upper)
    if err <= _REL_TOL * min(cdf, sf):
        return cdf, sf
    if not upper:
        sf_tail = _laguerre_sf(c, m1, m2)
        if sf_tail is not None:
            return 1.0 - sf_tail, sf_tail
    other = _hermite_cdf_sf(c, m1, m2, not upper)
    if other[2] <= _REL_TOL * min(other[0], other[1]):
        return other[:2]
    raise QuadratureAccuracyError(
        f"no route holds the distribution at c = {c!r}, shapes {m1!r} and "
        f"{m2!r} (Gauss-Hermite error {err:.3e})", sf if upper else cdf, err)


def cdf_w(x, m1, m2, r):
    """P(W <= x) by the route the module docstring describes."""
    return _cdf_sf(x, m1, m2, r)[0]


def sf_w(x, m1, m2, r):
    """P(W > x) by the route the module docstring describes."""
    return _cdf_sf(x, m1, m2, r)[1]
