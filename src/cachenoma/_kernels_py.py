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
* Far-tail bound, wherever a Chernoff bound puts P(V > c) below half the
  least subnormal (c from about 6e5 at shapes 0.5 to 1.2e6 at shapes
  100): P(V > c) = 0 and P(V <= c) = 1, exactly the nearest floats.
* Gauss-Hermite, everywhere else (above the mean, and below it for shapes
  whose mean lies beyond the series' reach, c above about 10): P(V <= c)
  and P(V > c) are averages of regularized incomplete gamma functions over
  a Gamma variable, the first formed at or below the mean and the second
  above it, by rules centred at the integrand's mode.  Pairs of rules run
  in turn, 24 points checked by 16, then 32 by 24 and 48 by 32, and the
  first pair that agrees to ``_REL_TOL`` times min(P(V <= c), P(V > c))
  keeps its value.  Where no pair agrees (near the mean of two close
  shapes), the rules run on the other average.

Where every check refuses, ``QuadratureAccuracyError`` carries the first
Gauss-Hermite estimate; a census of 16 000 points over shapes 0.5 to 100,
c from 1e-6 to 1e3 times the mean, found no such input.
"""
import functools
import math
import sys

from .errors import QuadratureAccuracyError

_U = sys.float_info.epsilon / 2  # unit roundoff
_LN2 = math.log(2.0)
_MAXIT = 30000

# Tolerances of the distribution routes: each keeps a value only where its
# own error bound or check meets them.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9


# 1/Gamma(1+z) = sum a_k z^k (DLMF 5.7.1): mpmath's a_0 ... a_21 to the double
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13)


def _gamma_pair(mu):
    """(G1, G2, 1/Gamma(1+mu), 1/Gamma(1-mu)), |mu| <= 0.5, as Numerical
    Recipes' ``beschb`` forms them but from ``_RGAMMA_TAYLOR``: Temme's
    G1 = -sum a_(2k+1) mu^2k and G2 = sum a_2k mu^2k by Horner's rule in mu^2,
    1/Gamma(1 +- mu) = G2 -+ mu G1; within 1, 1, 3 and 3 u of mpmath."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
     a16, a17, a18, a19, a20, a21) = _RGAMMA_TAYLOR
    m2 = mu * mu
    g1 = -((((((((((a21 * m2 + a19) * m2 + a17) * m2 + a15) * m2 + a13) * m2
                + a11) * m2 + a9) * m2 + a7) * m2 + a5) * m2 + a3) * m2 + a1)
    g2 = ((((((((((a20 * m2 + a18) * m2 + a16) * m2 + a14) * m2 + a12) * m2
               + a10) * m2 + a8) * m2 + a6) * m2 + a4) * m2 + a2) * m2 + a0)
    return g1, g2, g2 - mu * g1, g2 + mu * g1


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
        if abs(delta) < abs(total) * _U:
            break
    return total, total1 * (2.0 / x)


def _start(nu, x):
    """Split |nu| = mu + nl with |mu| <= 0.5; e^x K_mu(x) and e^x K_{mu+1}(x):
    up to x = 2, where it costs less than the rule, Temme's series times e^x;
    above, the trapezoidal rule on the positive-term integral (DLMF 10.32.9)

        e^x K_nu(x) = int_0^inf e^(-2 x sinh^2(t/2)) cosh(nu t) dt,

    which converges geometrically in the step h (L. N. Trefethen and
    J. A. C. Weideman, SIAM Rev. 56 (2014) 385-458).  cosh(mu t),
    cosh((mu+1) t) and sinh(t/2) at t = k h run on their Chebyshev recurrences,
    so a node costs one exp, and the sum stops where a K_(mu+1) term falls
    below 1e-17 of it (a nan stops it too).  Both stay within 128 + 2 |ln x| u
    of mpmath, the budget ``_integer_shape_sf`` charges: the rule within 32 u,
    Temme's series up to 83 u seen near x = 2, 1.6 |ln x| u below x = 1e-6."""
    anu = abs(nu)
    nl = int(anu + 0.5)
    mu = anu - nl
    if x <= 2.0:
        k0, k1 = _temme_series(mu, x)
        ex = math.exp(x)
        return mu, nl, k0 * ex, k1 * ex
    h = min(0.2, 0.65 / math.sqrt(x))
    # s = sqrt(2) sinh(t/2), and -x s^2 is formed as (-x s) s: no overflow
    a, b = math.cosh(mu * h), math.cosh((mu + 1.0) * h)
    s = math.sqrt(2.0) * math.sinh(0.5 * h)
    two_a, two_b, two_s = 2.0 * a, 2.0 * b, 2.0 * math.cosh(0.5 * h)
    a0, b0, s0 = 1.0, 1.0, 0.0  # the values at the node before, t = 0
    k0 = k1 = 0.5
    while True:
        e = math.exp(-x * s * s)
        k0 += e * a
        term = e * b
        k1 += term
        if not term >= 1e-17 * k1:
            return mu, nl, h * k0, h * k1
        a, a0 = two_a * a - a0, a
        b, b0 = two_b * b - b0, b
        s, s0 = two_s * s - s0, s


def bessel_k(nu, x):
    """K_|nu|(x), x > 0, read off ``_log_k_ladder``: inf where it overflows
    and 0.0 where it underflows."""
    [log_k], _ = _log_k_ladder(abs(nu), x, 1)
    try:
        return math.exp(log_k)
    except OverflowError:
        return math.inf


def _log_k_ladder(nu, x, count):
    """([log K_(nu+i)(x) for i < count], scale), nu >= 0, off one upward
    recurrence from the ``_start`` pair e^x K, rescaled by 2^-e where it
    would overflow (small x, high order), so every value keeps its relative
    precision, even where K itself is subnormal or underflows.  ``scale`` =
    x + e ln 2 for the factors taken off."""
    mu, nl, k0, k1 = _start(nu, x)
    exponent, shift = 0, -x
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
            shift = exponent * _LN2 - x
            k2 = k0 + (mu + l) * xi * k1
        k0, k1 = k1, k2
    logs.append(math.log(k1 if top else k0) + shift)
    return logs, exponent * _LN2 + x


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
    from 0.5 to 101) and the additions; 10 |ln c^((m+k)/2)|; 6 |ln K|;
    2 |shift| + 2 e ln 2 <= 4 scale - 2 z for the ladder's shift by e ln 2 - z
    (the rounded ln 2, the product, the difference and the log of a value
    that far from K); 128 + 2 |ln z| for its start pair and 5 per step;
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
                 + 4.0 * scale - z + 158.0)
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
    and G2 (each within 1 u) and for the exp, expm1 and log calls.  Where
    m1 - m2 is not a float, the rounding of nu shifts the order the series is
    summed at; the bound adds that shift times the sensitivity of the terms to
    it.  The value is kept where the bound is at most ``_ABS_TOL`` and
    ``_REL_TOL`` times min(cdf, sf).
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
    for i in map(float, range(1, _MAXIT)):  # float: faster arithmetic
        b += 2.0
        an = i * (a - i)
        d = 1.0 / (an * d + b)
        c = b + an / c
        cd = c * d
        h *= cd
        if not abs(cd - 1.0) > 2.0 * _U:  # a nan stops it too
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
    Newton's method finds the mode from where phi' vanishes with rho
    replaced by its asymptote (lo - t for P at small t, t - lo + 1 for Q at
    large t): e^y = x, the positive root of x^2 - (hi - lo + [upper]) x - c.
    It stops once a step is below 1e-3, and the rules are scaled by
    (-phi'')^(-1/2) from its last step; exact centring is not needed, since
    the rules check each other.  They run in pairs, 24 points checked by 16,
    then 32 by 24 and 48 by 32, each sum formed once, and the first pair
    that agrees to ``_REL_TOL`` times min(P(V <= c), P(V > c)) gives the
    value and its error estimate, else the last pair.  Where Newton's
    method does not settle within 8 steps, or the arithmetic fails (c many
    decades from the mean, where phi's derivatives cancel), the result is
    nan with an infinite error estimate.
    """
    lo, hi = min(m1, m2), max(m1, m2)
    s = 1.0 if upper else -1.0
    side = 1 if upper else 0  # log F's place in _log_gamma_pq's result
    log_c = math.log(c)
    lg_lo, lg_hi = math.lgamma(lo), math.lgamma(hi)

    def phi(y):
        return (hi * y - math.exp(y) - lg_hi
                + _log_gamma_pq(lo, log_c - y, lg_lo)[side])

    b = hi - lo + side
    y = math.log(0.5 * (b + math.sqrt(b * b + 4.0 * c)))
    failed = math.nan, math.nan, math.inf
    try:
        for _ in range(8):
            logs = _log_gamma_pq(lo, log_c - y, lg_lo)
            lf, log_tg = logs[side], logs[2]
            rho, t, x = math.exp(log_tg - lf), math.exp(log_c - y), math.exp(y)
            top = hi * y - x - lg_hi + lf
            d2 = -s * rho * (lo - t) - rho * rho - x
            step = (s * rho + hi - x) / d2
            y -= step
            if abs(step) <= 1e-3:
                break
        else:
            return failed
        scale = 1.0 / math.sqrt(-d2)
        coarse = None
        for n in (16, 24, 32, 48):
            fine = scale * math.exp(top) * sum(
                v * math.exp(phi(y + scale * u) - top)
                for u, v in _hermite_rule(n))
            if coarse is not None:
                f, err = min(fine, 1.0), abs(fine - coarse)
                if err <= _REL_TOL * min(f, 1.0 - f):
                    break
            coarse = fine
    except (ArithmeticError, ValueError):
        # a Newton step or the curvature leaves the float range
        return failed
    return (1.0 - f, f, err) if upper else (f, 1.0 - f, err)


def _sf_underflows(c, m1, m2):
    """Whether P(V > c) is provably below half the least subnormal 2^-1074,
    so that its nearest float is 0.  {V > c} lies in {X > z} or {Y > z},
    z = sqrt(c), and for a shape m < z, P(X > z) <= (z/m)^m e^(m-z)
    (Chernoff).  Both terms below e^-746 < 2^-1076 (ln 2^-1076 = -745.8)
    put the sum below 2^-1075, with room for the rounding of the logs."""
    z = math.sqrt(c)
    return all(m < z and m * math.log(z / m) + m - z < -746.0
               for m in (m1, m2))


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
    if _sf_underflows(c, m1, m2):
        return 1.0, 0.0
    upper = c > m1 * m2
    cdf, sf, err = _hermite_cdf_sf(c, m1, m2, upper)
    if err <= _REL_TOL * min(cdf, sf):
        return cdf, sf
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
