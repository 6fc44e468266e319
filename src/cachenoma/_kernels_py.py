"""Scalar kernels: the modified Bessel function of the second kind for real
order, and the density / CDF / survival function of the product of two
independent Gamma variables (the squared envelope of a cascaded Nakagami-m
channel, before any geometry scaling).

The product variable W = X * Y uses shape/scale parametrisation
X ~ Gamma(m1, omega1/m1), Y ~ Gamma(m2, omega2/m2) and is summarised here by
``r = m1 * m2 / (omega1 * omega2)``:

    pdf(w) = 2 r^h w^(h-1) K_{m1-m2}(2 sqrt(r w)) / (Gamma(m1) Gamma(m2)),
    h = (m1 + m2) / 2.

``_cdf_sf`` alone decides how P(W <= x) and P(W > x) are computed.  It
works with the unit-rate variable V = r W, whose density is the one above
with r = 1 and whose mean is m1 m2: P(W <= x) = P(V <= c) with c = r x.
c = 0 and c = inf are answered exactly; otherwise the routes of
``_ROUTES`` run in turn.  Each is a closed form or a fixed rule that
returns (P(V <= c), P(V > c), error bound), or None where it does not
apply, and the first value that ``_kept`` passes is kept: its bound is at
most ``_ABS_TOL`` and ``_REL_TOL`` times min(P(V <= c), P(V > c)).  The
first four routes' bounds are proven; the last route's is an estimate.

* Bessel-K sum, when either shape is an integer: P(V > c) is a finite sum
  of Bessel K terms (Karagiannidis, Sagias and Mathiopoulos, "N*Nakagami",
  IEEE Trans. Commun. 2007; Gradshteyn and Ryzhik 3.471.9), one per unit
  of that shape with no cap, read off at most two Bessel recurrences, and
  P(V <= c) is 1 minus it.  Each call bounds its own rounding, so a small
  P(V <= c), which 1 minus the sum holds only absolutely, passes on.
* Series, for every other shape pair, where its terms stay within reach:
  the ascending series of K_nu (DLMF 10.27.4 and 10.25.2) integrated term
  by term gives P(V <= c) in closed form, and P(V > c) is 1 minus it.  One
  series serves every order nu = m1 - m2: each pole of its first sum is
  paired with the matching term of its second (Temme's device), so it
  reduces to DLMF 10.31.1 at an integer order and loses nothing next to
  one.  The terms alternate in sign, and the cancellation grows with c
  (like e^(4 sqrt c) relative to a small P(V > c)).  Each call bounds its
  own rounding error.  No constant picks a crossover.
* Far-tail bound, wherever a Chernoff bound puts P(V > c) below half the
  least subnormal (c from about 6e5 at shapes 0.5 to 1.2e6 at shapes
  100): P(V > c) = 0 and P(V <= c) = 1, exactly the nearest floats.
* Trapezoidal rule, everywhere else but where P(V <= c) is too small for 1
  minus a survival value, which a Chernoff bound decides before any node
  runs: K_nu's cosh integral (DLMF 10.32.9), integrated over z first,
  leaves P(V > c) as an integral of incomplete gamma functions, which the
  rule takes with a proven error bound (11 nodes at the median of a census,
  33 at most).
* Gauss-Hermite, for the rest (below the mean of shapes whose mean lies
  beyond the series' reach): P(V <= c) as an average of incomplete gamma
  functions over a Gamma variable, by rules checked by smaller ones; the
  difference of two rules is an error estimate, not a bound.

Where every route refuses, ``QuadratureAccuracyError`` names the last route
that gave an estimate and carries it: the trapezoidal rule's P(V > c) above
the mean, the Gauss-Hermite rules' P(V <= c) at or below it.  A census of
14 600 points over 200 shape pairs from 0.5 to 100, c from 1e-12 to 1e6
times the mean, found no such input.

What depends on the shapes alone is worked out once per pair, in its
``_Plan``: lgammas, ln k! and the series' constants and a table of term
coefficients of fixed length, ``_SERIES_TERMS``, so a series call is one sum
of table entries times c^j; a call that reaches the table's end refuses.
The plan is never changed once built, so no value depends on the order of
the calls.  The routes always compute; the memo of (cdf, sf) pairs is
``channel``'s.
"""
import functools
import math
import sys

from .errors import QuadratureAccuracyError

_U = sys.float_info.epsilon / 2  # unit roundoff
_LN2 = math.log(2.0)
_MAXIT = 30000

# Tolerances of the distribution routes, read by ``_kept`` on every call
_ABS_TOL = 1e-10
_REL_TOL = 1e-9


def _kept(cdf, sf, bound):
    """Whether a route's value passes: the one keep-rule of every route."""
    return bound <= _ABS_TOL and bound <= _REL_TOL * min(cdf, sf)


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
    of mpmath, the budget ``_integer_shape_cdf_sf`` charges: the rule within
    32 u, Temme's series up to 83 u near x = 2, 1.6 |ln x| u below x = 1e-6."""
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


def _log_k_ladder(nu, x, count):
    """([log K_(nu+i)(x) for i < count], scale), nu >= 0, off one upward
    recurrence from the ``_start`` pair e^x K, rescaled by 2^-e where a step
    would overflow (small x, high order), so every value keeps its relative
    precision, even where K itself is subnormal or underflows.  ``scale`` =
    x + e ln 2 for the factors taken off.  The start pair itself is not
    rescaled: it is finite for x above about 4e-206 (K_1.5 overflows below),
    which takes in the Bessel-K sum's smallest z = 2 sqrt(5e-324)."""
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


# Entries in a shape pair's series table, more than twice what any kept
# value has been seen to read: at most 26 over the 2824 values kept on the
# kernel tests' shape census at four times its density in c, and at most 21
# over 13 825 distinct values kept by the heaviest commands (surface-nonint
# at its five SNRs, split optima at extreme shapes, validate, concavity).
# Where a call reaches the table's end, the next route answers.
_SERIES_TERMS = 64


class _Plan:
    """What the routes need from a shape pair lo <= hi alone: lgammas, ln k!
    below an integer shape, and the series' constants and its table of
    ``_SERIES_TERMS`` entries; ``_plan`` keeps the 16 pairs used last.  Built
    whole here and never changed after."""

    __slots__ = ("lg_lo", "lg_hi", "lg_sum", "log_fact", "series", "terms")

    def __init__(self, lo, hi):
        self.lg_lo, self.lg_hi = lg_lo, lg_hi = math.lgamma(lo), math.lgamma(hi)
        self.lg_sum = math.lgamma(lo + hi)
        top = max(int(m) if float(m).is_integer() else 0 for m in (lo, hi))
        self.log_fact = tuple(math.lgamma(k + 1.0) for k in range(top))
        nu = hi - lo
        nu_err = abs((hi - (nu - (nu - hi))) + (-lo - (nu - hi)))  # TwoSum
        n = round(nu)
        d = nu - n  # exact: nu lies within a factor of 2 of n
        lg_nu = math.lgamma(nu) if n else 0.0
        lg_n = math.lgamma(n + 1.0)
        log_pd = math.log(math.pi * d / math.sin(math.pi * d)) if d else 0.0
        g1, g2, _, _ = _gamma_pair(d)
        sign = -1.0 if n % 2 else 1.0
        lon, ag1, ag2 = lo + n, -g1, g2
        g1, g2 = sign * g1, sign * g2
        # the c-free parts of lg, lh and log_mag; G1 < 0 < G2 for |d| <= 1/2
        self.series = (n, d, lon, -lg_lo - lg_hi + lg_nu,
                       -lg_lo - lg_hi + log_pd, lg_n,
                       abs(lg_lo) + abs(lg_hi) + abs(lg_nu) + lg_n + log_pd,
                       g1, g2, ag1, ag2, nu_err)
        # n! Q_0 and n! R_0 by the recurrences in n from Q = 1 and R = 0
        q, r = 1.0, 0.0
        for k in range(n):
            r += q / (k + 1 + d)
            q *= (k + 1) / (k + 1 + d)
        # entry j: j + 1, term j's signed and magnitude coefficient and
        # Q_j / b per unit of P_0 c^j, and c^-1 times the ratio bound and
        # (P + Q + R) / (a - 1/2) at j + 1
        j, p, terms = 0.0, 1.0, []
        for _ in range(_SERIES_TERMS):
            a = lon + j
            qb = q / (a + d)
            x, y = r / a + qb / a, p / a
            j += 1.0
            nj = n + j
            # divisions, not reciprocals: P, Q and R take 3, 3 and 4
            # roundings a step
            p_den, q_den = nj * (j - d), j * (nj + d)
            s = (j + nj) / q_den
            r = (r + s * q) / p_den
            p /= p_den
            q /= q_den
            terms.append((j, g2 * x + g1 * y, ag2 * x + ag1 * y, qb,
                          (1.0 / p_den + 1.0 / q_den) * (1.0 + s),
                          (p + q + r) / (lon + j - 0.5)))
        self.terms = tuple(terms)


_plan = functools.lru_cache(maxsize=16)(_Plan)


def _integer_shape_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c), error bound), 0 < c < inf, by the Bessel-K sum
    when a shape is an integer, else None.

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
    plan = _plan(min(m1, m2), max(m1, m2))
    z = 2.0 * math.sqrt(c)
    log_c = math.log(c)
    head = _LN2 - (plan.lg_lo if m <= n else plan.lg_hi)
    low = n - 1 if n - 1 <= m else int(m)  # the last k with k <= m
    log_ks, scale = _log_k_ladder(m - low, z, low + 1)
    log_ks.reverse()
    if low + 1 < n:
        tail, tail_scale = _log_k_ladder(low + 1 - m, z, n - 1 - low)
        log_ks, scale = log_ks + tail, max(scale, tail_scale)
    total = 0.0
    for k, log_k in enumerate(log_ks):
        lg_k = plan.log_fact[k]
        total += math.exp(head + 0.5 * (m + k) * log_c - lg_k + log_k)
    sf = min(total, 1.0)
    # with lg_k = ln (n-1)! now, |m - k| < m + n and 2 |ln z| <= |ln c| + 2
    roundings = (16.0 * (abs(head) + lg_k) + 6.0 * max(map(abs, log_ks))
                 + (m + n) * (5.0 * abs(log_c) + 7.0) + abs(log_c)
                 + 4.0 * scale - z + 158.0)
    bound = _U * roundings * total + n * 5e-324  # the smallest subnormal
    return 1.0 - sf, sf, bound


def _series_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c), error bound), 0 < c < inf, from the ascending
    series of the density integrated term by term, or None where the
    magnitude of its terms rules out ``_ABS_TOL`` or the pair's table ends
    first.

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
    integrated: E = ln c and R_j = P_j (H_j + H_(n+j)).  Only c^j, E and
    c^d depend on c: the recurrences run once, in the pair's ``_Plan``.

    The bound is u times the sum of the terms' magnitudes times the
    roundings a term goes through: up to 4 per step of the recurrences that
    form its coefficient, 1 per step for c^j and 1 for its share of the
    running sums; 3 times the magnitude of the logarithms the first terms
    are summed from (their additions and the lgamma calls); and 50 for
    forming a term from its parts, for G1 and G2 (each within 1 u) and for
    the exp, expm1 and log calls.  Where m1 - m2 is not a float, the
    rounding of nu shifts the order the series is summed at; the bound adds
    that shift times the sensitivity of the terms to it.
    """
    lo, hi = min(m1, m2), max(m1, m2)
    plan = _plan(lo, hi)
    n, d, lon, lg0, lh0, lg_n, mag0, g1, g2, ag1, ag2, nu_err = plan.series
    log_c = math.log(c)
    # the logarithms of the first terms of the two sums.  The sums are kept
    # in units of e^scale; one whose terms' magnitudes pass the limit cannot
    # meet _ABS_TOL, and the cap keeps every term finite
    lg = lg0 + lo * log_c if n else -math.inf
    lh = lh0 + lon * log_c - lg_n
    scale = max(lg, lh)
    limit = math.exp(min(math.log(_ABS_TOL / _U) - scale, 700.0))
    if limit < 1.0:
        return None
    # the k < n terms of the first sum, g = (-1)^k Gamma(nu-k) c^(lo+k) / k!
    nu = hi - lo
    total = size = 0.0
    g = math.exp(lg - scale)
    for k in range(n):
        t = g / (lo + k)
        total += t
        size += abs(t)
        if k + 1 < n:
            g *= -c / ((k + 1) * (nu - k - 1))
    e = math.expm1(d * log_c) / d if d else log_c
    cd = 1.0 + d * e  # c^d
    # the second sum is sa + (g1 c^d - g2 E) sb; sm + q_mag sb is the
    # magnitude of both sums
    q_mag = ag1 * cd + ag2 * abs(e)
    # past j = 0, a and b exceed 1 and b > a - 1/2, so a term is at most
    # (|G1| + |G2|) (1 + |E| + c^d) (P + Q + R) c^j / (a - 1/2)
    tail = (ag1 + ag2) * (1.0 + abs(e) + cd) / (0.5 * _U)
    sa = sb = 0.0
    sm = size
    cj = math.exp(lh - scale)  # c^a P_0, then c^a P_0 c^j
    for j, coef, mag, qb, ratio, h in plan.terms:
        sa += cj * coef
        sm += cj * mag
        sb += cj * qb
        cj *= c
        if not c * ratio <= 0.5:  # nan too, from a nan c
            # the terms may still grow; so does the sum of magnitudes
            if not sm + q_mag * sb <= limit:
                return None
        elif tail * cj * h <= sm + q_mag * sb:
            # each step from here on scales P + Q + R by at most 1/2, so
            # the rest of the sum is below u times the sum of magnitudes
            break
    else:
        return None  # the table ends first
    size = sm + q_mag * sb
    if not size <= limit:
        return None
    total += sa + (g1 * cd - g2 * e) * sb
    terms = n + j
    log_mag = mag0 + abs(lo * log_c) + abs(lon * log_c)
    weight = math.exp(scale)
    cdf = min(max(total * weight, 0.0), 1.0)
    sf = 1.0 - cdf
    roundings = 6.0 * terms + 3.0 * log_mag + 50.0
    shift = abs(log_c) + math.log(terms + hi + 2.0)
    return cdf, sf, size * weight * (_U * roundings + nu_err * shift)


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


def _hermite_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c), error estimate), 0 < c <= m1 m2, by Gauss-Hermite
    rules centred at the mode of their integrand (Q. Liu and D. A. Pierce,
    Biometrika 81 (1994) 624-629), else None.

    With lo <= hi, P(V <= c) = E[P(lo, c / X)] for X ~ Gamma(hi, 1); in
    y = log X it is the integral of e^phi, phi(y) = hi y - e^y -
    log Gamma(hi) + log P(lo, c e^-y), concave as log X and log Y have
    log-concave densities.  With t = c e^-y and rho = t^lo e^-t /
    (Gamma(lo) P), phi' = hi - e^y - rho and phi'' = rho (lo - t) - rho^2 -
    e^y.  Newton's method finds the mode from the positive root x = e^y of
    x^2 - (hi - lo) x - c (phi' = 0 with rho's asymptote lo - t at small
    t), stops once a step is below 1e-3, and the rules are scaled by
    (-phi'')^(-1/2) from its last step.  They run in pairs, 24 points
    checked by 16, then 32 by 24, and the first pair whose difference
    ``_kept`` passes gives the value and that difference as its error
    estimate, else the last pair.  Where Newton's method does not settle in
    8 steps or the arithmetic fails (c many decades below the mean), the
    result is nan with an infinite error estimate.
    """
    if c > m1 * m2:
        return None
    lo, hi = min(m1, m2), max(m1, m2)
    log_c = math.log(c)
    plan = _plan(lo, hi)
    lg_lo, lg_hi = plan.lg_lo, plan.lg_hi

    b = hi - lo
    y = math.log(0.5 * (b + math.sqrt(b * b + 4.0 * c)))
    failed = math.nan, math.nan, math.inf
    try:
        for _ in range(8):
            log_p, _, log_tg = _log_gamma_pq(lo, log_c - y, lg_lo)
            rho = math.exp(log_tg - log_p)
            t, x = math.exp(log_c - y), math.exp(y)
            top = hi * y - x - lg_hi + log_p
            d2 = rho * (lo - t) - rho * rho - x
            step = (hi - rho - x) / d2
            y -= step
            if abs(step) <= 1e-3:
                break
        else:
            return failed
        scale = 1.0 / math.sqrt(-d2)
        coarse = None
        for n in (16, 24, 32):
            fine = 0.0
            for u, v in _hermite_rule(n):
                s = y + scale * u  # phi(s) - top below
                log_p = _log_gamma_pq(lo, log_c - s, lg_lo)[0]
                fine += v * math.exp(hi * s - math.exp(s) - lg_hi + log_p - top)
            fine *= scale * math.exp(top)
            if coarse is not None:
                f, err = min(fine, 1.0), abs(fine - coarse)
                if _kept(f, 1.0 - f, err):
                    break
            coarse = fine
    except (ArithmeticError, ValueError):
        # a Newton step or the curvature leaves the float range
        return failed
    return f, 1.0 - f, err


# The trapezoidal rule's step puts its discretisation bound at this times
# the Chernoff bound at c
_TRAPEZOID_TOL = 1e-14


def _chernoff(log_c, m1, m2, lg):
    """(e, ln B) at c = e^log_c: B = min(1, E[V^e] c^-e) bounds P(V > c)
    where e > 0 and P(V <= c) where e < 0 (Chernoff), E[V^e] =
    Gamma(m1 + e) Gamma(m2 + e) e^-lg.  e, the larger root of
    (m1 + e - 1/2) (m2 + e - 1/2) = c (digamma(m) about ln(m - 1/2)), is
    near the best exponent and above 1/2 - min(m1, m2)."""
    p, q = m1 - 0.5, m2 - 0.5
    e = 0.5 * (math.sqrt((p - q) ** 2 + 4.0 * math.exp(log_c)) - p - q)
    return e, min(0.0, math.lgamma(m1 + e) + math.lgamma(m2 + e) - lg
                  - e * log_c)


def _trapezoid_cdf_sf(c, m1, m2):
    """(P(V <= c), P(V > c), error bound), 0 < c < inf, by the trapezoidal
    rule on K_nu's cosh integral (DLMF 10.32.9) integrated over z first:
    with a = m1 + m2, nu = |m1 - m2| and z0 = 2 sqrt(c),

        P(V > c) = 2^(1-a) Gamma(a) / (Gamma(m1) Gamma(m2)) int_R g(t) dt,
        g(t) = cosh(nu t) Q(a, z0 cosh t) cosh(t)^-a,

    one ``_log_gamma_pq`` call a node t = k tau, k >= 0 (g is even).  None
    where c is below about the mean and _REL_TOL times B, the Chernoff bound
    at c, is below the rounding charged on a sum of at least 1 - B.  Bound:

    * discretisation, 2 M / (e^(2 pi d / tau) - 1), 0 < d < pi/2 (Trefethen
      and Weideman, SIAM Rev. 56 (2014) 385-458, Thm 5.1), with M the most
      |g| integrates to along a line in |Im t| < d: in units of P at most
      cos(d)^-a P(V > c cos^2 d), as w^-a Gamma(a, z0 w) = int_z0^inf
      z^(a-1) e^(-z w) dz, |cosh(nu (x + iy))| <= cosh(nu x) and
      Re cosh(x + iy) = cosh x cos y.
      d solves (a + 2 e) tan d = 2 pi / tau, e the Chernoff exponent at
      c cos^2 d, and tau puts the bound at ``_TRAPEZOID_TOL`` B;
    * truncation, g(t_K) q / (1 - q) past a node t_K with z0 sinh t_K > nu,
      q = e^(-tau (z0 sinh t_K - nu)), as g(t2) / g(t1) <= e^(nu (t2 - t1)
      - z0 (cosh t2 - cosh t1)) for t2 > t1 >= 0; the sum stops once it is
      below u times the sum;
    * rounding, term by term: ``_log_gamma_pq``'s Q(a, x) is within
      2 (a |ln x| + x + |ln Gamma(a)|) + 2 |ln Q| + 50 u of mpmath on 600
      random arguments (a to 200, x from 0.01 to 3000); a term is charged 4
      times that and 4 u per unit of its logarithm's parts, the factor in
      front 16 |ln| of each lgamma plus a + 300, and each addition u.
    """
    lo, hi = min(m1, m2), max(m1, m2)
    plan = _plan(lo, hi)
    lg, lg_a = plan.lg_lo + plan.lg_hi, plan.lg_sum
    a, nu = lo + hi, hi - lo
    z0 = 2.0 * math.sqrt(c)
    log_c, log_z0 = math.log(c), math.log(z0)
    e, log_b = _chernoff(log_c, lo, hi, lg)
    b = math.exp(log_b)
    fixed = 16.0 * (abs(lg_a) + abs(plan.lg_lo) + abs(plan.lg_hi)) + a + 300.0
    # every node has x >= z0, so a term is charged at least 8 (a ln z0 + z0)
    if e < 0.0 and _REL_TOL * b < _U * (1.0 - b) * (
            fixed + 8.0 * (a * max(log_z0, 0.0) + z0)):
        return None
    # the step that puts the discretisation bound at _TRAPEZOID_TOL B
    log_t = math.log(_TRAPEZOID_TOL) + log_b
    tau = 0.5 / math.sqrt(z0 + a)
    for _ in range(3):
        d = math.atan(2.0 * math.pi / (tau * (a + 2.0 * max(e, 0.0))))
        log_cos = math.log(math.cos(d))
        e, log_u = _chernoff(log_c + 2.0 * log_cos, lo, hi, lg)
        log_m = _LN2 - a * log_cos + (log_u if e > 0.0 else 0.0)
        tau = 2.0 * math.pi * d / max(log_m - log_t, 1.0)
    y = 2.0 * math.pi * d / tau
    disc = math.exp(log_m - y) / -math.expm1(-y)
    # 2^(1-a) Gamma(a) / (Gamma(m1) Gamma(m2)) times the 1/2 of cosh(nu t)
    log_pre = lg_a - lg - a * _LN2
    total = size = 0.0
    weight = 1.0  # the end node t = 0 counts once, every other twice
    k = 0
    while True:
        t = k * tau
        cosh_t = math.cosh(t)
        log_ch = math.log(cosh_t)
        log_q = _log_gamma_pq(a, log_z0 + log_ch, lg_a)[1]
        g = weight * math.exp(log_pre + nu * t - a * log_ch + log_q
                              + math.log1p(math.exp(-2.0 * nu * t)))
        total += g
        size += g * (a * abs(log_z0 + log_ch) + z0 * cosh_t + nu * t
                     + a * log_ch + 1.5 * abs(log_q))
        excess = z0 * math.sinh(t) - nu
        if not excess <= 0.0:  # a nan stops it too
            q = math.exp(-tau * excess)
            tail = g * q / (1.0 - q)
            if not tail > _U * total:
                break
        weight = 2.0
        k += 1
    sf = min(tau * total, 1.0)
    roundings = 8.0 * size + (fixed + k) * total
    return 1.0 - sf, sf, disc + tau * (tail + _U * roundings)


def _far_tail_cdf_sf(c, m1, m2):
    """(1, 0, 0) where P(V > c) is provably below half the least subnormal
    2^-1074, so that its nearest float is 0, else None.  {V > c} lies in
    {X > z} or {Y > z}, z = sqrt(c), and for a shape m < z, P(X > z) <=
    (z/m)^m e^(m-z) (Chernoff).  Both terms below e^-746 < 2^-1076 (ln
    2^-1076 = -745.8) put the sum below 2^-1075, with room for log errors."""
    z = math.sqrt(c)
    if all(m < z and m * math.log(z / m) + m - z < -746.0 for m in (m1, m2)):
        return 1.0, 0.0, 0.0
    return None


_ROUTES = (_integer_shape_cdf_sf, _series_cdf_sf, _far_tail_cdf_sf,
           _trapezoid_cdf_sf, _hermite_cdf_sf)


def _cdf_sf(x, m1, m2, r):
    """(P(W <= x), P(W > x)) by the route the module docstring describes."""
    c = r * x
    if c <= 0.0:
        return 0.0, 1.0
    if c == math.inf:
        # x = inf, or r x overflows: far past all the mass
        return 1.0, 0.0
    for route in _ROUTES:
        value = route(c, m1, m2)
        if value is not None:
            if _kept(*value):
                return value[:2]
            name, (cdf, sf, err) = route.__name__, value
    raise QuadratureAccuracyError(
        f"no route holds the distribution at c = {c!r}, shapes {m1!r} and "
        f"{m2!r} ({name} error {err:.3e})", sf if c > m1 * m2 else cdf, err)
