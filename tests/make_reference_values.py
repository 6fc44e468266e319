"""Regenerate the frozen reference literals used by the test suite.

Run with ``python3 tests/make_reference_values.py`` (needs mpmath, see the
"test" extra).  Every constant is computed independently of the package:
log-gamma and Bessel K come from mpmath's arbitrary-precision versions, the
distribution values from high-precision quadrature of the product-Gamma
density (the survival values from the upper-tail integral, so deep-tail
literals keep their relative precision), and the popularity values from
direct rational sums.
"""

import mpmath as mp

mp.mp.dps = 25


def pdf_w(w, m1, m2, omega1, omega2):
    r = m1 * m2 / (omega1 * omega2)
    h = (m1 + m2) / mp.mpf(2)
    return (2 * r ** h * w ** (h - 1) * mp.besselk(m1 - m2, 2 * mp.sqrt(r * w))
            / (mp.gamma(m1) * mp.gamma(m2)))


def cdf_w(x, m1, m2, omega1, omega2):
    # split at the origin singularity and at 1 to help the integrator
    pts = [p for p in (mp.mpf(0), mp.mpf(1), mp.mpf(x)) if p <= x]
    return mp.quad(lambda w: pdf_w(w, m1, m2, omega1, omega2), sorted(set(pts)))


def sf_w(x, m1, m2, omega1, omega2):
    # upper tail in doubling pieces, so the integrator follows the decay
    x = mp.mpf(x)
    pts = [x * 2 ** i for i in range(5)] + [mp.inf]
    return mp.quad(lambda w: pdf_w(w, m1, m2, omega1, omega2), pts)


def sf_unit(c, m1, m2):
    """P(V > c) of the unit-rate variable V = r W, for deep-tail literals.

    With z = 2 sqrt(v) = z0 + t and z0 = 2 sqrt(c),
    P(V > c) = 4^(1-h) / (Gamma(m1) Gamma(m2)) int_z0^inf z^(2h-1) K_nu(z) dz.
    The integrand is taken relative to its size z0^(2h-1) e^(-z0) at the
    lower end, since mpmath's quadrature judges convergence in absolute
    terms and would accept a coarse estimate of a value near 1e-80, and the
    range is split on the decay scale of e^(-t), at z0 + 1, 5, 20, 60 and 200.
    """
    m1, m2 = mp.mpf(m1), mp.mpf(m2)
    p, nu = m1 + m2 - 1, m1 - m2
    z0 = 2 * mp.sqrt(mp.mpf(c))

    def scaled(t):
        z = z0 + t
        return (z / z0) ** p * mp.besselk(nu, z) * mp.exp(z0)

    pts = [0, 1, 5, 20, 60, 200, mp.inf]
    return (4 ** ((1 - p) / 2) * z0 ** p * mp.exp(-z0) * mp.quad(scaled, pts)
            / (mp.gamma(m1) * mp.gamma(m2)))


def sf_oracle(c, m1, m2):
    """P(V > c) of the unit-rate variable: mpmath's Meijer G form up to a
    few times the mean, where it is fast, and ``sf_unit`` beyond it."""
    c, m1, m2 = mp.mpf(c), mp.mpf(m1), mp.mpf(m2)
    if c > 4 * m1 * m2:
        return sf_unit(c, m1, m2)
    with mp.workdps(40):
        return (mp.meijerg([[], [1]], [[m1, m2, 0], []], c)
                / (mp.gamma(m1) * mp.gamma(m2)))


# shape pairs of ORACLE_SF in tests/test_kernels.py: integer orders,
# orders away from an integer, orders 1e-4, 1e-7 and 1e-10 from one, and
# integer shapes
ORACLE_SHAPES = (
    ("0.5", "0.5"), ("1.5", "2.5"), ("7.25", "20.25"), ("40.5", "99.5"),
    ("0.75", "1.25"), ("0.6", "7.3"), ("30.5", "40.25"), ("99.7", "0.55"),
    ("1.5", "2.5001"), ("20.5", "30.4999"), ("0.5", "0.5000001"),
    ("3.25", "10.2500001"), ("2.25", "3.2500000001"), ("60.5", "0.5000000001"),
    ("1", "4"), ("100", "0.75"),
)


# (m1, m2, c) of ORACLE_SF just below the mean of two close shapes, where
# the kernels' 24- and 16-point Gauss-Hermite rules on the cdf average
# disagree (the trapezoidal rule holds all seven)
BELOW_THE_MEAN = (
    ("2.99", "2.99", 8.0), ("7.25", "7.75", 30.0), ("12.5", "12.5", 120.0),
    ("3.3", "7.7", 15.0),
    ("16.5", "16.25", 220.0), ("18.5", "18.25", 320.0), ("15.5", "14.5", 190.0),
)


# c of ORACLE_SF where the series refuses the two hops of the
# surface-nonint benchmark, (1.5, 2.5) and (0.75, 1.25), and the
# trapezoidal rule keeps their survival values
SURFACE_BAND = (9, 12, 17, 25, 50, 200)


def oracle_points(m1, m2):
    """c from 1e-12 up, with the mean and twice and half of it, to the
    first c (to three digits) where P(V > c) falls below 1e-300."""
    mean = m1 * m2
    cs = [10.0 ** k for k in (-12, -6, -3, -1, 0, 1, 2, 3, 4, 5, 6)]
    cs += [0.5 * mean, mean, 2.0 * mean]
    lo, hi = mp.log(2 * mean + 10), mp.log(mp.mpf(10) ** 7)
    for _ in range(40):  # bisect log c for P(V > c) = 1e-300
        mid = (lo + hi) / 2
        if sf_unit(mp.exp(mid), m1, m2) > mp.mpf("1e-300"):
            lo = mid
        else:
            hi = mid
    last = float(mp.nstr(mp.exp(hi), 3))
    return sorted(c for c in set(cs) if c < last) + [last]


def emit(name, value):
    print(f"{name} = {mp.nstr(value, 18)}")


def main():
    emit("LN_GAMMA_HALF", mp.log(mp.gamma(mp.mpf(1) / 2)))
    emit("LN_GAMMA_7_3", mp.log(mp.gamma(mp.mpf("7.3"))))

    for nu, x in ((0, 1), (1, 2), (0.5, 1), (2.75, 0.5), (9.5, 30),
                  (0, 600), (3, mp.mpf("1e-6")), (0.25, 7.5)):
        emit(f"K[{nu>0 and nu or 0},{x}]", mp.besselk(mp.mpf(nu), mp.mpf(x)))

    emit("PDF_UNIT_AT_1", 2 * mp.besselk(0, 2))
    emit("CDF_UNIT_AT_1", 1 - 2 * mp.besselk(1, 2))
    emit("SF_UNIT_AT_1", 2 * mp.besselk(1, 2))

    m1, m2 = mp.mpf("2.5"), mp.mpf("1.5")
    emit("PDF_MIXED_AT_4", pdf_w(4, m1, m2, mp.mpf(2), mp.mpf(3)))
    emit("CDF_MIXED_AT_4", cdf_w(4, m1, m2, mp.mpf(2), mp.mpf(3)))
    emit("SF_MIXED_AT_60", 1 - cdf_w(60, m1, m2, mp.mpf(2), mp.mpf(3)))
    emit("CDF_MIXED_AT_HALF", cdf_w(mp.mpf("0.5"), m1, m2, mp.mpf(2), mp.mpf(3)))
    # deep tail with non-integer shapes: the kernels' tail-integral path
    emit("SF_MIXED_AT_150", sf_w(150, m1, m2, mp.mpf(2), mp.mpf(3)))

    # integer shapes 2 and 3 (three Bessel-K terms), rate 4
    two, three = mp.mpf(2), mp.mpf(3)
    for x in ("0.75", "100"):
        emit(f"SF_INT23_AT_{x.replace('.', '')}",
             sf_w(mp.mpf(x), two, three, mp.mpf(1), mp.mpf("1.5")))
    # one integer and one non-integer shape, rate 4
    emit("SF_ONE_THREEQ_AT_6",
         sf_w(6, mp.mpf(1), mp.mpf("0.75"), mp.mpf("0.75"), mp.mpf("0.25")))

    # deep tail of the unit-rate variable with non-integer shapes, as
    # (m1, m2, c) keys of DEEP_TAIL_SF in tests/test_kernels.py
    for m1, m2 in (("1.5", "2.5"), ("0.75", "1.25"), ("5.5", "0.6"),
                   ("0.3", "0.45"), ("30.5", "40.25")):
        for c in ("1e3", "1e4", "1e5"):
            emit(f"({m1}, {m2}, {c})",
                 sf_unit(mp.mpf(c), mp.mpf(m1), mp.mpf(m2)))

    # survival values across the shape domain, as (m1, m2, c) keys of
    # ORACLE_SF in tests/test_kernels.py
    for m1, m2 in ORACLE_SHAPES:
        for c in oracle_points(float(m1), float(m2)):
            emit(f"({m1}, {m2}, {c!r})", sf_oracle(c, m1, m2))
    for m1, m2, c in BELOW_THE_MEAN:
        emit(f"({m1}, {m2}, {c!r})", sf_oracle(c, m1, m2))
    for m1, m2 in (("1.5", "2.5"), ("0.75", "1.25")):
        for c in SURFACE_BAND:
            emit(f"({m1}, {m2}, {float(c)!r})", sf_unit(c, m1, m2))

    half = mp.mpf("0.5")
    emit("CDF_HALF_AT_1", cdf_w(1, half, half, mp.mpf(1), mp.mpf(1)))

    # unit shapes, both spreads 2: closed form 1 - 2 sqrt(x/4) K1(2 sqrt(x/4))
    for x in ("0.2", "0.3", "1.5", "120"):
        z = 2 * mp.sqrt(mp.mpf(x) / 4)
        emit(f"SF_TABLE_AT_{x.replace('.', '')}", z * mp.besselk(1, z))

    denom = mp.fsum(mp.power(t, -mp.mpf("0.5")) for t in range(1, 6))
    emit("ZIPF_DENOM_5_HALF", denom)
    emit("ZIPF_Q1_5_HALF", 1 / denom)
    emit("ZIPF_Q5_5_HALF", mp.power(5, -mp.mpf("0.5")) / denom)

    emit("PI_HALF", mp.pi / 2)
    emit("SQRT_PI_HALF", mp.sqrt(mp.pi) / 2)
    emit("LN_TWO", mp.log(2))


if __name__ == "__main__":
    main()
