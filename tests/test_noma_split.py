"""Checks for the two-part split transmission objective."""

import math
from collections import namedtuple

import pytest

from cachenoma.channel import DoubleNakagamiParams, LinkGeometry
from cachenoma.config import load_config, parse_config
from cachenoma.noma_full import (
    FullScenario,
    branch_of,
    chain_probability,
)
from cachenoma.noma_split import (
    SplitScenario,
    _split_rule,
    split_case_chains,
    split_objective_branch,
)
from cachenoma.optimizer import optimize_split


# a decode rule's condition, read as a plain tuple
Condition = namedtuple("Condition",
                       "signal_coef interference_coef noise threshold")


def default_split(semantics="product"):
    sc = load_config(None).split
    if semantics == sc.base.semantics:
        return sc
    base = FullScenario(
        power=sc.base.power, sigma1_sq=sc.base.sigma1_sq,
        sigma2_sq=sc.base.sigma2_sq, gamma1=sc.base.gamma1,
        gamma2=sc.base.gamma2, chan1=sc.base.chan1, chan2=sc.base.chan2,
        geom1=sc.base.geom1, geom2=sc.base.geom2, semantics=semantics,
    )
    return SplitScenario(base=base, gamma11=sc.gamma11, gamma12=sc.gamma12,
                         gamma21=sc.gamma21, gamma22=sc.gamma22)


def condition_survivals(alpha, beta, sc, branch):
    """Marginal survival of each SINR condition: the deciding vehicle's
    conditions first (vehicle 1 on the high branch, vehicle 2 on the low),
    then the other vehicle's, each in chain order."""
    base = sc.base
    v1, v2 = split_case_chains(alpha, beta, sc, branch)
    links = ((v1, base.chan1, base.geom1), (v2, base.chan2, base.geom2))
    if branch == "low":
        links = links[::-1]
    return tuple(chain_probability((cond,), chan, geom, "product")
                 for chain, chan, geom in links for cond in chain)


def test_scenario_validation():
    sc = default_split()
    with pytest.raises(ValueError):
        SplitScenario(base=sc.base, gamma11=0.0, gamma12=0.25,
                      gamma21=0.25, gamma22=0.25)
    with pytest.raises(ValueError):
        split_case_chains(1.2, 0.5, sc, "high")
    with pytest.raises(ValueError):
        split_case_chains(0.5, -0.1, sc, "low")


def test_high_branch_coefficients():
    sc = default_split()
    p = sc.base.power
    a, b = 0.8, 0.4
    v1, v2 = _split_rule(Condition, a, b, sc, "high")
    assert len(v1) == 2
    assert len(v2) == 3
    c11, c12 = v1
    assert c11.signal_coef == pytest.approx(a * b * p)
    assert c11.interference_coef == pytest.approx((1.0 - b) * p)
    assert c11.threshold == sc.gamma11
    assert c12.signal_coef == pytest.approx(a * (1.0 - b) * p)
    assert c12.interference_coef == pytest.approx((1.0 - a) * (1.0 - b) * p)
    strip, part1, part2 = v2
    assert strip.signal_coef == pytest.approx(a * (1.0 - b) * p)
    assert strip.interference_coef == pytest.approx((1.0 - a) * p)
    assert strip.threshold == sc.gamma12
    assert part1.signal_coef == pytest.approx((1.0 - a) * b * p)
    assert part2.interference_coef == 0.0
    assert part2.threshold == sc.gamma22


def test_low_branch_coefficients():
    sc = default_split()
    p = sc.base.power
    a, b = 0.3, 0.6
    v1, v2 = _split_rule(Condition, a, b, sc, "low")
    assert len(v1) == 3
    assert len(v2) == 2
    strip, part1, part2 = v1
    assert strip.signal_coef == pytest.approx((1.0 - a) * (1.0 - b) * p)
    assert strip.interference_coef == pytest.approx(a * p)
    assert strip.threshold == sc.gamma22
    assert part1.signal_coef == pytest.approx(a * b * p)
    assert part1.interference_coef == pytest.approx(a * (1.0 - b) * p)
    assert part2.interference_coef == 0.0
    c21, c22 = v2
    assert c21.signal_coef == pytest.approx((1.0 - a) * b * p)
    assert c21.interference_coef == pytest.approx((1.0 - b) * p)
    assert c22.signal_coef == pytest.approx((1.0 - a) * (1.0 - b) * p)
    assert c22.interference_coef == pytest.approx(a * (1.0 - b) * p)


def test_branch_guards():
    sc = default_split()
    with pytest.raises(ValueError):
        split_case_chains(0.5, 0.5, sc, "middle")


def test_marginal_tuples_order_and_product():
    sc = default_split()
    base = sc.base
    hi = condition_survivals(0.72, 0.56, sc, "high")
    assert len(hi) == 5
    assert all(0.0 <= m <= 1.0 for m in hi)
    v1, v2 = split_case_chains(0.72, 0.56, sc, "high")
    p1 = chain_probability(v1, base.chan1, base.geom1, "product")
    p2 = chain_probability(v2, base.chan2, base.geom2, "product")
    assert math.isclose(hi[0] * hi[1], p1, rel_tol=1e-12)
    assert math.isclose(hi[2] * hi[3] * hi[4], p2, rel_tol=1e-12)
    assert math.isclose(math.prod(hi),
                        split_objective_branch(0.72, 0.56, sc, "high"),
                        rel_tol=1e-12)

    lo = condition_survivals(0.31, 0.47, sc, "low")
    assert len(lo) == 5
    assert math.isclose(math.prod(lo),
                        split_objective_branch(0.31, 0.47, sc, "low"),
                        rel_tol=1e-12)


def test_objective_never_exceeds_weakest_factor():
    sc = default_split()
    for alpha, beta in ((0.65, 0.3), (0.8, 0.7), (0.9, 0.5)):
        factors = condition_survivals(alpha, beta, sc, "high")
        obj = split_objective_branch(alpha, beta, sc, "high")
        assert obj <= min(factors) + 1e-15


def test_degenerate_beta_gives_zero():
    sc = default_split()
    for branch in ("high", "low"):
        alpha = 0.8 if branch == "high" else 0.3
        assert split_objective_branch(alpha, 0.0, sc, branch) == 0.0
        assert split_objective_branch(alpha, 1.0, sc, branch) == 0.0


def test_extreme_alpha_gives_zero():
    sc = default_split()
    # all power on one file leaves the other vehicle nothing to decode
    assert split_objective_branch(0.0, 0.5, sc, "low") == 0.0
    assert split_objective_branch(1.0, 0.5, sc, "high") == 0.0


def test_alpha_zero_strip_condition_is_clean():
    sc = default_split()
    v1, _ = _split_rule(Condition, 0.0, 0.4, sc, "low")
    strip = v1[0]
    assert strip.signal_coef == pytest.approx(0.6 * sc.base.power)
    assert strip.interference_coef == 0.0


def test_branch_of_picks_branch_by_alpha():
    assert branch_of(0.7) == "high"
    assert branch_of(0.3) == "low"
    # the boundary allocation evaluates on the weak-component side
    assert branch_of(0.5) == "low"
    assert branch_of(math.nextafter(0.5, 1.0)) == "high"


def swapped_links(sc):
    """The same split scenario with vehicles 1 and 2 exchanged."""
    b = sc.base
    base = b.replace(sigma1_sq=b.sigma2_sq, sigma2_sq=b.sigma1_sq,
                     gamma1=b.gamma2, gamma2=b.gamma1, chan1=b.chan2,
                     chan2=b.chan1, geom1=b.geom2, geom2=b.geom1)
    return sc.replace(base=base, gamma11=sc.gamma21, gamma12=sc.gamma22,
                      gamma21=sc.gamma11, gamma22=sc.gamma12)


@pytest.mark.parametrize("semantics", ["product", "joint"])
def test_branches_mirror_when_links_swap(semantics):
    # unequal links, noises and part thresholds: the high branch at alpha is
    # the low branch at 1 - alpha once the two vehicles trade places
    sc = default_split(semantics)
    sc = sc.replace(
        base=sc.base.replace(
            sigma2_sq=0.6,
            chan1=DoubleNakagamiParams(m1=1.0, m2=2.0, omega1=2.0, omega2=1.5),
            chan2=DoubleNakagamiParams(m1=2.0, m2=3.0, omega1=1.0, omega2=2.5),
            geom2=LinkGeometry(distance=0.6, pathloss_exp=2.0),
        ),
        gamma11=0.3, gamma12=0.2, gamma21=0.5, gamma22=0.1,
    )
    mirror = swapped_links(sc)
    positive = 0
    for alpha in (0.6, 0.75, 0.9):
        for beta in (0.45, 0.6, 0.75):
            high = split_objective_branch(alpha, beta, sc, "high")
            low = split_objective_branch(1.0 - alpha, beta, mirror, "low")
            assert math.isclose(high, low, rel_tol=1e-12, abs_tol=0.0)
            positive += high > 0.0
    assert positive == 9


def test_joint_semantics_not_below_product():
    product = default_split("product")
    joint = default_split("joint")
    for alpha, beta in ((0.7, 0.4), (0.35, 0.55), (0.6, 0.8)):
        pj = split_objective_branch(alpha, beta, joint, branch_of(alpha))
        pp = split_objective_branch(alpha, beta, product, branch_of(alpha))
        assert pj >= pp - 1e-12


def test_interior_objective_positive():
    sc = default_split()
    assert split_objective_branch(0.7, 0.5, sc, "high") > 0.0
    assert split_objective_branch(0.35, 0.5, sc, "low") > 0.0


# non-integer shapes on both links, as in the surface-nonint benchmark
NONINT_SCENARIO = {
    "chan1": {"m1": 1.5, "m2": 2.5, "omega1": 2.0, "omega2": 2.0},
    "chan2": {"m1": 0.75, "m2": 1.25, "omega1": 2.0, "omega2": 2.0},
    "snr_db": 2.8,
}


def at_snr(sc, snr_db):
    base = sc.base.replace(power=sc.base.sigma1_sq * 10.0 ** (snr_db / 10.0))
    return sc.replace(base=base)


@pytest.mark.parametrize("scenario", ["default", "nonint"])
def test_split_objective_nondecreasing_in_snr(scenario):
    sc = (load_config(None) if scenario == "default"
          else parse_config(NONINT_SCENARIO)).split
    snrs = [-10.0 + 5.0 * i for i in range(11)]
    # at every (alpha, beta) of either branch
    for branch, alphas in (("high", (0.6, 0.75, 0.9)),
                           ("low", (0.1, 0.25, 0.4, 0.5))):
        for alpha in alphas:
            for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
                values = [split_objective_branch(alpha, beta, at_snr(sc, snr),
                                                 branch) for snr in snrs]
                assert all(b >= a for a, b in zip(values, values[1:])), \
                    (branch, alpha, beta, values)
    # and at the optimum over both branches
    best = [optimize_split(at_snr(sc, snr)).value
            for snr in (0.0, 2.8, 6.0, 10.0, 20.0)]
    assert all(b >= a for a, b in zip(best, best[1:])), best
