"""Checks for the full-file transmission cases and baselines."""

import math
from collections import namedtuple

import numpy as np
import pytest

from cachenoma.caching import CacheCase, Catalog
from cachenoma.channel import (
    DoubleNakagamiParams,
    LinkGeometry,
    effective_scale,
    survival_gain_sq,
)
from cachenoma.noma_full import (
    AVERAGING,
    BRANCH_ALPHA,
    FullScenario,
    _case_rule,
    average_success,
    branch_of,
    case_chains,
    case_objective,
    case_success,
    chain_probability,
    gain_threshold,
    oma_average_success,
    oma_success,
    _check_branch,
)
from cachenoma.config import load_config
from cachenoma.noma_split import split_case_chains
from cachenoma.optimizer import optimize_case


# a decode rule's condition, read as a plain tuple
Condition = namedtuple("Condition",
                       "signal_coef interference_coef noise threshold")


def default_scenario(semantics="product"):
    chan = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
    return FullScenario(
        power=10.0,
        sigma1_sq=1.0,
        sigma2_sq=1.0,
        gamma1=1.0,
        gamma2=1.0,
        chan1=chan,
        chan2=chan,
        geom1=LinkGeometry(distance=1.0, pathloss_exp=2.0),
        geom2=LinkGeometry(distance=0.5, pathloss_exp=2.0),
        semantics=semantics,
    )


def test_gain_threshold_examples():
    assert gain_threshold(5.0, 0.0, 1.0, 1.0) == 0.2
    assert gain_threshold(5.0, 5.0, 1.0, 1.0) is None
    assert math.isclose(gain_threshold(5.0, 2.0, 1.0, 1.0), 1.0 / 3.0, rel_tol=1e-15)
    assert gain_threshold(1.0, 3.0, 1.0, 0.5) is None
    # an infinite threshold is never met; inf * 0.0 is nan, not a margin
    assert gain_threshold(1.0, 0.0, 1.0, math.inf) is None
    assert gain_threshold(1.0, 2.0, 1.0, math.inf) is None


def test_scenario_validation():
    with pytest.raises(ValueError):
        default_scenario(semantics="bogus")
    chan = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
    with pytest.raises(ValueError):
        FullScenario(power=0.0, sigma1_sq=1.0, sigma2_sq=1.0, gamma1=1.0,
                     gamma2=1.0, chan1=chan, chan2=chan,
                     geom1=LinkGeometry(1.0, 2.0), geom2=LinkGeometry(0.5, 2.0))


def test_case_a_is_two_clean_links():
    sc = default_scenario()
    v1, v2 = _case_rule(Condition, CacheCase.A, 0.6, sc, "high")
    assert len(v1) == 1 and len(v2) == 1
    assert v1[0] == Condition(6.0, 0.0, 1.0, 1.0)
    assert v2[0] == Condition(4.0, 0.0, 1.0, 1.0)
    # the public chains hold each condition's gain threshold
    assert case_chains(CacheCase.A, 0.6, sc, "high") == ((1.0 / 6.0,), (0.25,))
    p1, p2 = case_success(CacheCase.A, 0.6, sc)
    s1 = effective_scale(sc.geom1)
    s2 = effective_scale(sc.geom2)
    assert math.isclose(p1, survival_gain_sq(1.0 / 6.0 / s1, sc.chan1), rel_tol=1e-12)
    assert math.isclose(p2, survival_gain_sq(1.0 / 4.0 / s2, sc.chan2), rel_tol=1e-12)


def test_case_b_low_branch_single_condition():
    sc = default_scenario()
    alpha = 0.3
    v1, v2 = _case_rule(Condition, CacheCase.B, alpha, sc, "low")
    assert len(v1) == 1  # vehicle 1 cancels the interferer
    assert len(v2) == 1  # weak component decoded directly
    c = v2[0]
    assert c.signal_coef == pytest.approx(7.0)
    assert c.interference_coef == pytest.approx(3.0)
    assert c.threshold == sc.gamma2


def test_case_b_high_branch_strips_first():
    sc = default_scenario()
    v1, v2 = _case_rule(Condition, CacheCase.B, 0.8, sc, "high")
    assert len(v1) == 1
    assert len(v2) == 2
    first, second = v2
    assert first.signal_coef == pytest.approx(8.0)
    assert first.interference_coef == pytest.approx(2.0)
    assert first.threshold == sc.gamma1     # strips the other file at its own rate
    assert second.interference_coef == 0.0


def test_case_c_mirrors_case_b():
    sc = default_scenario()
    b1, b2 = case_chains(CacheCase.B, 0.7, sc, "high")
    c1, c2 = case_chains(CacheCase.C, 0.3, sc, "low")
    # with symmetric thresholds, C at 1 - alpha swaps the vehicles' roles
    assert len(c2) == len(b1)
    assert len(c1) == len(b2)


def test_case_d_branch_structure():
    sc = default_scenario()
    v1, v2 = case_chains(CacheCase.D, 0.8, sc, "high")
    assert (len(v1), len(v2)) == (1, 2)
    v1, v2 = case_chains(CacheCase.D, 0.2, sc, "low")
    assert (len(v1), len(v2)) == (2, 1)
    # the boundary point belongs to the weak-component branch
    v1, v2 = case_chains(CacheCase.D, 0.5, sc, branch_of(0.5))
    assert (len(v1), len(v2)) == (2, 1)


def test_branch_table_matches_branch_of():
    # high first: the optimizers visit the branches in table order
    assert list(BRANCH_ALPHA) == ["high", "low"]
    alphas = [0.0, 0.5, 1.0, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
              5e-324, math.nextafter(1.0, 0.0)] + [i / 97 for i in range(98)]
    for alpha in alphas:
        lo, hi = BRANCH_ALPHA[branch_of(alpha)]
        assert lo <= alpha <= hi, alpha
    # the decode rule accepts exactly the table's branches
    for branch in BRANCH_ALPHA:
        _check_branch(branch)
    for bad in ("full", "High", "", None, 0.5):
        with pytest.raises(ValueError, match="branch"):
            _check_branch(bad)


def asymmetric_scenario(semantics):
    return FullScenario(
        power=10.0,
        sigma1_sq=1.0,
        sigma2_sq=0.6,
        gamma1=0.8,
        gamma2=0.5,
        chan1=DoubleNakagamiParams(m1=1.0, m2=2.0, omega1=2.0, omega2=1.5),
        chan2=DoubleNakagamiParams(m1=2.0, m2=3.0, omega1=1.0, omega2=2.5),
        geom1=LinkGeometry(distance=1.0, pathloss_exp=2.0),
        geom2=LinkGeometry(distance=0.6, pathloss_exp=2.0),
        semantics=semantics,
    )


def swapped_links(sc):
    """The same scenario with vehicles 1 and 2 exchanged."""
    return sc.replace(sigma1_sq=sc.sigma2_sq, sigma2_sq=sc.sigma1_sq,
                      gamma1=sc.gamma2, gamma2=sc.gamma1, chan1=sc.chan2,
                      chan2=sc.chan1, geom1=sc.geom2, geom2=sc.geom1)


@pytest.mark.parametrize("semantics", ["product", "joint"])
def test_cases_mirror_when_links_swap(semantics):
    # exchanging the vehicles turns B into C and keeps A and D, with the
    # power split read from the other side
    sc = asymmetric_scenario(semantics)
    mirror = swapped_links(sc)
    pairs = ((CacheCase.A, CacheCase.A), (CacheCase.B, CacheCase.C),
             (CacheCase.C, CacheCase.B), (CacheCase.D, CacheCase.D))
    positive = 0
    for alpha in (0.1, 0.3, 0.7, 0.9):
        for case, image in pairs:
            p1, p2 = case_success(case, alpha, sc)
            q1, q2 = case_success(image, 1.0 - alpha, mirror)
            assert math.isclose(p1, q2, rel_tol=1e-12, abs_tol=0.0)
            assert math.isclose(p2, q1, rel_tol=1e-12, abs_tol=0.0)
            positive += p1 * p2 > 0.0
    assert positive >= 10


@pytest.mark.parametrize("semantics", ["product", "joint"])
def test_case_success_nondecreasing_in_snr(semantics):
    sc = asymmetric_scenario(semantics)
    snrs = np.linspace(-10.0, 40.0, 21)
    for case in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            values = []
            for snr in snrs:
                at = sc.replace(power=sc.sigma1_sq * 10.0 ** (snr / 10.0))
                p1, p2 = case_success(case, alpha, at)
                values.append(p1 * p2)
            assert all(b >= a for a, b in zip(values, values[1:])), \
                (case, alpha, values)


def test_case_chains_rejects_bad_alpha():
    sc = default_scenario()
    with pytest.raises(ValueError):
        case_chains(CacheCase.A, -0.01, sc, "low")
    with pytest.raises(ValueError):
        case_chains(CacheCase.D, 1.01, sc, "high")
    with pytest.raises(ValueError):
        case_chains(CacheCase.SELF_HIT_1, 0.5, sc, "low")
    with pytest.raises(ValueError):
        case_chains(CacheCase.D, 0.5, sc, "full")


def test_zero_power_share_kills_success():
    sc = default_scenario()
    p1, _ = case_success(CacheCase.A, 0.0, sc)
    _, p2 = case_success(CacheCase.A, 1.0, sc)
    assert p1 == 0.0
    assert p2 == 0.0


def test_chain_probability_semantics():
    sc = default_scenario()
    t1 = gain_threshold(8.0, 2.0, 1.0, 1.0)
    t2 = gain_threshold(2.0, 0.0, 1.0, 1.0)
    chain = (t1, t2)
    s = effective_scale(sc.geom1)
    product = chain_probability(chain, sc.chan1, sc.geom1, "product")
    joint = chain_probability(chain, sc.chan1, sc.geom1, "joint")
    want_product = (survival_gain_sq(t1 / s, sc.chan1)
                    * survival_gain_sq(t2 / s, sc.chan1))
    want_joint = survival_gain_sq(max(t1, t2) / s, sc.chan1)
    assert math.isclose(product, want_product, rel_tol=1e-12)
    assert math.isclose(joint, want_joint, rel_tol=1e-12)
    with pytest.raises(ValueError):
        chain_probability(chain, sc.chan1, sc.geom1, "neither")


def test_joint_never_below_product():
    sc = default_scenario()
    rng = np.random.default_rng(314)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        conds = []
        for _ in range(n):
            sig = float(rng.uniform(0.5, 10.0))
            inter = float(rng.uniform(0.0, 0.4)) * sig
            conds.append(gain_threshold(sig, inter, 1.0,
                                        float(rng.uniform(0.2, 2.0))))
        chain = tuple(conds)
        joint = chain_probability(chain, sc.chan1, sc.geom1, "joint")
        product = chain_probability(chain, sc.chan1, sc.geom1, "product")
        assert joint >= product - 1e-12


def test_joint_never_below_product_on_built_chains():
    # every chain the cases A-D and the split file build, both branches
    split = load_config(None).split
    base = split.base
    links = ((base.chan1, base.geom1), (base.chan2, base.geom2))
    grid = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    pairs = []
    for alpha in grid:
        for branch in ("high", "low"):
            for case in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
                pairs.append(case_chains(case, alpha, base, branch))
            for beta in grid:
                pairs.append(split_case_chains(alpha, beta, split, branch))
    strict = 0
    for chains in pairs:
        for chain, (chan, geom) in zip(chains, links):
            joint = chain_probability(chain, chan, geom, "joint")
            product = chain_probability(chain, chan, geom, "product")
            assert joint >= product, (chain, joint, product)
            strict += joint > product > 0.0
    # the multi-condition chains make the inequality strict
    assert strict >= 50, strict


def test_infeasible_chain_probability_is_zero():
    sc = default_scenario()
    chain = (gain_threshold(1.0, 3.0, 1.0, 1.0),)
    assert chain_probability(chain, sc.chan1, sc.geom1, "product") == 0.0
    assert chain_probability(chain, sc.chan1, sc.geom1, "joint") == 0.0


def test_conventional_equals_case_d():
    # with empty caches case D is the only power-split case left, so the
    # cacheless (conventional NOMA) average asks for case D alone
    sc = default_scenario()
    asked = []

    def record(case, scenario):
        asked.append(case)
        return optimize_case(case, scenario)

    average_success(sc, Catalog(num_files=5, zeta=0.5, cache_size=0), record)
    assert asked == [CacheCase.D]


def test_oma_threshold_mapping():
    sc = default_scenario()
    p1, p2 = oma_success(sc)
    s1 = effective_scale(sc.geom1)
    s2 = effective_scale(sc.geom2)
    # gamma = 1 doubles to an equivalent threshold of 3
    assert math.isclose(p1, survival_gain_sq(3.0 / 10.0 / s1, sc.chan1), rel_tol=1e-12)
    assert math.isclose(p2, survival_gain_sq(3.0 / 10.0 / s2, sc.chan2), rel_tol=1e-12)
    # (1 + gamma1)^2 - 1 overflows: link 1 is never served, link 2 as before
    assert oma_success(sc.replace(gamma1=1e200)) == (0.0, p2)


def never_called(case, scenario):
    raise AssertionError("no split cases should remain")


def test_single_user_success_values():
    # a file sent alone at full power: a self hit decodes it at the
    # requester's own threshold, OMA at (1 + gamma)^2 - 1
    sc = default_scenario().replace(gamma1=2.0, gamma2=0.5)
    s1 = effective_scale(sc.geom1)
    s2 = effective_scale(sc.geom2)
    # two files, one cached: every distinct request pair is a self hit
    cat = Catalog(num_files=2, zeta=0.5, cache_size=1)
    got = average_success(sc, cat, never_called, averaging="cases_only")
    expected = (survival_gain_sq(2.0 / 10.0 / s1, sc.chan1)
                + survival_gain_sq(0.5 / 10.0 / s2, sc.chan2)) / 2.0
    assert math.isclose(got, expected, rel_tol=1e-12)
    o1, o2 = oma_success(sc)
    assert math.isclose(o1, survival_gain_sq(8.0 / 10.0 / s1, sc.chan1), rel_tol=1e-12)
    assert math.isclose(o2, survival_gain_sq(1.25 / 10.0 / s2, sc.chan2),
                        rel_tol=1e-12)


def test_case_objective_matches_success_product():
    sc = default_scenario()
    f = case_objective(CacheCase.D, sc)
    for alpha in (0.15, 0.5, 0.72, 0.9):
        p1, p2 = case_success(CacheCase.D, alpha, sc)
        assert math.isclose(f(alpha), p1 * p2, rel_tol=1e-12)


def test_case_ordering_with_more_side_information():
    # cancelling interference can only help, so A >= B, C >= D pointwise
    sc = default_scenario()
    for alpha in (0.2, 0.35, 0.5, 0.65, 0.8):
        pa, pb, pc, pd = (math.prod(case_success(case, alpha, sc))
                          for case in (CacheCase.A, CacheCase.B, CacheCase.C,
                                       CacheCase.D))
        assert pa >= pb - 1e-12
        assert pa >= pc - 1e-12
        assert pb >= pd - 1e-12
        assert pc >= pd - 1e-12


def test_average_success_full_cache():
    # with everything cached only self hits and common requests remain
    sc = default_scenario()
    cat = Catalog(num_files=5, zeta=0.5, cache_size=5)
    from cachenoma.caching import case_distribution

    dist = case_distribution(cat)
    common = (survival_gain_sq(1.0 / 10.0 / effective_scale(sc.geom1), sc.chan1)
              * survival_gain_sq(1.0 / 10.0 / effective_scale(sc.geom2), sc.chan2))
    expected = (dist[CacheCase.SELF_HIT_BOTH] * 1.0
                + dist[CacheCase.COMMON_REQUEST] * common)
    got = average_success(sc, cat, never_called)
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_average_success_cases_only_renormalizes():
    sc = default_scenario()
    cat = Catalog(num_files=5, zeta=0.5, cache_size=1)

    def opt(case, scenario):
        return optimize_case(case, scenario)

    full = average_success(sc, cat, opt, averaging="full")
    conditioned = average_success(sc, cat, opt, averaging="cases_only")
    assert 0.0 < full < 1.0
    assert 0.0 < conditioned < 1.0
    assert not math.isclose(full, conditioned, rel_tol=1e-6)
    # one file: all mass sits on the common request, which cases_only drops
    one = Catalog(num_files=1, zeta=0.5, cache_size=0)
    assert average_success(sc, one, never_called, averaging="cases_only") == 0.0
    assert oma_average_success(sc, one, averaging="cases_only") == 0.0
    with pytest.raises(ValueError):
        average_success(sc, cat, opt, averaging="sometimes")
    with pytest.raises(ValueError):
        oma_average_success(sc, cat, averaging="sometimes")


def test_oma_average_uses_same_degenerate_values():
    sc = default_scenario()
    cat = Catalog(num_files=5, zeta=0.5, cache_size=5)
    # no A-D mass left, so the two averages coincide
    def opt(case, scenario):
        return optimize_case(case, scenario)

    for averaging in AVERAGING:
        assert math.isclose(oma_average_success(sc, cat, averaging),
                            average_success(sc, cat, opt, averaging),
                            rel_tol=1e-12)
