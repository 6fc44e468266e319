"""One decode rule per vehicle, read two ways: gain thresholds and margins.

The public chain builders, and through them the objectives, read each rule
as ``gain_threshold`` values; the feasibility checks read it as SINR
margins.  These checks pin the objectives to ``chain_probability`` of the
public chains, and the feasibility checks to margins taken from the rules'
conditions as plain tuples, bit for bit.
"""

from collections import namedtuple

import pytest

from cachenoma import noma_full
from cachenoma.caching import CacheCase
from cachenoma.config import load_config, parse_config
from cachenoma.mc import McConfig, mc_cells
from cachenoma.noma_full import (
    BRANCH_ALPHA,
    SEMANTICS,
    _case_rule,
    _pair_success,
    branch_of,
    case_chains,
    case_objective,
    chain_probability,
    gain_threshold,
)
from cachenoma.noma_split import (
    _split_rule,
    split_case_chains,
    split_objective_branch,
)
from cachenoma.optimizer import (
    _feasible_from_margins,
    case_branch_feasible,
    split_line_feasible,
)

# the surface-nonint benchmark's channels: non-integer shapes on every hop
NONINT_SCENARIO = {
    "chan1": {"m1": 1.5, "m2": 2.5, "omega1": 2.0, "omega2": 2.0},
    "chan2": {"m1": 0.75, "m2": 1.25, "omega1": 2.0, "omega2": 2.0},
    "snr_db": 2.8,
}
CASES = (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D)
ALPHAS = tuple(i / 20 for i in range(21))
BETAS = tuple(i / 8 for i in range(9))


def configs():
    for name, cfg in (("default", load_config(None)),
                      ("nonint", parse_config(NONINT_SCENARIO))):
        for semantics in SEMANTICS:
            scenario = cfg.scenario.replace(semantics=semantics)
            split = cfg.split.replace(base=scenario)
            yield pytest.param(scenario, split, id=f"{name}-{semantics}")


# a decode rule's condition, read as a plain tuple
Condition = namedtuple("Condition",
                       "signal_coef interference_coef noise threshold")


def chain_value(chains, base):
    """p1 * p2 of a chain pair, through the public ``chain_probability``."""
    v1, v2 = chains
    return (chain_probability(v1, base.chan1, base.geom1, base.semantics)
            * chain_probability(v2, base.chan2, base.geom2, base.semantics))


def rule_margins(rule, *args):
    """The SINR margins of ``rule``'s conditions, read as tuples; the
    ``gain_threshold`` a public chain holds is None exactly where a margin
    is <= 0."""
    conditions = [c for chain in rule(Condition, *args) for c in chain]
    thresholds = [gain_threshold(*c) for c in conditions]
    margins = [c.signal_coef - c.threshold * c.interference_coef
               for c in conditions]
    assert [t is not None for t in thresholds] == [m > 0.0 for m in margins]
    return margins


@pytest.mark.parametrize("sc, split", configs())
def test_objectives_equal_the_records_product(sc, split):
    # the name predates threshold chains: the chains were records then
    for case in CASES:
        objective = case_objective(case, sc)
        for alpha in ALPHAS:
            for branch in BRANCH_ALPHA:
                chains = case_chains(case, alpha, sc, branch)
                p1, p2 = _pair_success(chains, sc)
                assert p1 * p2 == chain_value(chains, sc)
            assert objective(alpha) == chain_value(
                case_chains(case, alpha, sc, branch_of(alpha)), sc)
    for branch in BRANCH_ALPHA:
        for alpha in ALPHAS:
            for beta in BETAS:
                assert split_objective_branch(alpha, beta, split, branch) == \
                    chain_value(split_case_chains(alpha, beta, split, branch),
                                split.base)


@pytest.mark.parametrize("sc, split", configs())
def test_feasibility_equals_the_records_margins(sc, split):
    # the name predates threshold chains: the margins came from records then
    unit = sc.replace(power=1.0)
    for case in CASES:
        got = case_branch_feasible(case, sc)
        if case is CacheCase.A:
            want = {"full": _feasible_from_margins(
                rule_margins(_case_rule, case, 0.0, unit, "low"),
                rule_margins(_case_rule, case, 1.0, unit, "low"), 0.0, 1.0)}
        else:
            want = {branch: _feasible_from_margins(
                        rule_margins(_case_rule, case, x0, unit, branch),
                        rule_margins(_case_rule, case, x1, unit, branch),
                        x0, x1)
                    for branch, (x0, x1) in BRANCH_ALPHA.items()}
        assert got == want, case
    unit_split = split.replace(base=unit)
    for branch, (a0, a1) in BRANCH_ALPHA.items():
        for beta in BETAS:
            assert split_line_feasible(split, branch, "alpha", beta) == \
                _feasible_from_margins(
                    rule_margins(_split_rule, a0, beta, unit_split, branch),
                    rule_margins(_split_rule, a1, beta, unit_split, branch),
                    a0, a1)
        for alpha in ALPHAS:
            if not a0 <= alpha <= a1:
                continue
            assert split_line_feasible(split, branch, "beta", alpha) == \
                _feasible_from_margins(
                    rule_margins(_split_rule, alpha, 0.0, unit_split, branch),
                    rule_margins(_split_rule, alpha, 1.0, unit_split, branch),
                    0.0, 1.0)


def _unchecked(chain):
    raise AssertionError("a built chain was checked like a hand-built one")


@pytest.mark.parametrize("sc, split", configs())
def test_objectives_and_feasibility_check_no_chain(sc, split, monkeypatch):
    # only hand-built chains, handed to chain_probability or mc_cells, are
    # checked; the objectives and the feasibility checks pay nothing for it
    monkeypatch.setattr(noma_full, "_checked_chain", _unchecked)
    for case in CASES:
        case_objective(case, sc)(0.3)
        case_branch_feasible(case, sc)
    for branch in BRANCH_ALPHA:
        split_objective_branch(0.5, 0.5, split, branch)
        split_line_feasible(split, branch, "beta", 0.5)


BAD_CHAINS = [
    pytest.param((), "at least one condition", id="empty"),
    pytest.param((1.0, float("nan")), "got nan", id="nan"),
    pytest.param((1.0, -1.0), "got -1.0", id="negative"),
    pytest.param((None, "1.0"), "got '1.0'", id="string"),
]


@pytest.mark.parametrize("chain, message", BAD_CHAINS)
def test_hand_built_chains_are_checked(chain, message):
    sc = load_config(None).scenario
    with pytest.raises(ValueError, match=message):
        chain_probability(chain, sc.chan1, sc.geom1, "product")
    good = (gain_threshold(1.0, 0.0, 1.0, 1.0),)
    with pytest.raises(ValueError, match=message):
        mc_cells([((good, chain), sc)], McConfig(samples=100))


def test_infinite_threshold_is_never_met():
    sc = load_config(None).scenario
    chain = (1.0, float("inf"))
    assert chain_probability(chain, sc.chan1, sc.geom1, "product") == 0.0
    assert chain_probability(chain, sc.chan1, sc.geom1, "joint") == 0.0
    for semantics in SEMANTICS:
        [res] = mc_cells([((chain, chain), sc.replace(semantics=semantics))],
                         McConfig(samples=100))
        assert res.p1.value == res.p2.value == 0.0
