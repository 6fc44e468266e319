"""One decode rule per vehicle, read three ways: records, thresholds, margins.

The objectives and the feasibility checks read the rules directly and build
no ``SinrCondition``; the public chain builders still return records.  These
checks pin the direct readings to what the records give, bit for bit.
"""

import json

import pytest

from cachenoma import cli
from cachenoma.caching import CacheCase
from cachenoma.config import load_config, parse_config
from cachenoma.mc import McConfig, mc_cells
from cachenoma.noma_full import (
    BRANCH_ALPHA,
    SEMANTICS,
    SinrCondition,
    _case_rule,
    _pair_success,
    _success,
    branch_of,
    case_chains,
    case_objective,
    chain_probability,
    gain_threshold,
)
from cachenoma.noma_split import split_case_chains, split_objective_branch
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


def record_value(chains, base):
    """p1 * p2 from the public records, through ``chain_probability``."""
    p1, p2 = _pair_success(chains, base, chain_probability)
    return p1 * p2


def record_margins(chains):
    return [c.signal_coef - c.threshold * c.interference_coef
            for chain in chains for c in chain]


@pytest.mark.parametrize("sc, split", configs())
def test_objectives_equal_the_records_product(sc, split):
    for case in CASES:
        objective = case_objective(case, sc)
        for alpha in ALPHAS:
            for branch in BRANCH_ALPHA:
                direct = _pair_success(
                    _case_rule(gain_threshold, case, alpha, sc, branch), sc,
                    _success)
                assert direct[0] * direct[1] == record_value(
                    case_chains(case, alpha, sc, branch), sc)
            assert objective(alpha) == record_value(
                case_chains(case, alpha, sc, branch_of(alpha)), sc)
    for branch in BRANCH_ALPHA:
        for alpha in ALPHAS:
            for beta in BETAS:
                assert split_objective_branch(alpha, beta, split, branch) == \
                    record_value(split_case_chains(alpha, beta, split, branch),
                                 split.base)


@pytest.mark.parametrize("sc, split", configs())
def test_feasibility_equals_the_records_margins(sc, split):
    unit = sc.replace(power=1.0)
    for case in CASES:
        got = case_branch_feasible(case, sc)
        if case is CacheCase.A:
            want = {"full": _feasible_from_margins(
                record_margins(case_chains(case, 0.0, unit, "low")),
                record_margins(case_chains(case, 1.0, unit, "low")), 0.0, 1.0)}
        else:
            want = {branch: _feasible_from_margins(
                        record_margins(case_chains(case, x0, unit, branch)),
                        record_margins(case_chains(case, x1, unit, branch)),
                        x0, x1)
                    for branch, (x0, x1) in BRANCH_ALPHA.items()}
        assert got == want, case
    unit_split = split.replace(base=unit)
    for branch, (a0, a1) in BRANCH_ALPHA.items():
        for beta in BETAS:
            assert split_line_feasible(split, branch, "alpha", beta) == \
                _feasible_from_margins(
                    record_margins(split_case_chains(a0, beta, unit_split, branch)),
                    record_margins(split_case_chains(a1, beta, unit_split, branch)),
                    a0, a1)
        for alpha in ALPHAS:
            if not a0 <= alpha <= a1:
                continue
            assert split_line_feasible(split, branch, "beta", alpha) == \
                _feasible_from_margins(
                    record_margins(split_case_chains(alpha, 0.0, unit_split, branch)),
                    record_margins(split_case_chains(alpha, 1.0, unit_split, branch)),
                    0.0, 1.0)


@pytest.fixture
def condition_count(monkeypatch):
    """Number of ``SinrCondition`` constructions since the fixture started."""
    built = [0]
    init = SinrCondition.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SinrCondition, "__init__", counting)
    return built


@pytest.mark.parametrize("config", [None, NONINT_SCENARIO], ids=["default", "nonint"])
def test_objectives_and_feasibility_build_no_records(config, tmp_path,
                                                     condition_count):
    flags = []
    if config is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        flags = ["--config", str(path)]
    for argv in (["optimize", "--case", "all"],
                 ["optimize", "--case", "split"],
                 ["surface", "--grid", "5"],
                 ["sweep", "--variable", "snr_db", "--values", "0,10"],
                 ["concavity"]):
        code = cli.main([*argv, *flags, "--out", str(tmp_path / "out.csv")])
        # concavity exits 2 on a non-concave profile
        assert code == 0 or argv == ["concavity"] and code == 2, argv
        assert condition_count[0] == 0, argv
    # validate samples the records of its cells, and still builds them
    assert cli.main(["validate", "--samples", "10000", *flags,
                     "--out", str(tmp_path / "out.csv")]) in (0, 2)
    assert condition_count[0] > 0


BAD_CHAINS = [
    pytest.param((), ValueError, "at least one condition", id="empty"),
    pytest.param((SinrCondition(1.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)),
                 TypeError, "SinrCondition", id="not-a-record"),
]


@pytest.mark.parametrize("chain, error, message", BAD_CHAINS)
def test_hand_built_chains_are_checked(chain, error, message):
    sc = load_config(None).scenario
    with pytest.raises(error, match=message):
        chain_probability(chain, sc.chan1, sc.geom1, "product")
    good = (SinrCondition(1.0, 0.0, 1.0, 1.0),)
    with pytest.raises(error, match=message):
        mc_cells([((good, chain), sc)], McConfig(samples=100))
