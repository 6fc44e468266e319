"""Checks for the power-split search routines."""

import json
import math

import numpy as np
import pytest

from cachenoma import optimizer
from cachenoma.caching import CacheCase
from cachenoma.channel import DoubleNakagamiParams, LinkGeometry
from cachenoma.cli import main
from cachenoma.config import load_config, parse_config
from cachenoma.noma_full import FullScenario, case_objective
from cachenoma.noma_split import SplitScenario, split_objective_branch
from cachenoma.optimizer import (
    _brent,
    _interior,
    case_branch_feasible,
    check_concavity,
    optimize_case,
    optimize_split,
    split_line_feasible,
)


def scaled_scenario(scale=1.0):
    chan = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
    return FullScenario(
        power=10.0 * scale, sigma1_sq=1.0, sigma2_sq=1.0,
        gamma1=1.0 * scale, gamma2=1.0 * scale,
        chan1=chan, chan2=chan,
        geom1=LinkGeometry(1.0, 2.0), geom2=LinkGeometry(0.5, 2.0),
    )


def test_maximize_quadratic():
    x, v, evals = _brent(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-6
    assert v <= 0.0
    assert evals > 0


def test_maximize_endpoint_optimum():
    x, v, _ = _brent(lambda x: x, 0.0, 1.0)
    assert abs(x - 1.0) <= 1e-6
    assert v >= 1.0 - 1e-9


def test_maximize_constant():
    x, v, _ = _brent(lambda x: 2.5, 0.2, 0.8)
    assert v == 2.5
    assert 0.2 <= x <= 0.8


def random_concave_quadratics():
    rng = np.random.default_rng(808)
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        k = float(rng.uniform(0.5, 20.0))
        d = float(rng.uniform(-2.0, 2.0))
        yield c, lambda x, c=c, k=k, d=d: -k * (x - c) ** 2 + d


def test_maximize_random_concave_quadratics():
    for c, f in random_concave_quadratics():
        x, v, _ = _brent(f, 0.0, 1.0)
        grid_best = max(f(x) for x in np.linspace(0.0, 1.0, 1001))
        assert v >= grid_best - 1e-9
        assert abs(x - c) <= 1e-5


def test_maximize_quadratics_takes_parabolic_steps():
    # golden section alone needs about 30 evaluations to shrink [0, 1] to
    # _TOL; a parabola through three points of a quadratic is exact
    for c, f in random_concave_quadratics():
        _, _, evals = _brent(f, 0.0, 1.0)
        assert evals <= 15, c


def test_maximize_tent_by_golden_steps():
    # parabolas fit a kink badly, so the golden steps must carry the search
    x, v, _ = _brent(lambda x: 1.0 - abs(x - 0.3), 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-6
    assert v >= 1.0 - 1e-6


def test_maximize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _brent(lambda x: math.nan, 0.0, 1.0)


def test_optimize_cases_beat_dense_grids():
    # thresholds below and above 1 move the feasible intervals off 0.5;
    # at the huge power, threshold * interference overflows
    scenarios = [scaled_scenario()] + [
        parse_config({"gamma1": gamma1, "gamma2": gamma2, "dist2": 0.8,
                      "semantics": semantics}).scenario
        for gamma1 in (0.9, 2.0) for gamma2 in (0.5, 2.0)
        for semantics in ("product", "joint")] + [
        parse_config(HUGE_POWER).scenario]
    alphas = optimizer._linspace(0.0, 1.0, 2001)
    for sc in scenarios:
        for case in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
            res = optimize_case(case, sc)
            f = case_objective(case, sc)
            grid_best = max(f(x) for x in alphas)
            assert res.value >= grid_best - 1e-7, (sc, case)
            assert 0.0 <= res.argmax <= 1.0
            assert math.isclose(res.value, f(res.argmax), rel_tol=1e-12)


def test_optimize_case_searches_only_feasible_intervals():
    # on the low branch case B can succeed only below 1/3, so (1/3, 1/2),
    # where its objective is 0, is not searched
    sc = parse_config({"gamma1": 0.8, "gamma2": 2.0}).scenario
    assert case_branch_feasible(CacheCase.B, sc) == {
        "high": (0.5, 1.0), "low": (0.0, 1.0 / 3.0)}
    assert optimize_case(CacheCase.B, sc).evaluations == 38


HOPELESS = {"gamma1": 1e308, "gamma2": 1e308}
HUGE_POWER = {"power": 1e308, "gamma1": 4, "gamma2": 4}


def test_optimize_case_at_huge_thresholds(tmp_path):
    # only alpha below 1 / (1 + gamma2) is decode-feasible, and the noise
    # makes the objective 0 there too
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(HOPELESS))
    out = tmp_path / "out.csv"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        f"{case},low,0,,0,9" for case in "BCD"]


def test_optimize_case_branch_labels():
    sc = scaled_scenario()
    assert optimize_case(CacheCase.A, sc).branch == "full"
    res_d = optimize_case(CacheCase.D, sc)
    assert res_d.branch in ("high", "low")
    assert (res_d.argmax > 0.5) == (res_d.branch == "high")


def test_optimize_coarse_grid_invariance(monkeypatch):
    sc = scaled_scenario()
    assert optimizer._CASE_COARSE == 9
    base = optimize_case(CacheCase.B, sc)
    monkeypatch.setattr(optimizer, "_CASE_COARSE", 65)
    finer = optimize_case(CacheCase.B, sc)
    assert abs(base.value - finer.value) <= 1e-6
    assert abs(base.argmax - finer.argmax) <= 1e-3


def test_optimize_case_scaling_invariance():
    # scaling power and thresholds together leaves the objective unchanged
    res1 = optimize_case(CacheCase.A, scaled_scenario(1.0))
    res2 = optimize_case(CacheCase.A, scaled_scenario(3.7))
    assert abs(res1.argmax - res2.argmax) <= 2e-6
    assert math.isclose(res1.value, res2.value, rel_tol=1e-9)


def test_symmetric_links_balance_case_a():
    chan = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
    sc = FullScenario(power=10.0, sigma1_sq=1.0, sigma2_sq=1.0, gamma1=1.0,
                      gamma2=1.0, chan1=chan, chan2=chan,
                      geom1=LinkGeometry(1.0, 2.0), geom2=LinkGeometry(1.0, 2.0))
    res = optimize_case(CacheCase.A, sc)
    assert abs(res.argmax - 0.5) <= 1e-3


def test_optimize_split_default_scenario():
    cfg = load_config(None)
    res = optimize_split(cfg.split)
    assert res.branch in ("high", "low")
    alpha, beta = res.argmax
    assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
    got = split_objective_branch(alpha, beta, cfg.split, res.branch)
    assert math.isclose(got, res.value, rel_tol=1e-12)
    # dense-grid lower bound, coarse on purpose to keep this test quick
    grid = np.linspace(0.0, 1.0, 41)
    best = 0.0
    for branch in ("high", "low"):
        for a in grid:
            for b in grid:
                val = split_objective_branch(float(a), float(b), cfg.split, branch) \
                    if ((a > 0.5) == (branch == "high") or a == 0.5) else 0.0
                best = max(best, val)
    assert res.value >= best - 1e-4


def test_symmetric_split_mirror():
    # equal link geometry makes the two branches exact mirrors in alpha
    cfg = load_config(None)
    base = cfg.scenario
    sym = FullScenario(power=base.power, sigma1_sq=base.sigma1_sq,
                       sigma2_sq=base.sigma2_sq, gamma1=base.gamma1,
                       gamma2=base.gamma2, chan1=base.chan1, chan2=base.chan2,
                       geom1=LinkGeometry(1.0, 2.0), geom2=LinkGeometry(1.0, 2.0))
    sc = SplitScenario(base=sym, gamma11=cfg.split.gamma11,
                       gamma12=cfg.split.gamma12, gamma21=cfg.split.gamma21,
                       gamma22=cfg.split.gamma22)
    for alpha in (0.55, 0.7, 0.85, 0.95):
        for beta in (0.2, 0.5, 0.8):
            hi = split_objective_branch(alpha, beta, sc, "high")
            lo = split_objective_branch(1.0 - alpha, beta, sc, "low")
            assert abs(hi - lo) <= 1e-12, (alpha, beta)
    # so the branch optima coincide even though the argmax is interior
    res = optimize_split(sc)
    mirrored_branch = "low" if res.branch == "high" else "high"
    alpha, beta = res.argmax
    mirrored = split_objective_branch(1.0 - alpha, beta, sc, mirrored_branch)
    assert math.isclose(res.value, mirrored, rel_tol=1e-9)


def test_degenerate_part_thresholds_keep_beta_interior():
    cfg = load_config(None)
    base = cfg.scenario
    sc = SplitScenario(base=base, gamma11=0.25, gamma12=1e-6,
                       gamma21=0.25, gamma22=1e-6)
    res = optimize_split(sc)
    _, beta = res.argmax
    assert beta < 1.0
    assert beta > 0.9


def test_check_concavity_accepts_concave():
    ok, worst = check_concavity(lambda x: -x * x, -1.0, 1.0)
    assert ok
    assert worst < 0.0


def test_check_concavity_flags_convex_region():
    ok, worst = check_concavity(lambda x: x ** 3, -1.0, 1.0)
    assert not ok
    assert worst > 0.0


def test_check_concavity_validation():
    with pytest.raises(ValueError):
        check_concavity(lambda x: x, 0.0, 1.0, grid_n=4)
    with pytest.raises(ValueError):
        check_concavity(lambda x: math.inf, 0.0, 1.0)


def test_case_feasible_intervals():
    cfg = load_config(None)
    sc = cfg.scenario
    assert case_branch_feasible(CacheCase.A, sc) == {"full": (0.0, 1.0)}
    d = case_branch_feasible(CacheCase.D, sc)
    assert set(d) == {"high", "low"}
    lo, hi = d["high"]
    assert math.isclose(lo, 0.5, abs_tol=1e-9)
    assert math.isclose(hi, 1.0, abs_tol=1e-9)
    lo, hi = d["low"]
    assert abs(lo) <= 1e-9
    assert math.isclose(hi, 0.5, abs_tol=1e-9)


def test_case_feasible_ends_are_exact():
    # both branch ends are closed, so the margins are taken right there
    sc = load_config(None).scenario
    assert case_branch_feasible(CacheCase.D, sc) == {
        "high": (0.5, 1.0), "low": (0.0, 0.5)}


def test_case_feasible_overflowing_margin():
    # at the transmit power threshold * interference overflows; the
    # intervals depend only on the thresholds
    for config, high, low in ((HOPELESS, None, 1.0 / (1.0 + 1e308)),
                              (HUGE_POWER, 0.8, 0.2)):
        sc = parse_config(config).scenario
        assert case_branch_feasible(CacheCase.A, sc) == {"full": (0.0, 1.0)}
        for case in (CacheCase.B, CacheCase.C, CacheCase.D):
            got = case_branch_feasible(case, sc)
            if high is None:
                assert got["high"] is None
            else:
                assert got["high"][1] == 1.0
                assert math.isclose(got["high"][0], high, rel_tol=1e-12)
            assert got["low"][0] == 0.0
            assert math.isclose(got["low"][1], low, rel_tol=1e-12), case


def test_split_line_feasible_interval():
    cfg = load_config(None)
    lo, hi = split_line_feasible(cfg.split, "low", "alpha", 0.3)
    assert abs(lo) <= 1e-12
    assert math.isclose(hi, 0.41666666666666667, rel_tol=1e-9)
    # a beta line in the high branch stays inside (0, 1)
    interval = split_line_feasible(cfg.split, "high", "beta", 0.75)
    assert interval is not None
    blo, bhi = interval
    assert 0.0 <= blo < bhi <= 1.0


def test_linspace_matches_numpy_bit_for_bit():
    ranges = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.3, 0.3), (-2.5, -0.1),
              (-1.0, 3.0), (1.0, 0.0), (0.7, -0.2), (0.0, 1e-300),
              (1e-300, 3e-300), (0.0, 5e-324), (1e300, 3e300),
              (-1e300, 1e300), (2e300, 1e300)]
    # the interior ranges the concavity command scans
    for sc in (load_config(None).scenario, scaled_scenario(3.7)):
        for case in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
            for interval in case_branch_feasible(case, sc).values():
                if interval is not None:
                    ranges.append(_interior(*interval))
    for lo, hi in ranges:
        for n in (0, 1, 2, 3, 21, 101):
            got = optimizer._linspace(lo, hi, n)
            want = np.linspace(lo, hi, n)
            assert got == want.tolist(), (lo, hi, n)
            assert np.array(got).tobytes() == want.tobytes(), (lo, hi, n)


def test_coarse_scan_keeps_first_of_tied_maxima():
    vs = [0.0, 2.0, 1.0, 2.0, 2.0, -1.0]
    assert optimizer._argmax(vs) == int(np.argmax(vs)) == 1
    with_nan = [0.0, 3.0, math.nan, 3.0, math.nan]
    assert optimizer._argmax(with_nan) == int(np.argmax(with_nan)) == 2
    # peaks of equal height at grid points 2 and 6 of the 9-point scan:
    # the search refines around the first
    f = lambda x: 1.0 - min(abs(x - 0.25), abs(x - 0.75))
    x, v, _ = optimizer._scan_then_brent(f, 0.0, 1.0, 9)
    assert abs(x - 0.25) <= 1e-6
    assert v == 1.0
