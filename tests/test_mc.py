"""Checks for the Monte Carlo validation path."""

import json
import math
import threading

import numpy as np
import pytest

from cachenoma import mc
from cachenoma.caching import CacheCase
from cachenoma.channel import (
    DoubleNakagamiParams,
    LinkGeometry,
    effective_scale,
    survival_gain_sq,
)
from cachenoma.cli import main, run_validate
from cachenoma.config import load_config
from cachenoma.mc import BLOCK, McConfig, mc_case, mc_split
from cachenoma.noma_full import FullScenario, gain_threshold

CHAN = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=2.0, omega2=2.0)
GEOM = LinkGeometry(distance=1.0, pathloss_exp=2.0)


# a chain vehicle 2 never decodes, so a one-cell call draws vehicle 1 alone
NEVER = (gain_threshold(0.0, 0.0, 1.0, 1.0),)


def chain_estimate(chain, mode, cfg):
    """(estimate, half-width) of one chain on the CHAN/GEOM link."""
    base = FullScenario(1.0, 1.0, 1.0, 1.0, 1.0, CHAN, CHAN, GEOM, GEOM, mode)
    [res] = mc.mc_cells([((chain, NEVER), base)], cfg)
    return res.p1.value, res.p1.half_width


def test_config_validation():
    McConfig(samples=1, seed=0, workers=1)
    with pytest.raises(ValueError):
        McConfig(samples=0, seed=0, workers=1)
    with pytest.raises(ValueError):
        McConfig(samples=100, seed=-1, workers=1)
    with pytest.raises(ValueError):
        McConfig(samples=100, seed=2 ** 64, workers=1)
    with pytest.raises(ValueError):
        McConfig(samples=100, seed=0, workers=0)
    assert McConfig(samples=mc.MAX_SAMPLES).samples == mc.MAX_SAMPLES
    with pytest.raises(ValueError, match="samples"):
        McConfig(samples=mc.MAX_SAMPLES + 1)


def test_single_condition_matches_survival():
    t = gain_threshold(6.0, 0.0, 1.0, 1.0)
    cfg = McConfig(samples=200_000, seed=911, workers=2)
    est, hw = chain_estimate((t,), "product", cfg)
    truth = survival_gain_sq(t / effective_scale(GEOM), CHAN)
    assert abs(est - truth) <= 3.0 * hw
    assert hw > 0.0


def test_infeasible_chain_is_exact_zero():
    chain = (gain_threshold(1.0, 2.0, 1.0, 1.0),)
    cfg = McConfig(samples=1000, seed=3, workers=1)
    for mode in ("joint", "product"):
        est, hw = chain_estimate(chain, mode, cfg)
        assert est == 0.0
        assert hw == 0.0


def test_worker_count_does_not_change_counts():
    chain = (
        gain_threshold(7.0, 3.0, 1.0, 1.0),
        gain_threshold(3.0, 0.0, 1.0, 1.0),
    )
    results = []
    for workers in (1, 4, 8):
        cfg = McConfig(samples=400_000, seed=1234, workers=workers)
        results.append(chain_estimate(chain, "product", cfg))
    assert results[0] == results[1] == results[2]


def test_sample_count_determinism_across_modes():
    # same seed, same chain: a run is reproducible, and on a one-condition
    # chain joint and product both count the one threshold on condition
    # stream 0, so they give the same estimate
    chain = (gain_threshold(7.0, 3.0, 1.0, 1.0),)
    cfg = McConfig(samples=50_000, seed=77, workers=2)
    a = chain_estimate(chain, "joint", cfg)
    b = chain_estimate(chain, "joint", cfg)
    assert a == b
    product = chain_estimate(chain, "product", cfg)
    assert product[0] == a[0]
    assert math.isclose(product[1], a[1], rel_tol=1e-15)


def test_estimates_stay_in_unit_interval():
    cfg = McConfig(samples=2_000, seed=5, workers=1)
    for sig, thr in ((0.5, 2.0), (6.0, 1.0), (9.5, 0.1)):
        chain = (gain_threshold(sig, 0.0, 1.0, thr),)
        est, hw = chain_estimate(chain, "product", cfg)
        assert 0.0 <= est <= 1.0
        assert hw >= 0.0


def test_half_width_scales_with_samples():
    chain = (gain_threshold(6.0, 2.0, 1.0, 1.0),)
    hw = {}
    for n in (10_000, 100_000):
        cfg = McConfig(samples=n, seed=60, workers=2)
        _, hw[n] = chain_estimate(chain, "product", cfg)
    ratio = hw[10_000] / hw[100_000]
    assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0)


def test_joint_mode_not_below_product_mode():
    chain = (
        gain_threshold(7.0, 3.0, 1.0, 1.0),
        gain_threshold(3.0, 0.0, 1.0, 1.0),
    )
    cfg = McConfig(samples=300_000, seed=2024, workers=2)
    joint, jhw = chain_estimate(chain, "joint", cfg)
    product, phw = chain_estimate(chain, "product", cfg)
    assert joint >= product - 3.0 * (jhw + phw)


def test_case_result_shape():
    cfg_model = load_config(None)
    mc_cfg = McConfig(samples=20_000, seed=8, workers=2)
    res = mc_case(CacheCase.D, 0.7, cfg_model.scenario, mc_cfg)
    for est in (res.p1, res.p2, res.joint):
        assert 0.0 <= est.value <= 1.0
        assert est.half_width >= 0.0
    assert math.isclose(res.joint.value, res.p1.value * res.p2.value, rel_tol=1e-12)


def test_case_zero_share_is_exact_zero():
    cfg_model = load_config(None)
    mc_cfg = McConfig(samples=5_000, seed=9, workers=1)
    res = mc_case(CacheCase.A, 0.0, cfg_model.scenario, mc_cfg)
    assert res.p1.value == 0.0 and res.p1.half_width == 0.0
    assert res.joint.value == 0.0


def test_case_b_and_c_mirror_on_symmetric_links():
    base = load_config(None).scenario
    sym = FullScenario(power=base.power, sigma1_sq=base.sigma1_sq,
                       sigma2_sq=base.sigma2_sq, gamma1=base.gamma1,
                       gamma2=base.gamma2, chan1=base.chan1, chan2=base.chan2,
                       geom1=GEOM, geom2=GEOM)
    cfg_b = McConfig(samples=200_000, seed=41, workers=2)
    cfg_c = McConfig(samples=200_000, seed=42, workers=2)
    res_b = mc_case(CacheCase.B, 0.7, sym, cfg_b)
    res_c = mc_case(CacheCase.C, 0.3, sym, cfg_c)
    gap = abs(res_b.joint.value - res_c.joint.value)
    assert gap <= 3.0 * (res_b.joint.half_width + res_c.joint.half_width)


def test_split_estimate_tracks_analytic_value():
    from cachenoma.noma_split import split_objective_branch

    cfg_model = load_config(None)
    mc_cfg = McConfig(samples=300_000, seed=314, workers=4)
    res = mc_split(0.7, 0.5, cfg_model.split, mc_cfg)
    truth = split_objective_branch(0.7, 0.5, cfg_model.split, "high")
    assert abs(res.joint.value - truth) <= max(3.0 * res.joint.half_width, 0.005)


def test_split_boundary_alpha_uses_low_branch():
    cfg_model = load_config(None)
    mc_cfg = McConfig(samples=2_000, seed=12, workers=1)
    res_low = mc_split(0.5, 0.5, cfg_model.split, mc_cfg)
    # the weak-component decode order applies at the boundary
    from cachenoma.noma_split import split_case_chains

    v1, _ = split_case_chains(0.5, 0.5, cfg_model.split, "low")
    assert len(v1) == 3
    assert 0.0 <= res_low.joint.value <= 1.0


def check_block_counts(picks):
    """Counts of one two-block stream against (g >= t).sum() on its draws.

    The thresholds are 0, inf, two drawn values, the maximum and ``picks``
    more drawn from [0, 4); the list's length decides how it is counted.
    """
    n, seed, user, cond = BLOCK + 5, 2718, 1, 2
    blocks = []
    for k, m in enumerate((BLOCK, 5)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, user, cond, k]))
        blocks.append(mc.sample_gain_sq(CHAN, GEOM, rng, size=m))
    g = np.concatenate(blocks)
    extra = np.random.default_rng(3).uniform(0.0, 4.0, size=picks)
    thresholds = [0.0, math.inf, float(g[17]), float(g[BLOCK + 2]),
                  float(np.max(g)), *map(float, extra)]
    key = (CHAN, GEOM, user, cond)
    streams = {key: {t: i for i, t in enumerate(thresholds)}}
    for workers in (1, 2):
        counts = mc._count_streams(streams, n, seed, workers)[key]
        want = [int((g >= t).sum()) for t in thresholds]
        assert [int(c) for c in counts] == want
    assert want[0] == n and want[1] == 0 and want[4] >= 1
    return len(thresholds)


def test_sorted_block_counts_equal_brute_force():
    # a long list: each block is sorted and searched
    assert check_block_counts(mc._MAX_PASSES) > mc._MAX_PASSES


def test_short_list_counts_equal_brute_force():
    # a short list: one comparison pass per threshold, on a full and a
    # short last block
    assert check_block_counts(mc._MAX_PASSES - 5) == mc._MAX_PASSES


def test_validate_draws_each_stream_once(monkeypatch):
    calls = []
    draw = mc.sample_gain_sq

    def counted(*args, **kwargs):
        calls.append(kwargs["size"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(mc, "sample_gain_sq", counted)
    rows, _ = run_validate(load_config(None), samples=3 * BLOCK, seed=0,
                           workers=1)
    assert len(rows) == 130
    # two vehicles x three condition streams x three blocks
    assert len(calls) == 2 * 3 * 3
    assert set(calls) == {BLOCK}


@pytest.mark.parametrize("workers", [1, 2])
def test_validate_reuses_one_pair_of_arrays_per_thread(monkeypatch, workers):
    pairs = {}
    calls = []
    draw = mc.sample_gain_sq

    def recorded(*args, **kwargs):
        g = draw(*args, **kwargs)
        x, y = kwargs["out"]
        assert g.__array_interface__["data"][0] == x.__array_interface__["data"][0]
        pair = (x.__array_interface__["data"][0], y.__array_interface__["data"][0])
        pairs.setdefault(threading.get_ident(), set()).add(pair)
        # holding the arrays keeps a fresh pair from reusing a freed address
        calls.append((x, y))
        return g

    monkeypatch.setattr(mc, "sample_gain_sq", recorded)
    run_validate(load_config(None), samples=3 * BLOCK, seed=0, workers=workers)
    assert len(calls) == 2 * 3 * 3
    assert 1 <= len(pairs) <= workers
    assert all(len(held) == 1 for held in pairs.values())


# the surface-nonint shapes: non-integer on every hop, one below 1
NONINT_CHANNELS = {"chan1": {"m1": 1.5, "m2": 2.5},
                   "chan2": {"m1": 0.75, "m2": 1.25}}


def validate_outputs(tmp_path, config):
    """CSV bytes of a 3-block validate run at workers 1, 2 and 4."""
    outputs = []
    for workers in (1, 2, 4):
        path = tmp_path / f"validate-{workers}.csv"
        argv = ["validate", "--samples", str(2 * BLOCK + 7), "--seed", "3",
                "--workers", str(workers), "--out", str(path), *config]
        assert main(argv) == 0
        outputs.append(path.read_bytes())
    return outputs


def test_validate_multi_block_output_independent_of_workers(tmp_path):
    outputs = validate_outputs(tmp_path, [])
    assert outputs[0] == outputs[1] == outputs[2]


def test_validate_nonint_output_independent_of_workers(tmp_path):
    # shapes below 1 take numpy's other gamma sampler
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(NONINT_CHANNELS))
    outputs = validate_outputs(tmp_path, ["--config", str(path)])
    assert outputs[0] == outputs[1] == outputs[2]
