"""Acceptance gate: eight shipping criteria, one verdict line each.

Every test prints a "criterion N:" line on the live console (outside
pytest's capture) so the run log always carries the verdicts, pass or fail.

Criterion 3 asserts a concavity property the split-file objective does not
actually have at the default operating point: the sub-file survival factors
develop a convex knee where a part's power share drives its gain threshold
like 1/alpha.  The test keeps the property as stated and fails red; the
verdict line and the failure message carry the measured violation.  The
"Known red" section of README.md records the measured facts.
"""

import math
import time

import numpy as np
import pytest

from cachenoma.caching import CacheCase, Catalog, zipf_popularity
from cachenoma.channel import (
    DoubleNakagamiParams,
    cdf_gain_sq,
    effective_scale,
    survival_gain_sq,
)
from cachenoma.cli import main, run_validate
from cachenoma.config import load_config
from cachenoma.noma_full import (
    average_success,
    branch_of,
    case_objective,
    oma_average_success,
)
from cachenoma.noma_split import split_objective_branch
from cachenoma.optimizer import (
    INTERIOR_TRIM,
    case_branch_feasible,
    check_concavity,
    optimize_case,
    optimize_split,
    split_line_feasible,
)
from cachenoma.channel import bessel_k

ALL_CASES = (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D)


def _say(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _trim(lo, hi):
    margin = INTERIOR_TRIM * (hi - lo)
    return lo + margin, hi - margin


def _nondecreasing(series, tol=1e-9):
    return all(b >= a - tol for a, b in zip(series, series[1:]))


def test_criterion_1_special_function_accuracy(capsys):
    t0 = time.perf_counter()
    worst_half = 0.0
    for i in range(20):
        x = 0.01 + (50.0 - 0.01) * i / 19.0
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for nu, ref in ((0.5, base), (1.5, base * (1.0 + 1.0 / x))):
            worst_half = max(worst_half, abs(bessel_k(nu, x) - ref) / ref)
    unit = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0)
    worst_cdf = 0.0
    for i in range(50):
        u = 0.02 + (30.0 - 0.02) * i / 49.0
        z = 2.0 * math.sqrt(u)
        closed = 1.0 - z * bessel_k(1.0, z)
        worst_cdf = max(worst_cdf, abs(cdf_gain_sq(u, unit) - closed))
    elapsed = time.perf_counter() - t0
    ok = worst_half <= 1e-10 and worst_cdf <= 1e-8 and elapsed < 1.0
    _say(capsys, f"criterion 1: {'PASS' if ok else 'FAIL'} - half-integer "
                 f"forms rel {worst_half:.2e}, unit-shape cdf abs "
                 f"{worst_cdf:.2e}, {elapsed:.2f}s")
    assert worst_half <= 1e-10
    assert worst_cdf <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_monte_carlo_agreement(capsys):
    cfg = load_config(None)
    t0 = time.perf_counter()
    rows, ok = run_validate(cfg, samples=1_000_000, seed=42, workers=4)
    elapsed = time.perf_counter() - t0
    failures = [r for r in rows if r[-1] != "pass"]
    worst = max(r[8] for r in rows)
    good = ok and not failures and len(rows) == 130 and elapsed < 120.0
    _say(capsys, f"criterion 2: {'PASS' if good else 'FAIL'} - "
                 f"{len(rows) - len(failures)}/{len(rows)} cells agree, "
                 f"max |analytic - MC| {worst:.2e}, {elapsed:.1f}s")
    assert len(rows) == 130
    assert not failures, failures[:5]
    assert ok
    assert elapsed < 120.0


def test_criterion_3_objective_concavity(capsys):
    cfg = load_config(None)
    sc = cfg.scenario
    split_sc = cfg.split

    cases_ok = True
    worst_case = -math.inf
    for case in ALL_CASES:
        objective = case_objective(case, sc)
        for branch, interval in case_branch_feasible(case, sc).items():
            if interval is None:
                continue
            lo, hi = _trim(*interval)
            ok, worst = check_concavity(objective, lo, hi, grid_n=101)
            cases_ok = cases_ok and ok
            worst_case = max(worst_case, worst)

    violations = []
    checked = 0
    worst_split = -math.inf
    for j in range(21):
        fixed = j / 20.0
        for branch in ("low", "high"):
            interval = split_line_feasible(split_sc, branch, "alpha", fixed)
            if interval is None:
                continue
            lo, hi = _trim(*interval)
            if hi - lo < 1e-6:
                continue
            checked += 1
            f = lambda a, b=fixed, br=branch: split_objective_branch(a, b, split_sc, br)
            ok, worst = check_concavity(f, lo, hi, grid_n=21)
            worst_split = max(worst_split, worst)
            if not ok:
                violations.append(("alpha-line", branch, fixed, worst))
    for j in range(21):
        alpha = j / 20.0
        branch = "high" if alpha > 0.5 else "low"
        interval = split_line_feasible(split_sc, branch, "beta", alpha)
        if interval is None:
            continue
        lo, hi = _trim(*interval)
        if hi - lo < 1e-6:
            continue
        checked += 1
        f = lambda b, a=alpha, br=branch: split_objective_branch(a, b, split_sc, br)
        ok, worst = check_concavity(f, lo, hi, grid_n=21)
        worst_split = max(worst_split, worst)
        if not ok:
            violations.append(("beta-line", branch, alpha, worst))

    verdict = "PASS" if (cases_ok and not violations) else "FAIL"
    _say(capsys, f"criterion 3: {verdict} - full-file branch interiors "
                 f"{'concave' if cases_ok else 'NON-CONCAVE'} (worst "
                 f"{worst_case:+.2e}); split lines: {len(violations)}/{checked} "
                 f"non-concave, worst second difference {worst_split:+.2e}")
    assert cases_ok, f"full-file objective non-concave, worst {worst_case:+.3e}"
    top = sorted(violations, key=lambda v: -v[3])[:3]
    assert not violations, (
        f"split objective is non-concave along {len(violations)} of {checked} "
        f"axis-parallel lines; a sub-file's gain threshold scales like "
        f"1/share as its power vanishes, so the survival factor turns convex "
        f"well inside the feasible region; worst offenders {top}"
    )


def test_criterion_4_cacheless_equals_conventional(capsys):
    cfg = load_config(None)
    sc = cfg.scenario
    empty = Catalog(num_files=5, zeta=0.5, cache_size=0)
    route_a = average_success(sc, empty, optimize_case)

    # independent route: request-pair mass times closed-form values
    q = np.asarray(zipf_popularity(empty))
    p_common = float(np.sum(q * q))
    common_value = (
        survival_gain_sq(sc.gamma1 * sc.sigma1_sq / sc.power
                         / effective_scale(sc.geom1), sc.chan1)
        * survival_gain_sq(sc.gamma1 * sc.sigma2_sq / sc.power
                           / effective_scale(sc.geom2), sc.chan2))
    conventional = optimize_case(CacheCase.D, sc).value
    route_b = p_common * common_value + (1.0 - p_common) * conventional

    diff = abs(route_a - route_b)
    ok = diff <= 1e-12
    _say(capsys, f"criterion 4: {'PASS' if ok else 'FAIL'} - cacheless "
                 f"average {route_a:.12f} vs conventional route {route_b:.12f}, "
                 f"|diff| {diff:.2e}")
    assert diff <= 1e-12


def test_criterion_5_monotone_trends(capsys):
    cfg = load_config(None)
    sc = cfg.scenario

    def avg(scenario, catalog):
        return average_success(scenario, catalog, optimize_case)

    results = []

    zeta_series = [avg(sc, Catalog(5, i / 10.0, 1)) for i in range(11)]
    results.append(("popularity skew", _nondecreasing(zeta_series)))

    kappa_series = [avg(sc, Catalog(5, 0.5, k)) for k in range(6)]
    results.append(("cache size", _nondecreasing(kappa_series)))

    cat = cfg.catalog
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        power = sc.sigma1_sq * 10.0 ** (snr_db / 10.0)
        omega_series = []
        for omega in (1.0, 2.0, 4.0):
            chan = DoubleNakagamiParams(m1=1.0, m2=1.0, omega1=omega, omega2=omega)
            s = sc.replace(power=power, chan1=chan, chan2=chan)
            omega_series.append(avg(s, cat))
        results.append((f"spread at {snr_db:g} dB", _nondecreasing(omega_series)))
        m_series = []
        for m in (1.0, 2.0, 3.0):
            chan = DoubleNakagamiParams(m1=m, m2=m, omega1=2.0, omega2=2.0)
            s = sc.replace(power=power, chan1=chan, chan2=chan)
            m_series.append(avg(s, cat))
        results.append((f"shape at {snr_db:g} dB", _nondecreasing(m_series)))

    bad = [name for name, ok in results if not ok]
    _say(capsys, f"criterion 5: {'PASS' if not bad else 'FAIL'} - "
                 f"{len(results) - len(bad)}/{len(results)} trend series "
                 f"nondecreasing" + (f", violations: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_6_noma_vs_oma_ordering(capsys):
    cfg = load_config(None)
    zetas = (0.0, 0.25, 0.5, 0.75, 1.0)
    margins = {}
    for semantics in ("product", "joint"):
        scenario = cfg.scenario.replace(semantics=semantics)
        vals = []
        for zeta in zetas:
            cat = Catalog(5, zeta, 1)
            noma = average_success(scenario, cat, optimize_case)
            oma = oma_average_success(scenario, cat)
            vals.append(noma - oma)
        margins[semantics] = vals

    product_holds = min(margins["product"]) >= -1e-12
    joint_holds = min(margins["joint"]) >= -1e-12
    _say(capsys, "criterion 6: RECORDED - superposition minus orthogonal "
                 "margin per popularity skew: "
                 f"product {[f'{v:+.1e}' for v in margins['product']]} "
                 f"({'holds' if product_holds else 'violated'}); "
                 f"joint {[f'{v:+.1e}' for v in margins['joint']]} "
                 f"({'holds' if joint_holds else 'violated'}); "
                 "ordering failures trigger investigation, not rejection")

    # pin the recorded outcome so any change forces a fresh investigation:
    # the per-condition product bound undercounts chained successes, which
    # plain orthogonal links never have, so the default semantics loses by
    # a few 1e-3 while the exact joint semantics wins at every skew
    assert all(math.isfinite(v) for vals in margins.values() for v in vals)
    assert not product_holds
    assert max(margins["product"]) < 0.0
    assert joint_holds
    assert min(margins["joint"]) > 0.0


def test_criterion_7_optimizer_soundness(capsys):
    cfg = load_config(None)
    sc = cfg.scenario
    t0 = time.perf_counter()
    worst_gap = math.inf
    for case in ALL_CASES:
        res = optimize_case(case, sc)
        f = case_objective(case, sc)
        grid_best = max(f(float(x)) for x in np.linspace(0.0, 1.0, 1001))
        worst_gap = min(worst_gap, res.value - grid_best)

    split_res = optimize_split(cfg.split)
    grid = np.linspace(0.0, 1.0, 201)
    split_grid_best = 0.0
    for a in map(float, grid):
        for b in map(float, grid):
            val = split_objective_branch(a, b, cfg.split, branch_of(a))
            split_grid_best = max(split_grid_best, val)
    worst_gap = min(worst_gap, split_res.value - split_grid_best)
    elapsed = time.perf_counter() - t0

    ok = worst_gap >= -1e-4 and elapsed < 30.0
    _say(capsys, f"criterion 7: {'PASS' if ok else 'FAIL'} - optimizer vs "
                 f"exhaustive grids, worst margin {worst_gap:+.2e}, "
                 f"{elapsed:.1f}s")
    assert worst_gap >= -1e-4
    assert elapsed < 30.0


def test_criterion_8_worker_determinism(capsys, tmp_path):
    # validate is the one command that samples, and the only one that takes
    # --workers
    argv = ["validate", "--samples", "20000", "--seed", "5"]
    outputs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"validate-{workers}.csv"
        code = main(argv + ["--workers", str(workers), "--out", str(path)])
        assert code == 0, workers
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    _say(capsys, f"criterion 8: {'PASS' if identical else 'FAIL'} - validate "
                 f"output byte-identical across 1/4/8 workers")
    assert identical
