"""End-to-end checks of the command-line front end (in process)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cachenoma import _kernels_py, channel, cli, mc, optimizer
from cachenoma.caching import MAX_FILES, Catalog
from cachenoma.cli import SWEEP_VARIABLES, main, run_sweep, sweep_values
from cachenoma.config import load_config
from cachenoma.mc import MAX_SAMPLES, MAX_WORKERS, McCaseResult, McConfig, McEstimate
from cachenoma.noma_full import BRANCH_ALPHA, average_success, oma_average_success
from cachenoma.optimizer import optimize_case


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def rows_of(text):
    return list(csv.reader(text.splitlines()))


def test_optimize_all_cases(tmp_path):
    code, text = run_cli(tmp_path, "optimize")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["case", "branch", "alpha", "beta", "value",
                       "evaluations"]
    body = rows[1:]
    assert [r[0] for r in body] == ["A", "B", "C", "D"]
    for r in body:
        assert r[3] == ""                    # no second coordinate
        assert 0.0 <= float(r[2]) <= 1.0
        assert 0.0 < float(r[4]) < 1.0
        assert int(r[5]) > 0
    assert body[0][1] == "full"
    assert all(r[1] in ("full", "high", "low") for r in body)


def test_optimize_split_row(tmp_path):
    code, text = run_cli(tmp_path, "optimize", "--case", "split")
    assert code == 0
    body = rows_of(text)[1:]
    assert len(body) == 1
    row = body[0]
    assert row[0] == "split"
    assert row[1] in ("high", "low")
    assert 0.0 < float(row[2]) < 1.0
    assert 0.0 < float(row[3]) < 1.0
    assert float(row[4]) > 0.0


def test_output_is_lf_and_locale_free(tmp_path):
    out = tmp_path / "o.csv"
    code = main(["optimize", "--case", "a", "--out", str(out)])
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")              # plain digits and dots only
    for row in rows_of(text)[1:]:
        float(row[2])
        float(row[4])


def test_sweep_values_parsing():
    assert sweep_values("zeta", 0.0, 1.0, 3, None) == [0.0, 0.5, 1.0]
    assert sweep_values("zeta", None, None, None, "0,0.25,0.5") == \
        [0.0, 0.25, 0.5]
    assert sweep_values("cache_size", 0.0, 2.0, 3, None) == [0, 1, 2]
    assert sweep_values("snr_db", 5.0, 5.0, 1, None) == [5.0]
    with pytest.raises(ValueError):
        sweep_values("zeta", 0.0, 1.0, 3, "0,1")
    with pytest.raises(ValueError):
        sweep_values("zeta", None, None, None, None)
    with pytest.raises(ValueError):
        sweep_values("zeta", 0.0, 1.0, 0, None)
    with pytest.raises(ValueError):
        sweep_values("cache_size", None, None, None, "0.5")
    with pytest.raises(ValueError):
        sweep_values("velocity", 0.0, 1.0, 3, None)


def test_sweep_zeta(tmp_path):
    code, text = run_cli(tmp_path, "sweep", "--variable", "zeta",
                         "--values", "0,0.5,1")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["zeta", "avg_success_noma", "avg_success_oma",
                       "avg_success_conventional"]
    body = rows[1:]
    assert len(body) == 3
    noma = [float(r[1]) for r in body]
    conv = [float(r[3]) for r in body]
    # popularity skew feeds the cache, so the cached average rises
    assert noma[0] <= noma[1] <= noma[2]
    # cached operation never loses to the cacheless baseline
    for n, c in zip(noma, conv):
        assert n >= c - 1e-12


def test_sweep_rejects_a_catalog_past_the_limit():
    cfg = load_config(None)
    at_limit = cli._apply_sweep(cfg, "num_files", MAX_FILES)
    assert at_limit.catalog.num_files == MAX_FILES
    for value in (str(MAX_FILES + 1), "1e300"):
        (files,) = sweep_values("num_files", None, None, None, value)
        with pytest.raises(ValueError, match="num_files"):
            cli._apply_sweep(cfg, "num_files", files)


def test_sweep_rejects_non_finite_integer_values(tmp_path, capsys):
    for variable in ("cache_size", "num_files"):
        for value in ("inf", "-inf", "nan"):
            with pytest.raises(ValueError, match=variable):
                sweep_values(variable, None, None, None, value)
            capsys.readouterr()
            code, _ = run_cli(tmp_path, "sweep", "--variable", variable,
                              f"--values={value}")
            assert code == 1, (variable, value)
            err = capsys.readouterr().err
            assert variable in err and "Traceback" not in err, err
        code, _ = run_cli(tmp_path, "sweep", "--variable", variable,
                          "--start", "inf", "--stop", "3", "--steps", "2")
        assert code == 1
        assert variable in capsys.readouterr().err


@pytest.mark.parametrize("variable, values, expected", [
    # the scenario stays the same, so one optimum serves every step and
    # both averages of each
    ("zeta", (0.0, 0.5, 1.0), 1),
    ("cache_size", (0, 1, 2), 1),
    # one scenario per step, shared by its NOMA and conventional averages
    ("snr_db", (5.0, 10.0, 15.0), 3),
])
def test_sweep_optimizes_each_distinct_case_once(monkeypatch, variable,
                                                 values, expected):
    calls = []

    def counted(case, scenario):
        calls.append((case, scenario))
        return optimize_case(case, scenario)

    monkeypatch.setattr(cli, "optimize_case", counted)
    run_sweep(load_config(None), variable, list(values))
    assert len(calls) == expected
    assert len(set(calls)) == len(calls)


SWEEP_PROBES = {
    "zeta": (0.0, 1.0),
    "snr_db": (5.0, 15.0),
    "cache_size": (0, 3),
    "omega": (1.0, 3.0),
    "m": (1.0, 2.0),
    "num_files": (3, 8),
}


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_sweep_rows_equal_step_by_step_averages(variable):
    cfg = load_config(None)
    values = list(SWEEP_PROBES[variable])
    want = []
    for value in values:
        step = cli._apply_sweep(cfg, variable, value)
        scen, cat, avg = step.scenario, step.catalog, step.averaging
        empty = Catalog(num_files=cat.num_files, zeta=cat.zeta, cache_size=0)
        want.append((value,
                     average_success(scen, cat, optimize_case, averaging=avg),
                     oma_average_success(scen, cat, averaging=avg),
                     average_success(scen, empty, optimize_case, averaging=avg)))
    assert run_sweep(cfg, variable, values) == want


def test_sweep_values_may_start_with_a_minus_sign(tmp_path):
    # "--values -10,0" would be read as an option; the "=" form is not
    code, text = run_cli(tmp_path, "sweep", "--variable", "snr_db",
                         "--values=-10,0")
    assert code == 0
    assert [row[0] for row in rows_of(text)[1:]] == ["-10", "0"]


def test_sweep_rejects_bad_variable(tmp_path):
    code, _ = run_cli(tmp_path, "sweep", "--variable", "velocity",
                      "--values", "1")
    assert code == 1


def test_sweep_requires_values_or_range(tmp_path):
    code, _ = run_cli(tmp_path, "sweep", "--variable", "zeta")
    assert code == 1


def test_sweep_names_a_value_that_is_not_a_number(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sweep", "--variable", "zeta",
                      "--values", "0.5,abc")
    assert code == 1
    err = capsys.readouterr().err
    assert "--values" in err and "'abc'" in err, err
    # empty entries are skipped
    assert sweep_values("zeta", None, None, None, "0.5,,1") == [0.5, 1.0]


@pytest.mark.parametrize("variable, value", [
    ("m", "0.1"), ("m", "1e6"), ("omega", "-1"), ("omega", "1e-300"),
])
def test_sweep_names_the_variable_of_a_bad_channel_value(tmp_path, capsys,
                                                         variable, value):
    code, _ = run_cli(tmp_path, "sweep", "--variable", variable,
                      f"--values={value}")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cachenoma: error: {variable}: "), err


# a fixed alphabet, with a few characters float() reads or trips on
VALUE_ENTRIES = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 7, 10 ** 7).map(str),
    st.text(alphabet="0123456789.,-+eEinfa_ \t\x00\u0663\u00bd\uff45",
            max_size=8),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(variable=st.sampled_from(SWEEP_VARIABLES),
       values=st.lists(VALUE_ENTRIES, max_size=4).map(",".join))
def test_sweep_values_fuzz(variable, values):
    # The averages are stubbed: this checks how --values is parsed and
    # applied, and a real sweep of arbitrary values would not fit the budget.
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "average_success", lambda *a, **k: 0.0)
        mp.setattr(cli, "oma_average_success", lambda *a, **k: 0.0)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["sweep", "--variable", variable, f"--values={values}"])
    assert code in (0, 1), (variable, values, code)
    if code == 1:
        text = err.getvalue()
        assert re.search(rf"--values|\b{variable}\b", text), (values, text)
        assert "Traceback" not in text


def _fail(*args, **kwargs):
    raise AssertionError("the work ran although a size was out of bounds")


# each size flag: its command, its bound, and what its work calls first
SIZE_FLAGS = {
    "--grid surface": (["surface"], cli.MAX_SURFACE_GRID,
                       (cli, "split_objective_branch")),
    "--grid concavity": (["concavity"], cli.MAX_CONCAVITY_GRID,
                         (cli, "case_objective")),
    "--steps": (["sweep", "--variable", "zeta", "--start", "0", "--stop", "1"],
                cli.MAX_STEPS, (cli, "average_success")),
    # no thread is started: sampling never begins
    "--workers": (["validate", "--samples", "10000"], MAX_WORKERS,
                  (mc, "_count_streams")),
    # no block or job list is built
    "--samples": (["validate"], MAX_SAMPLES, (mc, "_count_streams")),
}


@pytest.mark.parametrize("flag", SIZE_FLAGS)
def test_size_flags_are_bounded(flag, monkeypatch, capsys):
    argv, bound, (module, work) = SIZE_FLAGS[flag]
    monkeypatch.setattr(module, work, _fail)
    code = main([*argv, flag.split()[0], str(bound + 1), "--out", os.devnull])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"cachenoma: error: {flag.split()[0]} must be at most "
                   f"{bound}\n"), err


def test_mc_config_bounds_the_workers():
    assert McConfig(samples=1, workers=MAX_WORKERS).workers == MAX_WORKERS
    with pytest.raises(ValueError, match="workers"):
        McConfig(samples=1, workers=MAX_WORKERS + 1)


def test_values_list_is_bounded_like_steps(monkeypatch, capsys):
    most = ",".join(["1"] * cli.MAX_STEPS)
    assert len(sweep_values("snr_db", None, None, None, most)) == cli.MAX_STEPS
    monkeypatch.setattr(cli, "average_success", _fail)
    code = main(["sweep", "--variable", "snr_db", f"--values={most},1",
                 "--out", os.devnull])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"cachenoma: error: --values must hold at most "
                   f"{cli.MAX_STEPS} values\n"), err


def _stub_estimates(cells, cfg):
    est = McEstimate(0.0, 0.0)
    return [McCaseResult(est, est, est)] * len(cells)


SIZES = st.one_of(st.integers(-10 ** 6, 40), st.integers(10 ** 4, 10 ** 30),
                  st.text(alphabet="0123456789.-+e ", max_size=6))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(flag=st.sampled_from(sorted(SIZE_FLAGS)), value=SIZES)
def test_size_flags_fuzz(flag, value):
    # The objectives, the sampling and the CSV writer are stubbed: this
    # checks how a size is parsed and bounded.  Values from 41 to 9999 are
    # left out, so that no example pays for a large in-bound grid.
    argv = SIZE_FLAGS[flag][0]
    name = flag.split()[0]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "split_objective_branch", lambda *a, **k: 0.0)
        mp.setattr(cli, "case_objective", lambda *a, **k: lambda alpha: 0.0)
        mp.setattr(cli, "_pair_success", lambda *a, **k: (0.0, 0.0))
        mp.setattr(cli, "average_success", lambda *a, **k: 0.0)
        mp.setattr(cli, "oma_average_success", lambda *a, **k: 0.0)
        mp.setattr(cli, "mc_cells", _stub_estimates)
        mp.setattr(cli, "_write_csv", lambda *a: None)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, f"{name}={value}", "--out", os.devnull])
    assert code in (0, 1), (flag, value, code)
    if code == 1:
        text = err.getvalue()
        assert name in text, (flag, value, text)
        assert "Traceback" not in text
    elif isinstance(value, int):
        assert value <= SIZE_FLAGS[flag][1]


def test_surface_rows_lie_in_their_branch():
    rows = cli.run_surface(load_config(None), 7)
    assert [row[3] for row in rows[::49]] == ["low", "high"]
    for alpha, _, _, branch in rows:
        lo, hi = BRANCH_ALPHA[branch]
        assert lo <= alpha <= hi, (alpha, branch)


def test_surface_grid(tmp_path):
    code, text = run_cli(tmp_path, "surface", "--grid", "6")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["alpha", "beta", "objective", "branch"]
    body = rows[1:]
    assert len(body) == 2 * 6 * 6
    assert body[0][3] == "low" and body[-1][3] == "high"
    for r in body:
        beta = float(r[1])
        val = float(r[2])
        assert 0.0 <= val <= 1.0
        if beta in (0.0, 1.0):
            assert val == 0.0               # a zero-power part cannot decode


def test_validate_small_run(tmp_path):
    code, text = run_cli(tmp_path, "validate", "--samples", "10000",
                         "--seed", "1", "--workers", "2")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["kind", "case", "semantics", "alpha", "beta",
                       "analytic", "estimate", "half_width", "abs_diff",
                       "status"]
    body = rows[1:]
    assert len(body) == 130                 # 4 cases x 2 x 10 + 2 x 25
    assert all(r[9] == "pass" for r in body)
    case_rows = [r for r in body if r[0] == "case"]
    split_rows = [r for r in body if r[0] == "split"]
    assert len(case_rows) == 80
    assert len(split_rows) == 50
    assert {r[2] for r in body} == {"product", "joint"}


def test_validate_rejects_tiny_sample_count(tmp_path):
    code, _ = run_cli(tmp_path, "validate", "--samples", "100")
    assert code == 1


def test_validate_checks_its_flags_before_reading_the_scenario(tmp_path,
                                                                capsys):
    code, _ = run_cli(tmp_path, "validate", "--samples", "100", "--config",
                      str(tmp_path / "missing.json"))
    assert code == 1
    assert capsys.readouterr().err == \
        "cachenoma: error: --samples must be at least 10000\n"


def test_validate_seed_range(tmp_path, capsys):
    for seed in ("-1", str(2 ** 64), str(2 ** 65 + 3)):
        capsys.readouterr()
        code, _ = run_cli(tmp_path, "validate", "--samples", "10000",
                          "--seed", seed)
        assert code == 1, seed
        assert "--seed" in capsys.readouterr().err, seed
    code, text = run_cli(tmp_path, "validate", "--samples", "10000",
                         "--seed", str(2 ** 64 - 1))
    assert code == 0
    assert len(rows_of(text)) == 131


@pytest.mark.parametrize("argv", [
    ["optimize", "--case", "a"],
    ["sweep", "--variable", "zeta", "--values", "0.5"],
    ["surface", "--grid", "3"],
    ["concavity", "--case", "a", "--grid", "11"],
])
def test_only_validate_takes_seed_and_workers(argv, monkeypatch, capsys):
    # nothing but validate samples, so elsewhere both flags are usage errors
    # rather than values accepted and ignored; no work runs
    for work in ("run_optimize", "run_sweep", "run_surface", "run_concavity"):
        monkeypatch.setattr(cli, work, _fail)
    for flags in (["--workers", "1000000"], ["--seed", "-5"],
                  ["--workers", "1000000", "--seed", "-5"]):
        code = main([*argv, *flags, "--out", os.devnull])
        assert code == 1, (argv, flags)
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err, err
        assert all(flag in err for flag in flags[::2]), err


def test_concavity_cases(tmp_path, capsys):
    code, text = run_cli(tmp_path, "concavity", "--case", "a",
                         "--grid", "41")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["case", "branch", "alpha", "objective"]
    body = rows[1:]
    assert len(body) == 41
    assert all(r[0] == "A" and r[1] == "full" for r in body)
    err = capsys.readouterr().err
    assert "case=A branch=full concave=true" in err


def test_concavity_evaluates_each_grid_point_once(tmp_path, monkeypatch):
    calls = []
    objective_of = cli.case_objective

    def counted(case, scenario):
        objective = objective_of(case, scenario)

        def f(alpha):
            calls.append(alpha)
            return objective(alpha)

        return f

    monkeypatch.setattr(cli, "case_objective", counted)
    _, text = run_cli(tmp_path, "concavity", "--grid", "21")
    assert len(calls) == len(rows_of(text)) - 1


def test_concavity_grid_floor(tmp_path):
    code, _ = run_cli(tmp_path, "concavity", "--grid", "5")
    assert code == 1


def test_concavity_exits_two_on_a_non_concave_branch(tmp_path, capsys,
                                                     monkeypatch):
    # no second difference lies below -inf, so every branch fails the check
    monkeypatch.setattr(optimizer, "_CONCAVE_TOL", -math.inf)
    code, text = run_cli(tmp_path, "concavity", "--case", "a", "--grid", "11")
    assert code == 2
    assert "case=A branch=full concave=false" in capsys.readouterr().err
    assert len(rows_of(text)) == 12


def test_concavity_skips_an_infeasible_branch(tmp_path, capsys):
    # gamma1 / (1 + gamma1) rounds to 1.0: no alpha above 0.5 decodes file 2
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"gamma1": 1e17}))
    code, text = run_cli(tmp_path, "concavity", "--case", "d", "--grid", "11",
                         "--config", str(cfg))
    assert code == 0
    body = rows_of(text)[1:]
    assert len(body) == 11 and all(r[:2] == ["D", "low"] for r in body)
    verdicts = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("case=")]
    assert len(verdicts) == 1 and verdicts[0].startswith("case=D branch=low ")


def test_config_file_flows_through(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"snr_db": 14.0}))
    code, text = run_cli(tmp_path, "optimize", "--case", "a",
                         "--config", str(cfg))
    assert code == 0
    base_code, base_text = run_cli(tmp_path, "optimize", "--case", "a")
    assert base_code == 0
    boosted = float(rows_of(text)[1][4])
    baseline = float(rows_of(base_text)[1][4])
    assert boosted > baseline               # more power, higher success


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"snr_db": 14.0, "power": 3.0}))
    code, _ = run_cli(tmp_path, "optimize", "--config", str(cfg))
    assert code == 1
    code, _ = run_cli(tmp_path, "optimize", "--config",
                      str(tmp_path / "missing.json"))
    assert code == 1
    for data in ({"dist1": 1e-300}, {"dist1": 1e200},
                 {"chan1": {"omega1": 1e-200, "omega2": 1e-200}}):
        cfg.write_text(json.dumps(data))
        code, _ = run_cli(tmp_path, "optimize", "--config", str(cfg))
        assert code == 1
    code, _ = run_cli(tmp_path, "sweep", "--variable", "omega",
                      "--values", "1e-320")
    assert code == 1
    # the message names the key the user wrote
    for data, key in (({"catalog": {"files": 5, "zeta": 0.5, "cache_size": 9}},
                       "catalog.cache_size"),
                      ({"catalog": {"files": 0}}, "catalog.files"),
                      ({"snr_db": 4000}, "snr_db"), ({"snr_db": -4000}, "snr_db"),
                      # shapes past channel.MAX_SHAPE; 1e308 once overflowed lgamma
                      ({"chan1": {"m1": 1e308}}, "chan1: m1"),
                      ({"chan1": {"m1": 1e6}}, "chan1: m1"),
                      ([1, 2], "top level must be a JSON object")):
        cfg.write_text(json.dumps(data))
        capsys.readouterr()
        code, _ = run_cli(tmp_path, "optimize", "--config", str(cfg))
        assert code == 1
        assert key in capsys.readouterr().err, data
    for value in ("4000", "-4000"):
        code, _ = run_cli(tmp_path, "sweep", "--variable", "snr_db",
                          "--values", value)
        assert code == 1
        assert "snr_db" in capsys.readouterr().err


def test_cases_only_sweep_with_no_distinct_request_pair(tmp_path):
    # one file: every request pair is a common request, which cases_only drops
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"averaging": "cases_only",
                               "catalog": {"files": 1, "zeta": 0.5,
                                           "cache_size": 0}}))
    code, text = run_cli(tmp_path, "sweep", "--variable", "zeta",
                         "--values", "0,0.5", "--config", str(cfg))
    assert code == 0
    assert rows_of(text)[1:] == [["0", "0", "0", "0"], ["0.5", "0", "0", "0"]]


def test_overflowing_threshold_is_never_met(tmp_path):
    # a gain threshold that overflows to inf has success probability 0
    cfg = tmp_path / "scenario.json"
    for command, data in (
            (("optimize",), {"dist1": 1e160}),
            (("sweep", "--variable", "zeta", "--values", "0.5"),
             {"gamma1": 1e300, "snr_db": -100}),
            (("sweep", "--variable", "zeta", "--values", "0.5"), {"gamma1": 1e300}),
            (("sweep", "--variable", "zeta", "--values", "0.5"), {"gamma2": 1e200}),
            # the OMA threshold (1 + gamma1)^2 - 1 overflows to inf
            (("sweep", "--variable", "snr_db", "--values=-10,10"), {"gamma1": 1e200}),
            # threshold times rate overflows in the Bessel-K sum
            (("optimize", "--case", "d"),
             {"chan1": {"omega1": 1e-100, "omega2": 1e-100}, "dist1": 1e100})):
        cfg.write_text(json.dumps(data))
        code, text = run_cli(tmp_path, *command, "--config", str(cfg))
        assert code == 0, data
        header, *rows = rows_of(text)
        cols = [i for i, h in enumerate(header)
                if h == "value" or h.startswith("avg_")]
        assert rows and all(math.isfinite(float(row[i]))
                            for row in rows for i in cols), data


def test_vanishing_snr_gives_zero_with_non_integer_shapes(tmp_path):
    # both shapes of each link are non-integer, and every survival value
    # here is at r x from 6e5 to 2e12, far above the mean, where the
    # far-tail bound gives 0
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "snr_db": -100,
        "chan1": {"m1": 1.5, "m2": 2.5, "omega1": 2, "omega2": 2},
        "chan2": {"m1": 0.75, "m2": 1.25, "omega1": 2, "omega2": 2}}))
    code, text = run_cli(tmp_path, "sweep", "--variable", "snr_db",
                         "--values=-100,-80,-70", "--config", str(cfg))
    assert code == 0
    rows = rows_of(text)[1:]
    assert len(rows) == 3
    assert all(float(v) == 0.0 for row in rows for v in row[1:]), rows


@pytest.mark.parametrize("scenario", [
    # link 1 has rate 3.75e200 and thresholds up to 1.7e201, so r x
    # overflows and every survival value of that link is exactly 0
    {"chan1": {"m1": 1.5, "m2": 2.5, "omega1": 1e-100, "omega2": 1e-100},
     "dist1": 1e100},
    # rate 3.75e304: r x stays finite, but c / t**2 overflows at tail nodes
    {"chan1": {"m1": 1.5, "m2": 2.5, "omega1": 1e-152, "omega2": 1e-152}},
])
def test_huge_rate_gives_zero_with_non_integer_shapes(tmp_path, scenario):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    code, text = run_cli(tmp_path, "optimize", "--case", "d", "--config", str(cfg))
    assert code == 0
    (row,) = rows_of(text)[1:]
    assert float(row[4]) == 0.0, row


def test_numerical_error_exits_three_with_best_estimate(tmp_path, capsys,
                                                        monkeypatch):
    # with no relative tolerance, every error check of the non-integer
    # routes refuses, the trapezoidal rule's and the Gauss-Hermite rules'
    # included
    monkeypatch.setattr(_kernels_py, "_REL_TOL", 0.0)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"chan1": {"m1": 30.5, "m2": 40.25},
                               "chan2": {"m1": 0.75, "m2": 1.25}}))
    code, _ = run_cli(tmp_path, "optimize", "--case", "d", "--config", str(cfg))
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical error" in err
    match = re.search(r"best estimate (\S+)$", err.strip())
    assert match, err
    assert math.isfinite(float(match.group(1)))


def test_usage_errors_exit_one(tmp_path):
    assert main(["optimize", "--case", "z"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def _subcommands(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_parser_builds_only_the_named_subcommand(capsys):
    # a known first word builds its subcommand alone, and the usage line
    # still names all five; no word, an unknown one or --help builds them all
    full = cli._build_parser([])
    assert _subcommands(full) == list(cli._COMMANDS)
    for name in cli._COMMANDS:
        one = cli._build_parser([name, "--help"])
        assert _subcommands(one) == [name]
        assert one.format_usage() == full.format_usage()
    for argv in (["nonsense"], ["--help"], ["--out", "x", "optimize"]):
        assert _subcommands(cli._build_parser(argv)) == list(cli._COMMANDS)
    assert main(["optimize", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1" in err, err
    assert err.startswith(full.format_usage()), err
    assert main([]) == 1 and main(["nonsense"]) == 1
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


SURFACE_NONINT = {"chan1": {"m1": 1.5, "m2": 2.5, "omega1": 2.0, "omega2": 2.0},
                  "chan2": {"m1": 0.75, "m2": 1.25, "omega1": 2.0, "omega2": 2.0}}


def test_memo_is_emptied_before_each_command(tmp_path, capsys, monkeypatch):
    # a first command fills the memo with values every check kept; with no
    # relative tolerance the same command in the same process must refuse
    # them all again rather than reuse them
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"chan1": {"m1": 30.5, "m2": 40.25},
                               "chan2": {"m1": 0.75, "m2": 1.25}}))
    argv = ("optimize", "--case", "d", "--config", str(cfg))
    code, text = run_cli(tmp_path, *argv)
    assert code == 0 and len(rows_of(text)) == 2
    assert channel._cdf_sf.cache_info().currsize > 0
    monkeypatch.setattr(_kernels_py, "_REL_TOL", 0.0)
    code, _ = run_cli(tmp_path, *argv)
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_memo_stays_bounded(tmp_path):
    code, _ = run_cli(tmp_path, "surface", "--grid", "60")
    assert code == 0
    info = channel._cdf_sf.cache_info()
    assert info.misses > info.maxsize >= info.currsize, info


def test_output_does_not_depend_on_call_order_or_workers(tmp_path):
    # non-integer shapes on every hop: the same bytes whether this command
    # builds the shape pairs' plans or finds them built by another command
    # at other thresholds, and with one or two sampling workers
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"snr_db": 3.0, **SURFACE_NONINT}))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"snr_db": -10.0, **SURFACE_NONINT}))
    _kernels_py._plan.cache_clear()
    code, first = run_cli(tmp_path, "surface", "--grid", "8", "--config", str(cfg))
    assert code == 0
    _kernels_py._plan.cache_clear()
    assert run_cli(tmp_path, "optimize", "--case", "d",
                   "--config", str(other))[0] == 0
    assert run_cli(tmp_path, "surface", "--grid", "8",
                   "--config", str(cfg)) == (0, first)
    outputs = {run_cli(tmp_path, "validate", "--samples", "10000", "--workers",
                       str(workers), "--config", str(cfg))
               for workers in (1, 2)}
    assert len(outputs) == 1, outputs


def test_float_formatting_is_short(tmp_path):
    _, text = run_cli(tmp_path, "surface", "--grid", "4")
    for row in rows_of(text)[1:]:
        for cell in (row[0], row[1], row[2]):
            assert len(cell) <= 18          # .12g keeps cells compact


_IMPORT_GUARD = """
import os, sys
import cachenoma
from cachenoma import cli
# the value types are plain classes: no dataclasses, and no inspect with it;
# json only when a scenario file is read
SLOW = ("numpy", "dataclasses", "inspect", "json")
assert not [m for m in SLOW if m in sys.modules]
for argv in (["optimize"], ["sweep", "--variable", "zeta", "--values", "0.5"],
             ["surface", "--grid", "3"], ["concavity", "--grid", "11"]):
    assert cli.main(argv + ["--out", os.devnull]) == 0, argv
    assert not [m for m in SLOW if m in sys.modules], argv
assert cli.main(["validate", "--samples", "10000", "--out", os.devnull]) == 0
assert "numpy" in sys.modules and "json" not in sys.modules
"""


def test_only_monte_carlo_imports_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
