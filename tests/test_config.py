"""Checks for JSON scenario parsing."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cachenoma.caching import MAX_FILES, CacheCase
from cachenoma.channel import MAX_SHAPE
from cachenoma.config import DEFAULTS, ConfigError, load_config, parse_config
from cachenoma.noma_full import case_objective
from cachenoma.noma_split import split_objective_branch


def test_defaults():
    cfg = load_config(None)
    sc = cfg.scenario
    assert sc.power == 10.0          # 1.0 * 10**(10 dB / 10), exact
    assert sc.sigma1_sq == 1.0 and sc.sigma2_sq == 1.0
    assert sc.gamma1 == 1.0 and sc.gamma2 == 1.0
    assert sc.semantics == "product"
    assert sc.chan1.m1 == 1.0 and sc.chan1.omega1 == 2.0
    assert sc.geom1.distance == 1.0 and sc.geom2.distance == 0.5
    assert sc.geom1.pathloss_exp == 2.0
    assert cfg.catalog.num_files == 5
    assert cfg.catalog.zeta == 0.5
    assert cfg.catalog.cache_size == 1
    assert cfg.averaging == "full"
    split = cfg.split
    assert (split.gamma11, split.gamma12, split.gamma21, split.gamma22) == \
        (0.25, 0.25, 0.25, 0.25)
    assert split.base == sc


def test_parse_empty_object_matches_defaults():
    assert parse_config({}) == load_config(None)


def test_explicit_power_wins_over_default_snr():
    cfg = parse_config({"power": 25.0})
    assert cfg.scenario.power == 25.0


def test_snr_conversion_uses_first_noise_floor():
    cfg = parse_config({"snr_db": 3.0, "sigma1_sq": 2.0})
    assert math.isclose(cfg.scenario.power, 2.0 * 10.0 ** 0.3, rel_tol=1e-15)


def test_power_and_snr_conflict():
    with pytest.raises(ConfigError):
        parse_config({"power": 10.0, "snr_db": 10.0})


def test_unknown_keys_fail_with_dotted_path():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config({"bogus": 1.0})
    with pytest.raises(ConfigError, match="chan1.m3"):
        parse_config({"chan1": {"m1": 1.0, "m2": 1.0, "omega1": 2.0,
                                "omega2": 2.0, "m3": 1.0}})
    with pytest.raises(ConfigError, match="catalog"):
        parse_config({"catalog": {"files": 5, "zeta": 0.5, "cache_size": 1,
                                  "extra": 0}})


def test_gamma_split_shape_enforced():
    with pytest.raises(ConfigError):
        parse_config({"gamma_split": [0.25, 0.25, 0.25]})
    with pytest.raises(ConfigError):
        parse_config({"gamma_split": 0.25})
    with pytest.raises(ConfigError):
        parse_config({"gamma_split": [0.25, 0.25, "x", 0.25]})
    cfg = parse_config({"gamma_split": [0.1, 0.2, 0.3, 0.4]})
    assert cfg.split.gamma22 == 0.4


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError):
        parse_config({"gamma1": True})
    with pytest.raises(ConfigError):
        parse_config({"catalog": {"files": 5, "zeta": 0.5, "cache_size": True}})


def test_value_range_checks():
    with pytest.raises(ConfigError):
        parse_config({"power": 0.0})
    with pytest.raises(ConfigError):
        parse_config({"dist1": -1.0})
    with pytest.raises(ConfigError):
        parse_config({"catalog": {"files": 5, "zeta": 0.5, "cache_size": 9}})
    with pytest.raises(ConfigError):
        parse_config({"catalog": {"files": 2.5, "zeta": 0.5, "cache_size": 1}})
    with pytest.raises(ConfigError):
        parse_config({"semantics": "hopeful"})
    with pytest.raises(ConfigError):
        parse_config({"averaging": "never"})
    # the geometry scale overflows, or underflows to zero; the rate divides
    # by an omega product that underflows to zero
    for data, key in (({"dist1": 1e-300}, "dist1"), ({"dist2": 1e200}, "dist2"),
                      ({"chan1": {"omega1": 1e-200, "omega2": 1e-200}}, "chan1"),
                      ({"chan2": {"omega1": 1e200, "omega2": 1e200}}, "chan2"),
                      # the error names the key the user wrote
                      ({"catalog": {"files": 5, "zeta": 0.5, "cache_size": 9}},
                       "catalog.cache_size"),
                      ({"catalog": {"files": 0}}, "catalog.files"),
                      ({"catalog": {"zeta": -1}}, "catalog.zeta"),
                      ({"pathloss_exp": -1}, "pathloss_exp"),
                      ({"catalog": {"files": MAX_FILES + 1}}, "catalog.files"),
                      ({"catalog": {"files": 10 ** 300}}, "catalog.files"),
                      # 10 ** (snr_db / 10) overflows, or underflows to zero
                      ({"snr_db": 4000}, "snr_db"), ({"snr_db": -4000}, "snr_db"),
                      # shapes past channel.MAX_SHAPE; 1e308 once overflowed lgamma
                      ({"chan1": {"m1": 1e308}}, "chan1: m1"),
                      ({"chan2": {"m2": 1e6}}, "chan2: m2"),
                      ({"chan2": {"m1": MAX_SHAPE + 1}}, "chan2: m1"),
                      # an integer past the float range
                      ({"gamma1": 10 ** 400}, "gamma1")):
        with pytest.raises(ConfigError, match=key):
            parse_config(data)


def test_non_object_rejected():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_load_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"snr_db": 15.0, "semantics": "joint",
                                "catalog": {"files": 8, "zeta": 1.2,
                                            "cache_size": 2}}))
    cfg = load_config(str(path))
    assert math.isclose(cfg.scenario.power, 10.0 ** 1.5, rel_tol=1e-15)
    assert cfg.scenario.semantics == "joint"
    assert cfg.split.base.semantics == "joint"
    assert cfg.catalog.num_files == 8
    assert cfg.catalog.cache_size == 2


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # json refuses integers of more than 4300 digits with a plain ValueError
    path.write_text('{"gamma1": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="broken.json: invalid JSON"):
        load_config(str(path))


def test_replace_scenario_rebuilds_split():
    cfg = load_config(None)
    bigger = cfg.scenario.replace(power=40.0)
    swapped = cfg.replace_scenario(bigger)
    assert swapped.scenario.power == 40.0
    assert swapped.split.base.power == 40.0
    assert swapped.catalog == cfg.catalog
    assert swapped.split.gamma11 == cfg.split.gamma11


# Scenario fuzz: a plausible scenario with up to two entries spoiled by
# values a JSON file can hold: NaN, infinities, huge and subnormal numbers,
# negatives, integers beyond the float range, bools, strings, lists, objects.
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
                     -5e-324, 2.2e-308, 0.0, -0.0, -1.0, 10 ** 400,
                     -(10 ** 400)]),
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
SHAPE = st.floats(0.5, MAX_SHAPE)
PLAUSIBLE = {
    "power": st.floats(1e-3, 1e6),
    "snr_db": st.floats(-30.0, 40.0),
    "sigma1_sq": st.floats(0.01, 10.0),
    "sigma2_sq": st.floats(0.01, 10.0),
    "gamma1": st.floats(0.01, 20.0),
    "gamma2": st.floats(0.01, 20.0),
    "gamma_split": st.lists(st.floats(0.01, 5.0), min_size=4, max_size=4),
    "chan1": st.fixed_dictionaries({}, optional={
        "m1": SHAPE, "m2": SHAPE, "omega1": st.floats(0.1, 10.0),
        "omega2": st.floats(0.1, 10.0)}),
    "dist1": st.floats(0.1, 10.0),
    "dist2": st.floats(0.1, 10.0),
    "pathloss_exp": st.floats(0.0, 5.0),
    "catalog": st.fixed_dictionaries({}, optional={
        "files": st.integers(1, 50), "zeta": st.floats(0.0, 2.0),
        "cache_size": st.integers(0, 3)}),
    "semantics": st.sampled_from(["product", "joint"]),
    "averaging": st.sampled_from(["full", "cases_only"]),
}
PLAUSIBLE["chan2"] = PLAUSIBLE["chan1"]
SPOILED = {
    "chan1": st.dictionaries(
        st.sampled_from(["m1", "m2", "omega1", "omega2", "m3"]), HOSTILE,
        min_size=1, max_size=2),
    "catalog": st.dictionaries(
        st.sampled_from(["files", "zeta", "cache_size", "size"]), HOSTILE,
        min_size=1, max_size=2),
    "gamma_split": st.lists(HOSTILE, max_size=5),
}
SPOILED["chan2"] = SPOILED["chan1"]


@st.composite
def scenarios(draw):
    keys = draw(st.lists(st.sampled_from(sorted(PLAUSIBLE)), max_size=6,
                         unique=True))
    data = {key: draw(PLAUSIBLE[key]) for key in keys}
    unknown = ["Chan1", "snr_dB"]
    spoiled = draw(st.lists(st.sampled_from(sorted(PLAUSIBLE) + unknown),
                            max_size=2, unique=True))
    for key in spoiled:
        data[key] = draw(st.one_of(HOSTILE, SPOILED.get(key, HOSTILE)))
    return data


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=scenarios())
def test_scenario_fuzz(data):
    # either a ConfigError that names a key the scenario wrote, or a config
    # whose case and split objectives come out as probabilities
    assert set(PLAUSIBLE) == set(DEFAULTS) | {"power"}
    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        message = str(exc)
        # a nested key's message starts with its parent, as "chan1: m1 ..."
        assert any(key in message for key in data), (data, message)
        return
    values = (case_objective(CacheCase.D, cfg.scenario)(0.7),
              split_objective_branch(0.7, 0.5, cfg.split, "high"))
    for v in values:
        assert 0.0 <= v <= 1.0, (data, values)
