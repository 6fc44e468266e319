"""JSON scenario files.

A scenario file is a flat JSON object; every key is optional and falls back
to the defaults below.  Unknown keys are rejected with their dotted path so
a typo cannot silently run the default instead.

Keys:

* ``power`` or ``snr_db`` (mutually exclusive): transmit power directly, or
  as an SNR in dB relative to vehicle 1's noise floor
  (power = sigma1_sq * 10**(snr_db / 10)).
* ``sigma1_sq``, ``sigma2_sq``: receiver noise powers.
* ``gamma1``, ``gamma2``: full-file SINR thresholds.
* ``gamma_split``: four thresholds [part 1a, 1b, 2a, 2b] for split-file mode.
* ``chan1``, ``chan2``: objects with ``m1``, ``m2`` (shapes in
  [0.5, ``channel.MAX_SHAPE``]), ``omega1``, ``omega2``.
* ``dist1``, ``dist2``, ``pathloss_exp``: link geometry.
* ``catalog``: object with ``files`` (at most ``caching.MAX_FILES``),
  ``zeta``, ``cache_size``.
* ``semantics``: "product" or "joint".
* ``averaging``: "full" or "cases_only".
"""
import math

from ._record import Record
from .caching import MAX_FILES, Catalog
from .channel import DoubleNakagamiParams, LinkGeometry
from .noma_full import AVERAGING, SEMANTICS, FullScenario
from .noma_split import SplitScenario

__all__ = ["ScenarioConfig", "ConfigError", "load_config", "parse_config", "DEFAULTS"]

DEFAULTS = {
    "snr_db": 10.0,
    "sigma1_sq": 1.0,
    "sigma2_sq": 1.0,
    "gamma1": 1.0,
    "gamma2": 1.0,
    "gamma_split": [0.25, 0.25, 0.25, 0.25],
    "chan1": {"m1": 1.0, "m2": 1.0, "omega1": 2.0, "omega2": 2.0},
    "chan2": {"m1": 1.0, "m2": 1.0, "omega1": 2.0, "omega2": 2.0},
    "dist1": 1.0,
    "dist2": 0.5,
    "pathloss_exp": 2.0,
    "catalog": {"files": 5, "zeta": 0.5, "cache_size": 1},
    "semantics": "product",
    "averaging": "full",
}

_CHAN_KEYS = ("m1", "m2", "omega1", "omega2")
_CATALOG_KEYS = ("files", "zeta", "cache_size")
_TOP_KEYS = frozenset(DEFAULTS) | {"power"}


class ScenarioConfig(Record):
    """Parsed scenario: everything the CLI commands need to run."""

    __slots__ = ("split", "catalog", "averaging")

    @property
    def scenario(self) -> FullScenario:
        """The full-file scenario, which the split scenario is built on."""
        return self.split.base

    def replace_scenario(self, scenario: FullScenario) -> "ScenarioConfig":
        return self.replace(split=self.split.replace(base=scenario))


class ConfigError(ValueError):
    """Malformed scenario file."""


def _require_number(value, path, positive=False, nonneg=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and not v > 0.0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    if nonneg and v < 0.0:
        raise ConfigError(f"{path}: must be nonnegative, got {value!r}")
    return v


def _require_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")


def _parse_channel(obj, path):
    _check_keys(obj, _CHAN_KEYS, path)
    merged = dict(DEFAULTS["chan1"])
    merged.update(obj)
    values = {key: _require_number(merged[key], f"{path}.{key}", positive=True)
              for key in _CHAN_KEYS}
    try:
        return DoubleNakagamiParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_geometry(value, path, pathloss):
    distance = _require_number(value, path, positive=True)
    try:
        return LinkGeometry(distance=distance, pathloss_exp=pathloss)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_catalog(obj):
    _check_keys(obj, _CATALOG_KEYS, "catalog")
    cat = dict(DEFAULTS["catalog"])
    cat.update(obj)
    files = _require_int(cat["files"], "catalog.files")
    if not 1 <= files <= MAX_FILES:
        raise ConfigError(f"catalog.files: must lie in [1, {MAX_FILES}], "
                          f"got {files!r}")
    zeta = _require_number(cat["zeta"], "catalog.zeta", nonneg=True)
    cache_size = _require_int(cat["cache_size"], "catalog.cache_size")
    if not 0 <= cache_size <= files:
        raise ConfigError(f"catalog.cache_size: must lie in [0, catalog.files] "
                          f"= [0, {files}], got {cache_size!r}")
    return Catalog(num_files=files, zeta=zeta, cache_size=cache_size)


def _snr_power(sigma1_sq, snr_db):
    """Transmit power for an SNR in dB over vehicle 1's noise floor."""
    try:
        power = sigma1_sq * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ConfigError(f"snr_db: {snr_db!r} dB gives transmit power "
                          f"{power!r}, which must be finite and positive")
    return power


def parse_config(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a decoded JSON object."""
    _check_keys(data, _TOP_KEYS, "")
    if "power" in data and "snr_db" in data:
        raise ConfigError("power and snr_db are mutually exclusive")

    def get(key):
        return data.get(key, DEFAULTS[key])

    sigma1 = _require_number(get("sigma1_sq"), "sigma1_sq", positive=True)
    sigma2 = _require_number(get("sigma2_sq"), "sigma2_sq", positive=True)
    if "power" in data:
        power = _require_number(data["power"], "power", positive=True)
    else:
        power = _snr_power(sigma1, _require_number(get("snr_db"), "snr_db"))

    gamma_split = get("gamma_split")
    if (not isinstance(gamma_split, list)) or len(gamma_split) != 4:
        raise ConfigError(
            f"gamma_split: expected a list of 4 thresholds, got {gamma_split!r}")
    g11, g12, g21, g22 = (
        _require_number(v, f"gamma_split[{i}]", positive=True)
        for i, v in enumerate(gamma_split)
    )

    chan1 = _parse_channel(get("chan1"), "chan1")
    chan2 = _parse_channel(get("chan2"), "chan2")
    pathloss = _require_number(get("pathloss_exp"), "pathloss_exp", nonneg=True)
    geom1 = _parse_geometry(get("dist1"), "dist1", pathloss)
    geom2 = _parse_geometry(get("dist2"), "dist2", pathloss)

    semantics = get("semantics")
    if semantics not in SEMANTICS:
        raise ConfigError(
            f"semantics: expected 'product' or 'joint', got {semantics!r}")
    averaging = get("averaging")
    if averaging not in AVERAGING:
        raise ConfigError(
            f"averaging: expected one of {AVERAGING}, got {averaging!r}")

    catalog = _parse_catalog(get("catalog"))
    scenario = FullScenario(
        power=power,
        sigma1_sq=sigma1,
        sigma2_sq=sigma2,
        gamma1=_require_number(get("gamma1"), "gamma1", positive=True),
        gamma2=_require_number(get("gamma2"), "gamma2", positive=True),
        chan1=chan1,
        chan2=chan2,
        geom1=geom1,
        geom2=geom2,
        semantics=semantics,
    )
    split = SplitScenario(base=scenario, gamma11=g11, gamma12=g12,
                          gamma21=g21, gamma22=g22)
    return ScenarioConfig(split=split, catalog=catalog, averaging=averaging)


def load_config(path=None) -> ScenarioConfig:
    """Read a scenario file; with no path, return the built-in defaults."""
    if path is None:
        return parse_config({})
    import json  # only here: the defaults need no JSON parser

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(data)
