"""Cache-aided NOMA decoding analysis over cascaded Nakagami-m links.

The package computes, optimizes, and Monte-Carlo-validates the probability
that two vehicles successfully decode files sent by superposition coding
from a base station, when each vehicle may hold cached copies that let it
cancel interference.  Channels are modeled as double (cascaded) Nakagami-m
fading; all special functions and quadrature rules are implemented here.
"""
from .caching import CacheCase, Catalog, case_distribution, zipf_popularity
from .channel import DoubleNakagamiParams, LinkGeometry, bessel_k
from .config import ScenarioConfig, load_config, parse_config
from .errors import QuadratureAccuracyError
from .mc import McConfig, mc_case, mc_cells, mc_split
from .noma_full import (
    FullScenario,
    average_success,
    branch_of,
    case_chains,
    case_objective,
    case_success,
    chain_probability,
    gain_threshold,
    oma_average_success,
    oma_success,
)
from .noma_split import SplitScenario, split_objective_branch
from .optimizer import (
    OptResult,
    check_concavity,
    optimize_case,
    optimize_split,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CacheCase",
    "Catalog",
    "case_distribution",
    "zipf_popularity",
    "DoubleNakagamiParams",
    "LinkGeometry",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "QuadratureAccuracyError",
    "McConfig",
    "mc_case",
    "mc_cells",
    "mc_split",
    "FullScenario",
    "average_success",
    "branch_of",
    "case_chains",
    "case_objective",
    "case_success",
    "chain_probability",
    "gain_threshold",
    "oma_average_success",
    "oma_success",
    "SplitScenario",
    "split_objective_branch",
    "OptResult",
    "check_concavity",
    "optimize_case",
    "optimize_split",
    "bessel_k",
]
