"""Success probabilities for two-way split-file caching.

Each file is split in two parts; each vehicle caches the *first* part of the
other vehicle's file and cancels it on reception.  The superposition carries
four components with powers

    alpha*beta*P          part 1 of file 1
    alpha*(1-beta)*P      part 2 of file 1
    (1-alpha)*beta*P      part 1 of file 2
    (1-alpha)*(1-beta)*P  part 2 of file 2

Vehicle 1 must recover both parts of file 1, vehicle 2 both parts of file 2.
On the high branch (alpha > 0.5) vehicle 2 additionally SIC-decodes the
uncached part of file 1 first; on the low branch (alpha <= 0.5) the roles
flip.  Five SINR conditions result: two for one vehicle, three for the
other, each mapped to a gain threshold on its own link.
"""
import math
from dataclasses import dataclass

from .noma_full import (
    DecodeChain,
    FullScenario,
    SinrCondition,
    chain_probability,
)

__all__ = [
    "SplitScenario",
    "SplitAllocation",
    "split_objective",
    "split_case_chains",
    "split_objective_branch",
]


@dataclass(frozen=True)
class SplitScenario:
    """Full scenario plus the four per-part SINR thresholds.

    gamma11/gamma12: parts 1 and 2 of file 1; gamma21/gamma22: of file 2.
    """

    base: FullScenario
    gamma11: float
    gamma12: float
    gamma21: float
    gamma22: float

    def __post_init__(self):
        for name in ("gamma11", "gamma12", "gamma21", "gamma22"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class SplitAllocation:
    """Primary power split alpha (between files) and secondary split beta
    (between the two parts of each file)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")


def split_case_chains(alpha: float, beta: float, sc: SplitScenario, branch: str):
    """Decode chains (vehicle 1, vehicle 2) for the requested branch.

    ``branch`` is "high" or "low"; the caller owns the branch choice, which
    lets the two formulas be compared at the overlap point alpha = 0.5.
    """
    base = sc.base
    p = base.power
    a, b = alpha, beta
    s1, s2 = base.sigma1_sq, base.sigma2_sq

    if branch == "high":
        v1 = DecodeChain((
            # part 1 of file 1 against everything it cannot cancel
            SinrCondition(a * b * p, (1.0 - b) * p, s1, sc.gamma11),
            # part 2 of file 1 after stripping part 1
            SinrCondition(a * (1.0 - b) * p, (1.0 - a) * (1.0 - b) * p, s1, sc.gamma12),
        ))
        v2 = DecodeChain((
            # uncached part 2 of file 1, decoded first and stripped
            SinrCondition(a * (1.0 - b) * p, (1.0 - a) * p, s2, sc.gamma12),
            # part 1 of file 2
            SinrCondition(b * (1.0 - a) * p, (1.0 - a) * (1.0 - b) * p, s2, sc.gamma21),
            # part 2 of file 2, interference-free
            SinrCondition((1.0 - b) * (1.0 - a) * p, 0.0, s2, sc.gamma22),
        ))
        return v1, v2

    if branch == "low":
        v2 = DecodeChain((
            SinrCondition((1.0 - a) * b * p, (1.0 - b) * p, s2, sc.gamma21),
            SinrCondition((1.0 - a) * (1.0 - b) * p, a * (1.0 - b) * p, s2, sc.gamma22),
        ))
        v1 = DecodeChain((
            # uncached part 2 of file 2, decoded first and stripped
            SinrCondition((1.0 - a) * (1.0 - b) * p, a * p, s1, sc.gamma22),
            SinrCondition(a * b * p, a * (1.0 - b) * p, s1, sc.gamma11),
            SinrCondition(a * (1.0 - b) * p, 0.0, s1, sc.gamma12),
        ))
        return v1, v2

    raise ValueError(f"branch must be 'high' or 'low', got {branch!r}")


def split_objective_branch(alpha: float, beta: float, sc: SplitScenario,
                           branch: str) -> float:
    """Joint success of both vehicles under one branch's decode order."""
    base = sc.base
    v1, v2 = split_case_chains(alpha, beta, sc, branch)
    p1 = chain_probability(v1, base.chan1, base.geom1, base.semantics)
    p2 = chain_probability(v2, base.chan2, base.geom2, base.semantics)
    return p1 * p2


def split_objective(alloc: SplitAllocation, sc: SplitScenario) -> float:
    """Joint success with the branch picked by alpha (0.5 -> low)."""
    branch = "high" if alloc.alpha > 0.5 else "low"
    return split_objective_branch(alloc.alpha, alloc.beta, sc, branch)
