"""Success probabilities for two-way split-file caching.

Each file is split in two parts; each vehicle caches the *first* part of the
other vehicle's file and cancels it on reception.  The superposition carries
four components with powers

    alpha*beta*P          part 1 of file 1
    alpha*(1-beta)*P      part 2 of file 1
    (1-alpha)*beta*P      part 1 of file 2
    (1-alpha)*(1-beta)*P  part 2 of file 2

Vehicle 1 must recover both parts of file 1, vehicle 2 both parts of file 2.
The two branches differ only in which file carries the larger share, so one
rule builds each vehicle's chain from its own share and the other's:

* the vehicle whose file is the stronger decodes part 1 of it against
  everything it cannot cancel, then part 2 against the other file's part 2;
* the vehicle whose file is the weaker first SIC-decodes the uncached part 2
  of the other file, then decodes part 1 of its own against part 2, then
  part 2 clean.

On the high branch (alpha > 0.5, see ``noma_full.branch_of``) file 1 is the
stronger; on the low branch (alpha <= 0.5) the roles flip.  Five SINR
conditions result: two for one vehicle, three for the other, each mapped to
a gain threshold on its own link.  As in ``noma_full``, the rule is read
two ways: ``split_case_chains``, and through it the objective, makes gain
thresholds of it, and the optimizer's feasibility check SINR margins.
"""
import math

from ._record import Record
from .noma_full import (
    FullScenario,
    _check_branch,
    _check_share,
    _pair_success,
    gain_threshold,
)

__all__ = [
    "SplitScenario",
    "split_case_chains",
    "split_objective_branch",
]


class SplitScenario(Record):
    """Full scenario plus the four per-part SINR thresholds.

    gamma11/gamma12: parts 1 and 2 of file 1; gamma21/gamma22: of file 2.
    """

    __slots__ = ("base", "gamma11", "gamma12", "gamma21", "gamma22")

    def __init__(self, base: FullScenario, gamma11: float, gamma12: float,
                 gamma21: float, gamma22: float):
        for name, v in (("gamma11", gamma11), ("gamma12", gamma12),
                        ("gamma21", gamma21), ("gamma22", gamma22)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        super().__init__(base, gamma11, gamma12, gamma21, gamma22)


def _vehicle_chain(make, mine, other, b, p, noise, own_gammas, other_gamma2,
                   weaker):
    """One vehicle's chain, one ``make(signal, interference, noise,
    threshold)`` per condition; ``mine`` and ``other`` are the files' shares."""
    g1, g2 = own_gammas
    if weaker:
        return (
            # uncached part 2 of the other file, decoded first and stripped
            make(other * (1.0 - b) * p, mine * p, noise, other_gamma2),
            make(mine * b * p, mine * (1.0 - b) * p, noise, g1),
            make(mine * (1.0 - b) * p, 0.0, noise, g2),
        )
    return (
        # part 1 against everything it cannot cancel
        make(mine * b * p, (1.0 - b) * p, noise, g1),
        # part 2 after stripping part 1
        make(mine * (1.0 - b) * p, other * (1.0 - b) * p, noise, g2),
    )


def _split_rule(make, alpha, beta, sc, branch):
    """Both vehicles' chains for one branch, in ``make``'s form."""
    _check_share("alpha", alpha)
    _check_share("beta", beta)
    _check_branch(branch)
    base = sc.base
    p = base.power
    high = branch == "high"
    return (
        _vehicle_chain(make, alpha, 1.0 - alpha, beta, p, base.sigma1_sq,
                       (sc.gamma11, sc.gamma12), sc.gamma22, weaker=not high),
        _vehicle_chain(make, 1.0 - alpha, alpha, beta, p, base.sigma2_sq,
                       (sc.gamma21, sc.gamma22), sc.gamma12, weaker=high),
    )


def split_case_chains(alpha: float, beta: float, sc: SplitScenario, branch: str):
    """Decode chains (vehicle 1, vehicle 2), tuples of ``gain_threshold``
    values in decode order.

    ``branch`` is "high" or "low"; the caller owns the branch choice, which
    lets the two formulas be compared at the overlap point alpha = 0.5."""
    return _split_rule(gain_threshold, alpha, beta, sc, branch)


def split_objective_branch(alpha: float, beta: float, sc: SplitScenario,
                           branch: str) -> float:
    """Joint success of both vehicles under one branch's decode order."""
    p1, p2 = _pair_success(split_case_chains(alpha, beta, sc, branch), sc.base)
    return p1 * p2
