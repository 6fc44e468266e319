"""Success probabilities for full-file caching, cases A-D.

The base station superimposes the two requested files with power split
alpha / (1 - alpha).  Each vehicle decodes through an ordered chain of SINR
conditions on its own squared channel gain.  The cases differ only in which
vehicle holds a cached copy of the other vehicle's file, and one rule builds
every vehicle's chain:

* a vehicle that holds the other file cancels it and decodes its own file
  with no interference;
* otherwise, if its own file is the weaker component on this branch, it
  first decodes and strips the other file (at that file's threshold), then
  decodes its own file clean;
* otherwise it decodes its own file with the other as interference.

The branch is "high" when file 1 carries the larger share (alpha > 0.5) and
"low" otherwise; ``branch_of(alpha)`` is the one place that maps alpha to a
branch, so alpha = 0.5 belongs to the low branch.

Two ways to turn a multi-condition chain into a probability are supported:

* ``product``  multiply the marginal survival of every condition, treating
               the conditions as if they were met on independent draws;
* ``joint``    require one draw to satisfy every condition, i.e. survive the
               largest of the per-condition gain thresholds.

``joint`` is never below ``product`` because the conditions are coupled
through the same gain.

The rule hands each condition to ``make(signal, interference, noise,
threshold)`` and is read two ways: ``case_chains``, and through it the
objectives, makes a gain threshold of each condition, and the optimizer's
feasibility check a SINR margin.  A chain is thus a tuple of gain
thresholds, None where a condition is impossible; ``chain_probability`` and
``mc.mc_cells`` check hand-built ones.

Self hits, common requests and the orthogonal (OMA) baseline send one file
alone at full power.  Each vehicle that decodes it has a one-threshold
chain, read by the same reader as the cases' chains.
"""
import math

from ._record import Record
from .caching import CacheCase, case_distribution
from .channel import (
    DoubleNakagamiParams,
    LinkGeometry,
    effective_scale,
    survival_gain_sq,
)

__all__ = [
    "SEMANTICS",
    "FullScenario",
    "gain_threshold",
    "chain_probability",
    "branch_of",
    "case_chains",
    "case_success",
    "oma_success",
    "case_objective",
    "average_success",
    "oma_average_success",
]

SEMANTICS = ("product", "joint")


class FullScenario(Record):
    """Full-file transmission setup for the two-vehicle downlink."""

    __slots__ = ("power", "sigma1_sq", "sigma2_sq", "gamma1", "gamma2",
                 "chan1", "chan2", "geom1", "geom2", "semantics")

    def __init__(self, power: float, sigma1_sq: float, sigma2_sq: float,
                 gamma1: float, gamma2: float, chan1: DoubleNakagamiParams,
                 chan2: DoubleNakagamiParams, geom1: LinkGeometry,
                 geom2: LinkGeometry, semantics: str = "product"):
        for name, v in (("power", power), ("sigma1_sq", sigma1_sq),
                        ("sigma2_sq", sigma2_sq), ("gamma1", gamma1),
                        ("gamma2", gamma2)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if semantics not in SEMANTICS:
            raise ValueError(
                f"semantics must be one of {SEMANTICS}, got {semantics!r}"
            )
        super().__init__(power, sigma1_sq, sigma2_sq, gamma1, gamma2, chan1, chan2,
                         geom1, geom2, semantics)


def gain_threshold(signal_coef, interference_coef, noise, threshold):
    """Smallest g^2 satisfying the SINR condition, or None when impossible.

    S g^2 / (I g^2 + N) > t  <=>  g^2 (S - t I) > t N, solvable only when
    S > t I.  An infinite threshold t is never met, so it gives None too.
    """
    margin = signal_coef - threshold * interference_coef
    if not margin > 0.0:  # nan where t = inf meets I = 0
        return None
    return threshold * noise / margin


def _checked_chain(chain):
    """A hand-built chain, checked: one or more entries, each None or a gain
    threshold >= 0 (inf is legal, and never met)."""
    if len(chain) == 0:
        raise ValueError("a decode chain needs at least one condition")
    for t in chain:
        if t is not None and not (isinstance(t, (int, float)) and t >= 0.0):
            raise ValueError(f"a decode chain's entries must be None or gain "
                             f"thresholds >= 0, got {t!r}")
    return chain


def _success(thresholds, params, geom, semantics):
    """Probability that one link's gain clears every threshold (None: never)."""
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    if None in thresholds:
        return 0.0
    s = effective_scale(geom)
    if semantics == "joint":
        return survival_gain_sq(max(thresholds) / s, params)
    p = 1.0
    for t in thresholds:
        p *= survival_gain_sq(t / s, params)
    return p


def chain_probability(chain, params: DoubleNakagamiParams,
                      geom: LinkGeometry, semantics: str) -> float:
    """Probability that a chain (a tuple of gain thresholds, None where a
    condition is impossible) succeeds on one link."""
    return _success(_checked_chain(chain), params, geom, semantics)


# Alpha range of each decode branch; the optimizers visit them in this order.
BRANCH_ALPHA = {"high": (0.5, 1.0), "low": (0.0, 0.5)}


def branch_of(alpha):
    """Decode branch of a power split: "high" when file 1 gets the larger
    share (alpha > 0.5), otherwise "low" (alpha = 0.5 included)."""
    return "high" if alpha > 0.5 else "low"


def _check_share(name, value):
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_branch(branch):
    if branch not in BRANCH_ALPHA:
        raise ValueError(f"branch must be 'high' or 'low', got {branch!r}")


# (vehicle 1 holds file 2, vehicle 2 holds file 1) per case
_HOLDS_OTHER = {
    CacheCase.A: (True, True),
    CacheCase.B: (True, False),
    CacheCase.C: (False, True),
    CacheCase.D: (False, False),
}


def _vehicle_chain(make, mine, other, noise, own_gamma, other_gamma,
                   holds_other, weaker):
    """One vehicle's chain, one ``make(signal, interference, noise,
    threshold)`` per condition; ``mine`` and ``other`` are the files' powers."""
    own = make(mine, 0.0, noise, own_gamma)
    if holds_other:
        return (own,)
    if weaker:
        return (make(other, mine, noise, other_gamma), own)
    return (make(mine, other, noise, own_gamma),)


def _case_rule(make, case, alpha, sc, branch):
    """Both vehicles' chains for one case, in ``make``'s form."""
    _check_share("alpha", alpha)
    _check_branch(branch)
    if case not in _HOLDS_OTHER:
        raise ValueError(f"case must be one of A, B, C, D, got {case!r}")
    holds1, holds2 = _HOLDS_OTHER[case]
    p1, p2 = alpha * sc.power, (1.0 - alpha) * sc.power
    high = branch == "high"
    return (
        _vehicle_chain(make, p1, p2, sc.sigma1_sq, sc.gamma1, sc.gamma2, holds1,
                       weaker=not high),
        _vehicle_chain(make, p2, p1, sc.sigma2_sq, sc.gamma2, sc.gamma1, holds2,
                       weaker=high),
    )


def case_chains(case: CacheCase, alpha: float, sc: FullScenario, branch: str):
    """Decode chains of vehicle 1 (link 1) and vehicle 2 (link 2) for one
    case, as tuples of ``gain_threshold`` values in decode order.

    Vehicle 1's file rides on alpha * P, vehicle 2's on (1 - alpha) * P.
    ``branch`` is "high" (file 1 is the stronger component) or "low"; the
    caller owns the choice, usually ``branch_of(alpha)``."""
    return _case_rule(gain_threshold, case, alpha, sc, branch)


def _pair_success(chains, sc: FullScenario):
    """Success probabilities (p1, p2) of a chain pair on links 1 and 2."""
    v1, v2 = chains
    return (_success(v1, sc.chan1, sc.geom1, sc.semantics),
            _success(v2, sc.chan2, sc.geom2, sc.semantics))


def case_success(case: CacheCase, alpha: float, sc: FullScenario):
    """Success probabilities (p1, p2) of the two vehicles for one case.

    Case A is two clean single-user links; case D, with no cached side
    information, is plain power-domain NOMA with SIC and so also the
    cacheless (conventional NOMA) baseline.
    """
    return _pair_success(case_chains(case, alpha, sc, branch_of(alpha)), sc)


def _alone_success(sc: FullScenario, gamma1, gamma2):
    """Success probabilities (p1, p2) of one file sent alone at full power,
    decoded at threshold gamma1 on link 1 and gamma2 on link 2."""
    return _pair_success(((gain_threshold(sc.power, 0.0, sc.sigma1_sq, gamma1),),
                          (gain_threshold(sc.power, 0.0, sc.sigma2_sq, gamma2),)),
                         sc)


def oma_success(sc: FullScenario):
    """Orthogonal baseline: half the resource, full power, per vehicle.

    Halving the resource doubles the spectral-efficiency requirement, so the
    rate-equivalent SINR threshold is (1 + gamma)^2 - 1.
    """
    return _alone_success(sc, _oma_threshold(sc.gamma1),
                          _oma_threshold(sc.gamma2))


def _oma_threshold(gamma):
    """(1 + gamma)^2 - 1, or inf where the square overflows (no success)."""
    try:
        return (1.0 + gamma) ** 2 - 1.0
    except OverflowError:
        return math.inf


def case_objective(case: CacheCase, sc: FullScenario):
    """Objective alpha -> p1 * p2 for one of the cases A-D."""

    def objective(alpha):
        p1, p2 = case_success(case, alpha, sc)
        return p1 * p2

    return objective


AVERAGING = ("full", "cases_only")


def _average(sc: FullScenario, catalog, averaging: str, pair_value) -> float:
    """Tag-mass average; ``pair_value(case)`` values the cases A-D.

    A self hit sends the other vehicle its file alone, a common request one
    file that both decode at gamma1, a double self hit nothing.  A tag is
    valued only when it carries mass and is kept."""
    if averaging not in AVERAGING:
        raise ValueError(f"averaging must be one of {AVERAGING}, got {averaging!r}")
    alone = {
        CacheCase.SELF_HIT_1: lambda: _alone_success(sc, sc.gamma1, sc.gamma2)[1],
        CacheCase.SELF_HIT_2: lambda: _alone_success(sc, sc.gamma1, sc.gamma2)[0],
        CacheCase.SELF_HIT_BOTH: lambda: 1.0,
        CacheCase.COMMON_REQUEST:
            lambda: math.prod(_alone_success(sc, sc.gamma1, sc.gamma1)),
    }
    dist = case_distribution(catalog)
    total = 0.0
    for case, mass in dist.items():
        if mass == 0.0:
            continue
        if averaging == "cases_only" and case is CacheCase.COMMON_REQUEST:
            continue
        value = alone[case]() if case in alone else pair_value(case)
        total += mass * value
    if averaging == "cases_only":
        kept = 1.0 - dist[CacheCase.COMMON_REQUEST]
        if kept <= 0.0:
            return 0.0
        total /= kept
    return total


def average_success(sc: FullScenario, catalog, per_case_optimizer,
                    averaging: str = "full") -> float:
    """Mean joint success over the request-pair distribution.

    ``per_case_optimizer(case, scenario)`` must return an object with a
    ``value`` attribute holding the optimized joint success for that case
    (cases A-D only; the remaining tags are closed-form).  Both vehicles
    cache the same files, so cases A-C carry no mass and only case D is
    ever handed to it.

    ``averaging="full"`` weights every tag; ``averaging="cases_only"``
    conditions on the two vehicles requesting different files (the common-
    request mass is dropped and the rest renormalized).
    """
    return _average(sc, catalog, averaging,
                    lambda case: per_case_optimizer(case, sc).value)


def oma_average_success(sc: FullScenario, catalog, averaging: str = "full") -> float:
    """Orthogonal-access average under the same request/caching model.

    Single-file events (self hits, common requests) carry no multiple-access
    distinction and reuse the same values as the superposition average; the
    A-D tags use the orthogonal per-vehicle successes, which do not depend
    on cached side information.
    """
    p1, p2 = oma_success(sc)
    return _average(sc, catalog, averaging, lambda case: p1 * p2)
