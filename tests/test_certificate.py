"""A branch-and-bound certificate for ``optimize_case``'s answers.

This is monotonic optimization (H. Tuy, SIAM J. Optim. 11 (2000) 464-494).
Every gain threshold is gamma N / margin, and each SINR margin is linear in
alpha.  So on a box [a, b] inside one decode branch, each condition's
threshold is smallest at the end where its margin is largest, and a
condition whose margin is not positive at either end fails on the whole
box.  The survival function decreases, so the chains of those smallest
thresholds, read as the objective reads its chains, bound the objective
from above on the box: the product of each condition's survival under
product semantics, the survival of the largest of them under joint
semantics.  Splitting the box with the highest bound until none exceeds the
best value seen by more than EPS brackets the global maximum to within EPS,
with no assumption of concavity or unimodality.
"""
import heapq

import pytest

from cachenoma.caching import CacheCase
from cachenoma.config import parse_config
from cachenoma.noma_full import (
    BRANCH_ALPHA,
    _pair_success,
    branch_of,
    case_chains,
    case_objective,
)
from cachenoma.optimizer import optimize_case

EPS = 1e-5
# kernel values hold about 1e-9, so an optimum may read that far above a
# bound taken at other points
KERNEL_SLACK = 1e-9
MAX_BOXES = 20_000


def _smallest(ends):
    """A chain of each condition's smaller threshold over a box's two ends;
    None where the condition fails at both, and so throughout."""
    return tuple(None if a is None and b is None
                 else min(t for t in (a, b) if t is not None)
                 for a, b in zip(*ends))


def _objective(chains, sc):
    p1, p2 = _pair_success(chains, sc)
    return p1 * p2


def certified_maximum(case, sc, best=0.0):
    """(best value, upper bound) on the case objective over [0, 1], the
    bound at most ``EPS`` above the value.  ``best``, if given, is a value
    the objective attains; it spares splitting the boxes it already beats."""
    heap = []

    def push(branch, a, ca, b, cb):
        bound = _objective(tuple(map(_smallest, zip(ca, cb))), sc)
        heapq.heappush(heap, (-bound, a, b, branch, ca, cb))

    def read(branch, x):
        # a point counts toward the best value only on the branch that owns
        # it: at alpha = 0.5 the objective decodes in the low order
        nonlocal best
        chains = case_chains(case, x, sc, branch)
        if branch_of(x) == branch:
            best = max(best, _objective(chains, sc))
        return chains

    for branch, (lo, hi) in BRANCH_ALPHA.items():
        push(branch, lo, read(branch, lo), hi, read(branch, hi))
    for _ in range(MAX_BOXES):
        if -heap[0][0] <= best + EPS:
            return best, -heap[0][0]
        _, a, b, branch, ca, cb = heapq.heappop(heap)
        m = 0.5 * (a + b)
        cm = read(branch, m)
        push(branch, a, ca, m, cm)
        push(branch, m, cm, b, cb)
    raise AssertionError(f"no certificate within {MAX_BOXES} boxes")


SHAPES = {
    "integer": ({"m1": 1, "m2": 2}, {"m1": 2, "m2": 1}),
    "half-integer": ({"m1": 1.5, "m2": 2.5}, {"m1": 0.5, "m2": 3.5}),
    "large": ({"m1": 40.5, "m2": 30}, {"m1": 60, "m2": 25.5}),
    "lopsided": ({"m1": 0.75, "m2": 90}, {"m1": 99.5, "m2": 0.6}),
}
SNRS_DB = (-5.0, 2.5, 10.0, 20.0)
THRESHOLDS = ((1.0, 1.0), (0.4, 2.5), (3.0, 0.7))


def _census():
    # threshold pair i + j (mod 3) at shape i and SNR j: every shape meets
    # every SNR and every threshold pair, and every SNR every threshold pair
    for i, (shape, (chan1, chan2)) in enumerate(SHAPES.items()):
        for j, snr_db in enumerate(SNRS_DB):
            gamma1, gamma2 = THRESHOLDS[(i + j) % len(THRESHOLDS)]
            for semantics in ("product", "joint"):
                yield pytest.param(
                    {"snr_db": snr_db, "gamma1": gamma1, "gamma2": gamma2,
                     "semantics": semantics,
                     "chan1": dict(chan1, omega1=2.0, omega2=2.0),
                     "chan2": dict(chan2, omega1=2.0, omega2=2.0)},
                    id=f"{shape}-{snr_db:g}dB-{gamma1:g}-{gamma2:g}-{semantics}")


@pytest.mark.parametrize("config", _census())
def test_optimize_case_reaches_certified_maximum(config):
    sc = parse_config(config).scenario
    for case in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
        res = optimize_case(case, sc)
        # the answer is a value the objective attains, so it may seed the
        # search; a box whose bound beats it by more than EPS is split until
        # the bound falls or a better point shows up
        assert res.value == case_objective(case, sc)(res.argmax), case
        best, bound = certified_maximum(case, sc, best=res.value)
        assert res.value >= bound - EPS, (case, res.value, best, bound)
        assert res.value <= bound + KERNEL_SLACK, (case, res.value, bound)
