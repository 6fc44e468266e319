"""Monte Carlo validation of the analytic success probabilities.

Sampling is organized in fixed-size blocks.  Every (stream, block) pair is
seeded independently via SeedSequence([seed, user, condition, block]), so a
run produces byte-identical counts for any worker count: block results are
integers summed in block order no matter which worker finished first.

Modes mirror the two analytic semantics:

* ``joint``    one sample set per decode chain; a sample counts when it
               clears the largest per-condition gain threshold;
* ``product``  an independent sample set per condition; the per-condition
               rates are multiplied.

Estimates expose a 99% normal-approximation confidence half-width, with a
continuity guard so an all-or-nothing count still reports a nonzero width.
"""
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .caching import CacheCase
from .channel import sample_gain_sq
from .noma_full import _chain_thresholds, branch_of, case_chains
from .noma_split import split_case_chains

__all__ = [
    "McConfig",
    "McEstimate",
    "McCaseResult",
    "mc_case",
    "mc_split",
    "BLOCK",
    "Z99",
]

BLOCK = 1 << 17

# two-sided 99% normal quantile
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class McConfig:
    """Sample budget, base seed, and worker count for one estimate."""

    samples: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its 99% confidence half-width."""

    value: float
    half_width: float


@dataclass(frozen=True)
class McCaseResult:
    """Per-vehicle estimates and their product (links are independent)."""

    p1: McEstimate
    p2: McEstimate
    joint: McEstimate


def _block_sizes(n):
    full, rem = divmod(n, BLOCK)
    sizes = [BLOCK] * full
    if rem:
        sizes.append(rem)
    return sizes


def _count_survivors(threshold, seed_key, n, workers):
    """#(g^2 >= threshold) out of n draws from one seeded stream."""
    params, geom, seed, user, cond = seed_key

    def task(k, m):
        ss = np.random.SeedSequence([seed, user, cond, k])
        rng = np.random.default_rng(ss)
        g = sample_gain_sq(params, geom, rng, size=m)
        return int((g >= threshold).sum())

    sizes = _block_sizes(n)
    if workers == 1 or len(sizes) == 1:
        parts = [task(k, m) for k, m in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, range(len(sizes)), sizes))
    return sum(parts)


def _guarded(p, n):
    # keep the variance estimate away from the degenerate 0/1 corners
    return min(max(p, 0.5 / n), 1.0 - 0.5 / n)


def _binomial_estimate(count, n):
    p = count / n
    pg = _guarded(p, n)
    return McEstimate(p, Z99 * math.sqrt(pg * (1.0 - pg) / n))


def _product_of(estimates):
    """Product of independent estimates with first-order error propagation."""
    value = 1.0
    for e in estimates:
        value *= e.value
    var = 0.0
    for i, e in enumerate(estimates):
        partial = 1.0
        for j, o in enumerate(estimates):
            if j != i:
                partial *= o.value
        var += (partial * e.half_width) ** 2
    return McEstimate(value, math.sqrt(var))


def _chain_estimate(chain, params, geom, mode, cfg, user):
    """One decode chain, sampled on this user's independent streams."""
    ts = _chain_thresholds(chain)
    if ts is None:
        return McEstimate(0.0, 0.0)
    n = cfg.samples
    if mode == "joint":
        key = (params, geom, cfg.seed, user, 0)
        count = _count_survivors(max(ts), key, n, cfg.workers)
        return _binomial_estimate(count, n)
    parts = []
    for j, t in enumerate(ts):
        key = (params, geom, cfg.seed, user, j)
        count = _count_survivors(t, key, n, cfg.workers)
        parts.append(_binomial_estimate(count, n))
    return _product_of(parts)


def _two_user_estimate(chains, base, cfg):
    chain1, chain2 = chains
    mode = base.semantics
    e1 = _chain_estimate(chain1, base.chan1, base.geom1, mode, cfg, user=1)
    e2 = _chain_estimate(chain2, base.chan2, base.geom2, mode, cfg, user=2)
    return McCaseResult(p1=e1, p2=e2, joint=_product_of([e1, e2]))


def mc_case(case: CacheCase, alpha, sc, cfg: McConfig) -> McCaseResult:
    """Monte Carlo estimate of a full-file case under the scenario semantics."""
    chains = case_chains(case, alpha, sc, branch_of(alpha))
    return _two_user_estimate(chains, sc, cfg)


def mc_split(alpha, beta, sc, cfg: McConfig) -> McCaseResult:
    """Monte Carlo estimate of the split-file success probability."""
    chains = split_case_chains(alpha, beta, sc, branch_of(alpha))
    return _two_user_estimate(chains, sc.base, cfg)
