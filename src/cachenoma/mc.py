"""Monte Carlo validation of the analytic success probabilities.

A stream is the squared gain of one vehicle's link, for one condition
index: (params, geom, user, condition).  It is drawn in fixed-size blocks,
each seeded by SeedSequence([seed, user, condition, block]) alone, so every
estimate of one run that uses a stream sees the same draws.  ``mc_cells``
first collects every gain threshold its cells need, then draws each stream
once and counts every threshold on each block: a short threshold list by
one comparison pass per threshold, a long one by sorting the block and one
binary search per threshold.  Each thread draws and counts its blocks in
one pair of block-sized arrays that it keeps for the whole batch, so a
block allocates no array of its size.  Block counts are integers summed in
block order, so a run produces byte-identical output for any worker count.

Cells therefore share common random numbers: each cell's estimate and
confidence interval are valid on their own, but the estimates of different
cells in one run are correlated.  A one-cell call (``mc_case``,
``mc_split``) draws exactly what the same cell draws inside a batch.

Modes mirror the two analytic semantics:

* ``joint``    one sample set per decode chain (condition stream 0); a
               sample counts when it clears the largest per-condition gain
               threshold;
* ``product``  the j-th condition counts on condition stream j; the
               per-condition rates are multiplied.

Estimates expose a 99% normal-approximation confidence half-width, with a
continuity guard so an all-or-nothing count still reports a nonzero width.

numpy is imported inside ``_count_streams``, the one function that samples,
not at the top of the module: the package and ``cli`` import this module
eagerly, and the analytic commands, which never sample, would otherwise
spend most of their set-up time importing numpy.  ``threading`` is
imported there too, and the thread pool only when more than one worker
runs.
"""
import math

from ._record import Record
from .caching import CacheCase
from .channel import sample_gain_sq
from .noma_full import _checked_chain, branch_of, case_chains
from .noma_split import split_case_chains

__all__ = [
    "McConfig",
    "McEstimate",
    "McCaseResult",
    "mc_cells",
    "mc_case",
    "mc_split",
    "BLOCK",
    "MAX_SAMPLES",
    "MAX_WORKERS",
    "Z99",
]

BLOCK = 1 << 17

# Most samples per estimate; ``cli`` gives what a sample costs.
MAX_SAMPLES = 400_000_000

# Most sampling threads.  Each keeps two block-sized float64 arrays (2 MiB)
# for the whole batch: ``validate`` peaked at 37 MB with one worker and
# 69 MB with 16 on a 2-vCPU machine, no faster than with 2.
MAX_WORKERS = 32

# Most thresholds counted on a block by one comparison pass each; a longer
# list sorts the block and searches it.  On a 131 072-draw block a pass
# costs 0.036 ms and a sort plus the searches 0.97-1.0 ms (2-vCPU machine,
# numpy 2.4.6), so the two break even near 27 thresholds.
_MAX_PASSES = 27

# two-sided 99% normal quantile
Z99 = 2.5758293035489004


class McConfig(Record):
    """Sample budget, base seed, and worker count for one estimate."""

    __slots__ = ("samples", "seed", "workers")

    def __init__(self, samples: int, seed: int = 0, workers: int = 1):
        if samples < 1:
            raise ValueError("samples must be at least 1")
        if samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")
        super().__init__(samples, seed, workers)


class McEstimate(Record):
    """Point estimate with its 99% confidence half-width."""

    __slots__ = ("value", "half_width")


class McCaseResult(Record):
    """Per-vehicle estimates and their product (links are independent)."""

    __slots__ = ("p1", "p2", "joint")


def _block_sizes(n):
    full, rem = divmod(n, BLOCK)
    sizes = [BLOCK] * full
    if rem:
        sizes.append(rem)
    return sizes


def _slot(streams, key, threshold):
    """(key, index) of ``threshold`` among the thresholds counted on a stream."""
    slots = streams.setdefault(key, {})
    return key, slots.setdefault(threshold, len(slots))


def _count_streams(streams, n, seed, workers):
    """Per stream, the number of the n draws >= each of its thresholds.

    ``streams`` maps (params, geom, user, condition) to {threshold: index}.
    Every block of every stream is one job: it draws the block and counts
    its thresholds, keeping only the counts.  Up to ``_MAX_PASSES``
    thresholds are counted with one comparison pass each, the mask written
    into the spent Y array of the draw; a longer list sorts the block in
    place and counts each threshold with one binary search.  Both give the
    same integers.  Each thread draws all its blocks into one pair of
    block-sized arrays, made on its first job and reused for the whole
    call (a short last block uses their leading part), so no block
    allocates.  Counts are summed in job order.
    """
    import threading

    import numpy as np

    sizes = _block_sizes(n)
    thresholds = {key: np.array(list(slots), dtype=float)
                  for key, slots in streams.items()}
    jobs = [(key, k, m) for key in streams for k, m in enumerate(sizes)]
    local = threading.local()

    def job(spec):
        key, k, m = spec
        params, geom, user, cond = key
        rng = np.random.default_rng(np.random.SeedSequence([seed, user, cond, k]))
        pair = getattr(local, "pair", None)
        if pair is None:
            pair = local.pair = (np.empty(sizes[0]), np.empty(sizes[0]))
        g = sample_gain_sq(params, geom, rng, size=m,
                           out=(pair[0][:m], pair[1][:m]))
        ts = thresholds[key]
        if len(ts) > _MAX_PASSES:
            g.sort()
            return m - np.searchsorted(g, ts, "left")
        mask = pair[1].view(np.bool_)[:m]
        return [np.count_nonzero(np.greater_equal(g, t, out=mask)) for t in ts]

    if workers == 1 or len(jobs) == 1:
        parts = [job(spec) for spec in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, jobs))
    counts = {key: np.zeros(len(ts), dtype=np.int64)
              for key, ts in thresholds.items()}
    for (key, _k, _m), part in zip(jobs, parts):
        counts[key] += part
    return counts


def _binomial_estimate(count, n):
    """(estimate, 99% half-width) of a rate from ``count`` hits in n draws."""
    p = count / n
    # keep the variance estimate away from the degenerate 0/1 corners
    pg = min(max(p, 0.5 / n), 1.0 - 0.5 / n)
    return p, Z99 * math.sqrt(pg * (1.0 - pg) / n)


def _product_of(estimates):
    """Product of independent (estimate, half-width) pairs, with first-order
    error propagation."""
    value = 1.0
    for v, _ in estimates:
        value *= v
    var = 0.0
    for i, (_, hw) in enumerate(estimates):
        partial = 1.0
        for j, (v, _) in enumerate(estimates):
            if j != i:
                partial *= v
        var += (partial * hw) ** 2
    return value, math.sqrt(var)


def mc_cells(cells, cfg: McConfig):
    """Monte Carlo estimates of many cells from one draw of their streams.

    Each cell is ``(chains, base)``: the decode chains of vehicle 1 (on link
    1) and vehicle 2 (on link 2), and the ``FullScenario`` that supplies the
    links and the semantics.  Returns one ``McCaseResult`` per cell, in order.
    """
    streams = {}
    plans = []
    for (chain1, chain2), base in cells:
        for user, chain, params, geom in ((1, chain1, base.chan1, base.geom1),
                                          (2, chain2, base.chan2, base.geom2)):
            ts = _checked_chain(chain)
            if None in ts:
                plans.append(None)
            elif base.semantics == "joint":
                plans.append([_slot(streams, (params, geom, user, 0), max(ts))])
            else:
                plans.append([_slot(streams, (params, geom, user, j), t)
                              for j, t in enumerate(ts)])
    n = cfg.samples
    counts = _count_streams(streams, n, cfg.seed, cfg.workers)
    # _product_of returns a single part (a joint chain's) exactly as it is
    est = [(0.0, 0.0) if slots is None else
           _product_of([_binomial_estimate(int(counts[key][i]), n)
                        for key, i in slots])
           for slots in plans]
    return [McCaseResult(McEstimate(*e1), McEstimate(*e2),
                         McEstimate(*_product_of([e1, e2])))
            for e1, e2 in zip(est[0::2], est[1::2])]


def mc_case(case: CacheCase, alpha, sc, cfg: McConfig) -> McCaseResult:
    """Monte Carlo estimate of a full-file case under the scenario semantics."""
    chains = case_chains(case, alpha, sc, branch_of(alpha))
    return mc_cells([(chains, sc)], cfg)[0]


def mc_split(alpha, beta, sc, cfg: McConfig) -> McCaseResult:
    """Monte Carlo estimate of the split-file success probability."""
    chains = split_case_chains(alpha, beta, sc, branch_of(alpha))
    return mc_cells([(chains, sc.base)], cfg)[0]
