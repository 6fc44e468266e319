"""Content popularity, cache placement, and request-pair classification.

Files 1..T are requested independently by both vehicles under a Zipf law.
Both vehicles cache the same kappa most popular files.  A request pair maps
to exactly one tag:

* COMMON_REQUEST  both vehicles ask for the same file (checked first)
* SELF_HIT_*      a vehicle's own request sits in its own cache
* A / B / C / D   distinct, un-self-cached requests, split by whether each
                  vehicle holds the file the *other* one wants (A: both do,
                  B: only vehicle 1, C: only vehicle 2, D: neither); with
                  one shared cache, a file missing from it is in neither
                  cache, so only D occurs

With q the popularities, head = sum_{t<=kappa} q_t and tail = sum_{t>kappa}
q_t, the tag masses are

    CommonRequest = sum_t q_t^2         SelfHit1 = SelfHit2 = head * tail
    SelfHitBoth = head^2 - sum_{t<=kappa} q_t^2
    D = tail^2 - sum_{t>kappa} q_t^2    A = B = C = 0.
"""
import enum
import math

from ._record import Record

__all__ = [
    "Catalog",
    "CacheCase",
    "zipf_popularity",
    "case_distribution",
]

# Largest catalog: the popularity list and the case masses are O(T) in time
# and memory, about 0.4 s and 100 MB at this size.
MAX_FILES = 1_000_000


class Catalog(Record):
    """File catalog size, Zipf exponent, and per-vehicle cache size."""

    __slots__ = ("num_files", "zeta", "cache_size")

    def __init__(self, num_files: int, zeta: float, cache_size: int):
        if not (isinstance(num_files, int) and 1 <= num_files <= MAX_FILES):
            raise ValueError(f"num_files must be an integer in [1, {MAX_FILES}], "
                             f"got {num_files!r}")
        if not (math.isfinite(zeta) and zeta >= 0.0):
            raise ValueError(f"zeta must be finite and >= 0, got {zeta!r}")
        if not (isinstance(cache_size, int) and 0 <= cache_size <= num_files):
            raise ValueError(
                f"cache_size must be an integer in [0, num_files], got {cache_size!r}"
            )
        super().__init__(num_files, zeta, cache_size)


class CacheCase(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    SELF_HIT_1 = "SelfHit1"
    SELF_HIT_2 = "SelfHit2"
    SELF_HIT_BOTH = "SelfHitBoth"
    COMMON_REQUEST = "CommonRequest"


def zipf_popularity(catalog: Catalog) -> tuple:
    """Request probabilities q_t = t^(-zeta) / sum_i i^(-zeta), t = 1..T,
    as a tuple of floats."""
    weights = [float(t) ** -catalog.zeta for t in range(1, catalog.num_files + 1)]
    total = math.fsum(weights)
    return tuple([w / total for w in weights])


def case_distribution(catalog: Catalog) -> dict:
    """Exact tag probabilities under i.i.d. Zipf requests, in O(T).

    The closed forms of the module docstring; A-C are exactly 0.0, since
    both vehicles hold the same files.  The tail is summed from q, not taken
    as 1 - head, so that no mass rounds below zero; every sum is a
    correctly rounded ``math.fsum``.
    """
    q = zipf_popularity(catalog)
    sq = [x * x for x in q]
    k = catalog.cache_size
    head, tail = math.fsum(q[:k]), math.fsum(q[k:])
    return {CacheCase.A: 0.0, CacheCase.B: 0.0, CacheCase.C: 0.0,
            CacheCase.D: tail * tail - math.fsum(sq[k:]),
            CacheCase.SELF_HIT_1: head * tail,
            CacheCase.SELF_HIT_2: head * tail,
            CacheCase.SELF_HIT_BOTH: head * head - math.fsum(sq[:k]),
            CacheCase.COMMON_REQUEST: math.fsum(sq)}
