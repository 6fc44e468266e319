"""Power-split optimization and concavity checks.

1-D searches use golden-section refinement seeded by a coarse scan, which
keeps the search robust when an objective is piecewise (the decode order
changes at alpha = 0.5) or vanishes on part of the interval.  The split
problem runs coordinate ascent per branch from the best cell of a coarse
(alpha, beta) grid, and the better branch wins; the overlap alpha = 0.5 is
evaluated under both decode orders.
"""
import math
from dataclasses import dataclass

from .caching import CacheCase
from .noma_full import branch_of, case_chains, case_objective
from .noma_split import split_case_chains, split_objective_branch

__all__ = [
    "OptResult",
    "maximize_1d",
    "optimize_case",
    "optimize_split",
    "check_concavity",
    "case_branch_feasible",
    "split_line_feasible",
    "INTERIOR_TRIM",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Concavity checks run on the middle (1 - 2*INTERIOR_TRIM) of a feasible
# interval: right at a feasibility edge the objective lifts off from zero
# with unbounded curvature, which no finite grid treats stably.
INTERIOR_TRIM = 0.02


@dataclass(frozen=True)
class OptResult:
    """Best point found, its objective value, and search accounting."""

    argmax: object
    value: float
    evaluations: int
    branch: str


def maximize_1d(f, lo, hi, tol=1e-6):
    """Golden-section maximization on [lo, hi].

    Assumes a unimodal objective; shrinks until the bracket is narrower than
    ``tol``.  Endpoints are evaluated too, so boundary maxima are returned
    exactly.  Raises ValueError if the objective returns a non-finite value.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("maximize_1d requires finite bounds with lo < hi")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    evals = 0

    def call(x):
        nonlocal evals
        v = f(x)
        evals += 1
        if not math.isfinite(v):
            raise ValueError(f"objective returned a non-finite value at {x!r}")
        return v

    best_x, best_v = lo, call(lo)
    vh = call(hi)
    if vh > best_v:
        best_x, best_v = hi, vh

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = call(c)
    fd = call(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = call(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = call(d)
        inner_x, inner_v = (c, fc) if fc > fd else (d, fd)
        if inner_v > best_v:
            best_x, best_v = inner_x, inner_v
    return OptResult(argmax=best_x, value=best_v, evaluations=evals, branch="")


def _linspace(lo, hi, n):
    """``numpy.linspace(lo, hi, n)`` as a list of floats, bit for bit.

    Point i is ``lo + i * step`` and the last point is ``hi`` itself; where
    the step underflows to zero, point i is ``lo + (i / (n - 1)) * (hi - lo)``
    instead, as in numpy.
    """
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    div = n - 1
    if div < 1:
        return [lo + 0.0 * delta] * n
    step = delta / div
    if step == 0.0:
        xs = [(i / div) * delta + lo for i in range(n)]
    else:
        xs = [i * step + lo for i in range(n)]
    xs[-1] = hi
    return xs


def _argmax(vs):
    """Index of the first maximum, or of the first NaN, as ``numpy.argmax``."""
    best = 0
    for i, v in enumerate(vs):
        if v != v:
            return i
        if v > vs[best]:
            best = i
    return best


def _coarse_then_golden(f, lo, hi, tol, coarse):
    """Scan a coarse grid, then golden-refine around the best cell."""
    xs = _linspace(lo, hi, coarse)
    vs = [f(x) for x in xs]
    evals = len(xs)
    i = _argmax(vs)
    blo = xs[max(0, i - 1)]
    bhi = xs[min(len(xs) - 1, i + 1)]
    if bhi - blo < tol:
        return xs[i], float(vs[i]), evals
    res = maximize_1d(f, blo, bhi, tol)
    evals += res.evaluations
    if res.value >= vs[i]:
        return res.argmax, res.value, evals
    return xs[i], float(vs[i]), evals


def _case_pieces(case, sc):
    """Search intervals for one case, split at the decode-order seam."""
    if case is CacheCase.A:
        return [(0.0, 1.0)]
    lo_hi = sc.gamma1 / (1.0 + sc.gamma1)
    hi_cap = 1.0 / (1.0 + sc.gamma2)
    pieces = []
    # interval where handing most power to file 1 can work
    if lo_hi < 0.5:
        pieces.append((lo_hi, 0.5))
        pieces.append((0.5, 1.0))
    else:
        pieces.append((lo_hi, 1.0))
    # interval where file 2 holds the larger share
    if hi_cap > 0.5:
        pieces.append((0.0, 0.5))
        pieces.append((0.5, hi_cap))
    else:
        pieces.append((0.0, hi_cap))
    return pieces


def optimize_case(case: CacheCase, sc, tol=1e-6, coarse=33) -> OptResult:
    """Best power split for one of the cases A-D."""
    if case not in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
        raise ValueError(f"optimize_case handles cases A-D only, got {case!r}")
    f = case_objective(case, sc)
    best_x = None
    best_v = -math.inf
    evals = 0
    for lo, hi in _case_pieces(case, sc):
        x, v, used = _coarse_then_golden(f, lo, hi, tol, coarse)
        evals += used
        if v > best_v:
            best_x, best_v = x, v
    branch = "full" if case is CacheCase.A else branch_of(best_x)
    return OptResult(argmax=best_x, value=best_v, evaluations=evals, branch=branch)


_BRANCH_ALPHA = {"high": (0.5, 1.0), "low": (0.0, 0.5)}


def optimize_split(sc, tol=1e-6, coarse=21) -> OptResult:
    """Best (alpha, beta) for the split-file objective, over both branches."""
    best = None
    for branch, (alo, ahi) in _BRANCH_ALPHA.items():
        def f(alpha, beta, _branch=branch):
            return split_objective_branch(alpha, beta, sc, _branch)

        alphas = _linspace(alo, ahi, coarse)
        betas = _linspace(0.0, 1.0, coarse)
        evals = 0
        ca, cb, cv = alphas[0], betas[0], -math.inf
        for a in alphas:
            for b in betas:
                v = f(a, b)
                evals += 1
                if v > cv:
                    ca, cb, cv = a, b, v
        ba, bb, bv = ca, cb, cv
        for _ in range(60):
            xa, _, used = _coarse_then_golden(
                lambda a: f(a, cb), alo, ahi, tol, coarse)
            evals += used
            xb, vb, used = _coarse_then_golden(
                lambda b: f(xa, b), 0.0, 1.0, tol, coarse)
            evals += used
            moved = abs(xa - ca) + abs(xb - cb)
            ca, cb, cv = xa, xb, vb
            if cv > bv:
                ba, bb, bv = ca, cb, cv
            if cv - bv < tol and moved < tol:
                break
        res = OptResult(argmax=(ba, bb), value=bv, evaluations=evals, branch=branch)
        if best is None or res.value > best.value:
            best = res
    return best


def check_concavity(f, lo, hi, grid_n=101, tol=1e-6):
    """Centered second differences on a uniform grid.

    Returns (all_concave, worst_second_difference); the differences are not
    divided by the squared step, so ``tol`` bounds the raw discrete values.
    """
    if grid_n < 5:
        raise ValueError("grid_n must be at least 5")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("check_concavity requires finite bounds with lo < hi")
    return _concavity_verdict([f(x) for x in _linspace(lo, hi, grid_n)], tol)


def _concavity_verdict(vs, tol=1e-6):
    """``check_concavity``'s verdict on values already taken on its grid."""
    if not all(math.isfinite(v) for v in vs):
        raise ValueError("objective returned a non-finite value on the grid")
    worst = float(max(a - 2.0 * b + c for a, b, c in zip(vs, vs[1:], vs[2:])))
    return worst <= tol, worst


def _feasible_from_margins(margins_lo, margins_hi, x0, x1):
    """Intersect {x : margin_i(x) > 0} for margins linear in x."""
    lo, hi = x0, x1
    for m0, m1 in zip(margins_lo, margins_hi):
        if m0 <= 0.0 and m1 <= 0.0:
            return None
        if m0 > 0.0 and m1 > 0.0:
            continue
        root = x0 + m0 * (x1 - x0) / (m0 - m1)
        if m0 > 0.0:
            hi = min(hi, root)
        else:
            lo = max(lo, root)
    if not lo < hi:
        return None
    return lo, hi


def _chain_margins(chains):
    """margin = signal - threshold * interference for every condition."""
    out = []
    for chain in chains:
        for c in chain.conditions:
            out.append(c.signal_coef - c.threshold * c.interference_coef)
    return out


def _feasible_along(chains_at, x0, x1):
    """Feasible sub-interval of [x0, x1] for chains whose margins are linear."""
    return _feasible_from_margins(_chain_margins(chains_at(x0)),
                                  _chain_margins(chains_at(x1)), x0, x1)


def case_branch_feasible(case: CacheCase, sc):
    """Alpha intervals (per decode branch) where every condition is solvable.

    Returns {branch: (lo, hi) or None}; case A has the single branch "full".
    """
    if case is CacheCase.A:
        # both vehicles decode clean, so either branch gives the same chains
        return {"full": _feasible_along(
            lambda x: case_chains(case, x, sc, "low"), 0.0, 1.0)}
    return {branch: _feasible_along(
                lambda x, br=branch: case_chains(case, x, sc, br), x0, x1)
            for branch, (x0, x1) in _BRANCH_ALPHA.items()}


def split_line_feasible(sc, branch, axis, fixed):
    """Feasible sub-interval along one axis-parallel line of the split box.

    ``axis`` is "alpha" (fixed = beta) or "beta" (fixed = alpha); the moving
    coordinate spans the branch's alpha range or [0, 1] respectively.
    """
    if axis == "alpha":
        return _feasible_along(
            lambda x: split_case_chains(x, fixed, sc, branch),
            *_BRANCH_ALPHA[branch])
    if axis == "beta":
        return _feasible_along(
            lambda x: split_case_chains(fixed, x, sc, branch), 0.0, 1.0)
    raise ValueError(f"axis must be 'alpha' or 'beta', got {axis!r}")
