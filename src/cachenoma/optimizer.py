"""Power-split optimization and concavity checks.

Every decode condition's SINR margin is linear in alpha, so the alphas at
which a case can succeed form at most one interval per decode branch
(``case_branch_feasible``), read from the decode rules that give the
objectives their gain thresholds.  ``optimize_case`` searches only those
intervals, where the decode order is fixed and the objective is positive:
a coarse scan, then Brent's method (golden-section and parabolic steps)
between the best point's neighbours.  The split problem runs coordinate
ascent per branch from the best cell of a coarse (alpha, beta) grid, with
the same line search, and the better branch wins; the overlap alpha = 0.5
is evaluated under both decode orders.  ``tests/test_certificate.py``
bounds each case's maximum by branch and bound and checks that
``optimize_case`` comes within 1e-5 of it.
"""
import math

from ._record import Record
from .caching import CacheCase
from .noma_full import BRANCH_ALPHA, _case_rule, branch_of, case_objective
from .noma_split import _split_rule, split_objective_branch

__all__ = [
    "OptResult",
    "optimize_case",
    "optimize_split",
    "check_concavity",
    "case_branch_feasible",
    "split_line_feasible",
    "INTERIOR_TRIM",
]

# _TOL: Brent's final bracket width, and the split ascent's stopping step.
# _CASE_COARSE, _SPLIT_COARSE: coarse scan points per feasible case interval
# and per split axis.  _CONCAVE_TOL: largest second difference deemed concave.
# _CGOLD: the golden-section step, as a share of the larger bracket side.
_TOL = 1e-6
_CASE_COARSE = 9
_SPLIT_COARSE = 21
_CONCAVE_TOL = 1e-6
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

# Concavity checks run on the middle (1 - 2*INTERIOR_TRIM) of a feasible
# interval: right at a feasibility edge the objective lifts off from zero
# with unbounded curvature, which no finite grid treats stably.
INTERIOR_TRIM = 0.02


def _interior(lo, hi):
    """The middle of [lo, hi] that concavity checks scan."""
    margin = INTERIOR_TRIM * (hi - lo)
    return lo + margin, hi - margin


class OptResult(Record):
    """Best point found, its objective value, and search accounting."""

    __slots__ = ("argmax", "value", "evaluations", "branch")


def _brent(f, lo, hi):
    """Brent's bounded maximization on [lo, hi], lo < hi (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).

    Golden-section steps, with a step to the vertex of the parabola through
    the three best points wherever that vertex lies inside the bracket and
    the step is under half the one before last; at least ``_TOL / 4`` per
    step.  Stops once the bracket around the best point is at most ``_TOL``
    wide.  Endpoints are evaluated too, so boundary maxima are returned
    exactly.  Returns (argmax, value, evaluations); raises ValueError if the
    objective returns a non-finite value.
    """
    evals = 0

    def call(x):
        nonlocal evals
        v = f(x)
        evals += 1
        if not math.isfinite(v):
            raise ValueError(f"objective returned a non-finite value at {x!r}")
        return v

    ends = [(lo, call(lo)), (hi, call(hi))]
    tol = _TOL / 4.0
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = call(x)
    d = e = 0.0
    while abs(x - 0.5 * (a + b)) > 2.0 * tol - 0.5 * (b - a):
        mid = 0.5 * (a + b)
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (b - x) if x < mid else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = call(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    best_x, best_v = max(ends + [(x, fx)], key=lambda xv: xv[1])
    return best_x, best_v, evals


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


def _scan_then_brent(f, lo, hi, coarse):
    """Scan a coarse grid, then refine by Brent's method between the best
    point's neighbours.  Returns (argmax, value, evaluations)."""
    xs = _linspace(lo, hi, coarse)
    vs = [f(x) for x in xs]
    i = _argmax(vs)
    blo = xs[max(0, i - 1)]
    bhi = xs[min(len(xs) - 1, i + 1)]
    if bhi - blo < _TOL:
        return xs[i], float(vs[i]), coarse
    x, v, used = _brent(f, blo, bhi)
    if v >= vs[i]:
        return x, v, coarse + used
    return xs[i], float(vs[i]), coarse + used


def optimize_case(case: CacheCase, sc) -> OptResult:
    """Best power split for one of the cases A-D.

    Each decode-feasible interval of ``case_branch_feasible`` is searched
    once, high branch before low.  Every case has one: just above alpha = 0
    (on the low branch for B-D) all of its SINR margins are positive.
    """
    if case not in (CacheCase.A, CacheCase.B, CacheCase.C, CacheCase.D):
        raise ValueError(f"optimize_case handles cases A-D only, got {case!r}")
    f = case_objective(case, sc)
    runs = [_scan_then_brent(f, lo, hi, _CASE_COARSE)
            for lo, hi in filter(None, case_branch_feasible(case, sc).values())]
    best_x, best_v, _ = max(runs, key=lambda run: run[1])
    evals = sum(run[2] for run in runs)
    branch = "full" if case is CacheCase.A else branch_of(best_x)
    return OptResult(argmax=best_x, value=best_v, evaluations=evals, branch=branch)


def optimize_split(sc) -> OptResult:
    """Best (alpha, beta) for the split-file objective, over both branches."""
    best = None
    for branch, (alo, ahi) in BRANCH_ALPHA.items():
        def f(alpha, beta, _branch=branch):
            return split_objective_branch(alpha, beta, sc, _branch)

        alphas = _linspace(alo, ahi, _SPLIT_COARSE)
        betas = _linspace(0.0, 1.0, _SPLIT_COARSE)
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
            xa, _, used = _scan_then_brent(
                lambda a: f(a, cb), alo, ahi, _SPLIT_COARSE)
            evals += used
            xb, vb, used = _scan_then_brent(
                lambda b: f(xa, b), 0.0, 1.0, _SPLIT_COARSE)
            evals += used
            moved = abs(xa - ca) + abs(xb - cb)
            ca, cb, cv = xa, xb, vb
            if cv > bv:
                ba, bb, bv = ca, cb, cv
            if cv - bv < _TOL and moved < _TOL:
                break
        res = OptResult(argmax=(ba, bb), value=bv, evaluations=evals, branch=branch)
        if best is None or res.value > best.value:
            best = res
    return best


def check_concavity(f, lo, hi, grid_n=101):
    """Centered second differences on a uniform grid.

    Returns (all_concave, worst_second_difference); the differences are not
    divided by the squared step, so ``_CONCAVE_TOL`` bounds the raw values.
    """
    if grid_n < 5:
        raise ValueError("grid_n must be at least 5")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("check_concavity requires finite bounds with lo < hi")
    return _concavity_verdict([f(x) for x in _linspace(lo, hi, grid_n)])


def _concavity_verdict(vs):
    """``check_concavity``'s verdict on values already taken on its grid."""
    if not all(math.isfinite(v) for v in vs):
        raise ValueError("objective returned a non-finite value on the grid")
    worst = float(max(a - 2.0 * b + c for a, b, c in zip(vs, vs[1:], vs[2:])))
    return worst <= _CONCAVE_TOL, worst


def _feasible_from_margins(margins_lo, margins_hi, x0, x1):
    """Intersect {x : margin_i(x) > 0} for finite margins linear in x."""
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


def _margins(rule, *args):
    """Both vehicles' SINR margins, signal - threshold * interference, from
    ``rule(make, *args)``: a condition is solvable iff its margin is > 0.
    The callers read the rules at unit power: no sign depends on the power,
    and there every margin lies in [-threshold, 1], where at a large power
    threshold * interference can overflow."""
    v1, v2 = rule(lambda signal, interference, _noise, threshold:
                  signal - threshold * interference, *args)
    return v1 + v2


def case_branch_feasible(case: CacheCase, sc):
    """Alpha intervals (per decode branch) where every condition is solvable.

    Returns {branch: (lo, hi) or None}; case A has the single branch "full".
    """
    sc = sc.replace(power=1.0)
    if case is CacheCase.A:
        # both vehicles decode clean, so either branch gives the same margins
        return {"full": _feasible_from_margins(
            _margins(_case_rule, case, 0.0, sc, "low"),
            _margins(_case_rule, case, 1.0, sc, "low"), 0.0, 1.0)}
    return {branch: _feasible_from_margins(
                _margins(_case_rule, case, x0, sc, branch),
                _margins(_case_rule, case, x1, sc, branch), x0, x1)
            for branch, (x0, x1) in BRANCH_ALPHA.items()}


def split_line_feasible(sc, branch, axis, fixed):
    """Feasible sub-interval along one axis-parallel line of the split box.

    ``axis`` is "alpha" (fixed = beta) or "beta" (fixed = alpha); the moving
    coordinate spans the branch's alpha range or [0, 1] respectively.
    """
    sc = sc.replace(base=sc.base.replace(power=1.0))
    if axis == "alpha":
        x0, x1 = BRANCH_ALPHA[branch]
        return _feasible_from_margins(_margins(_split_rule, x0, fixed, sc, branch),
                                      _margins(_split_rule, x1, fixed, sc, branch),
                                      x0, x1)
    if axis == "beta":
        return _feasible_from_margins(_margins(_split_rule, fixed, 0.0, sc, branch),
                                      _margins(_split_rule, fixed, 1.0, sc, branch),
                                      0.0, 1.0)
    raise ValueError(f"axis must be 'alpha' or 'beta', got {axis!r}")
