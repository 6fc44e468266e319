"""Spans around the layers of cachenoma, installed from outside the package.

Each layer is wrapped where its callers look it up (``noma_full`` imports
``survival_gain_sq`` by name, so the span goes on ``noma_full``'s binding,
not on ``channel``'s).  A layer none of whose lookup sites exists is
reported as absent instead of failing the run, so the trace keeps working
when a refactor removes or bypasses a layer.

Spans are kept in memory, one record per call with its thread id and the
span that called it on the same thread, and written once at the end.
"""
import importlib
import statistics
import threading
import time

# (span name, lookup sites as (module under cachenoma, attribute))
LAYERS = (
    ("config.load", (("cli", "load_config"),)),
    ("cli.run", (("cli", "run_sweep"), ("cli", "run_surface"),
                 ("cli", "run_validate"))),
    ("optimizer.optimize_case", (("cli", "optimize_case"),)),
    ("caching.case_distribution", (("noma_full", "case_distribution"),)),
    ("noma_full.chain_probability", (("noma_full", "chain_probability"),
                                     ("noma_split", "chain_probability"))),
    ("noma_split.objective", (("cli", "split_objective_branch"),)),
    ("channel.survival", (("noma_full", "survival_gain_sq"),)),
    ("kernel.sf_w", (("backend", "sf_w"),)),
    ("quad", (("_kernels_py", "adaptive_gk15"), ("specfun", "adaptive_gk15"))),
    ("mc.cell", (("cli", "mc_case"), ("cli", "mc_split"))),
    ("mc.sample", (("mc", "sample_gain_sq"),)),
)

# Gauss-Kronrod 7-15: one panel is 15 integrand calls, each one Bessel K.
_GK_NODES = 15
_NEAR_MISS = 0.9


def _attrs(name, args, kwargs, result):
    """What a span keeps beyond its timing; hashable keys feed distinct counts."""
    if name == "optimizer.optimize_case":
        return {"key": _key(args, kwargs),
                "evaluations": getattr(result, "evaluations", 0)}
    if name == "channel.survival":
        return {"key": _key(args, kwargs)}
    if name == "quad":
        budget = args[5] if len(args) > 5 else kwargs.get("max_subdivisions")
        return {"subdivisions": result[2], "budget": budget}
    if name == "mc.sample":
        return {"draws": int(getattr(result, "size", 0))}
    if name == "cli.run":
        rows = result[0] if isinstance(result, tuple) else result
        return {"rows": len(rows)}
    return None


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.spans = []  # [name, thread id, start, end, parent index, attrs]
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, threading.get_ident(), 0.0, 0.0,
                      stack[-1] if stack else None, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            record[5] = _attrs(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every lookup site that exists; note layers with none."""
        for name, sites in LAYERS:
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"cachenoma.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self.wrap(name, fn))
                found = True
            if not found:
                self.absent.append(name)

    def dump(self):
        """Spans as JSON-ready dicts, without the hashable keys."""
        out = []
        for i, (name, tid, start, end, parent, attrs) in enumerate(self.spans):
            extra = {k: v for k, v in (attrs or {}).items() if k != "key"}
            out.append({"id": i, "name": name, "thread": tid, "start": start,
                        "end": end, "parent": parent, **extra})
        return out

    def layer_metrics(self, workers=1):
        """Per-layer counts, self times and ratios, named <module>.<what>.

        ``workers`` is the sampling pool size the run asked for; parallel
        efficiency is busy sampling time over cell wall time times workers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        quad_children = [0] * len(spans)
        for name, _tid, start, end, parent, _attrs in spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "quad":
                    quad_children[parent] += 1
        by_name = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(spans[i][3] - spans[i][2] - child_time[i]
                       for i in by_name.get(name, ()))

        def attr_values(name, key):
            return [spans[i][5][key] for i in by_name.get(name, ())
                    if spans[i][5] is not None]

        def distinct_ratio(name):
            keys = attr_values(name, "key")
            return len(set(keys)) / len(keys) if keys else 0.0

        m = {}
        m["caching.case_distribution.calls"] = calls("caching.case_distribution")
        m["caching.case_distribution.self_s"] = self_s("caching.case_distribution")

        m["optimizer.optimize_case.calls"] = calls("optimizer.optimize_case")
        m["optimizer.optimize_case.distinct_keys"] = len(
            set(attr_values("optimizer.optimize_case", "key")))
        m["optimizer.optimize_case.evaluations"] = sum(
            attr_values("optimizer.optimize_case", "evaluations"))
        m["optimizer.optimize_case.self_s"] = self_s("optimizer.optimize_case")

        m["noma_full.chain_probability.calls"] = calls("noma_full.chain_probability")
        m["noma_full.chain_probability.self_s"] = self_s("noma_full.chain_probability")

        objective_ms = sorted((spans[i][3] - spans[i][2]) * 1e3
                              for i in by_name.get("noma_split.objective", ()))
        m["noma_split.objective.calls"] = len(objective_ms)
        m["noma_split.objective.self_s"] = self_s("noma_split.objective")
        m["noma_split.objective.p50_ms"] = (
            statistics.median(objective_ms) if objective_ms else 0.0)
        m["noma_split.objective.p99_ms"] = (
            objective_ms[min(len(objective_ms) - 1, int(0.99 * len(objective_ms)))]
            if objective_ms else 0.0)

        m["channel.survival.calls"] = calls("channel.survival")
        m["channel.survival.distinct_ratio"] = distinct_ratio("channel.survival")
        m["channel.survival.self_s"] = self_s("channel.survival")

        sf = by_name.get("kernel.sf_w", ())
        m["kernel.sf_w.calls"] = len(sf)
        m["kernel.sf_w.self_s"] = self_s("kernel.sf_w")
        m["kernel.sf_w.tail_calls"] = sum(1 for i in sf if quad_children[i] >= 2)

        subdivisions = attr_values("quad", "subdivisions")
        budgets = attr_values("quad", "budget")
        m["kernel.bessel_k.calls"] = sum(_GK_NODES * (1 + 2 * s)
                                         for s in subdivisions)
        m["quad.calls"] = calls("quad")
        m["quad.subdivisions_total"] = sum(subdivisions)
        m["quad.subdivisions_max"] = max(subdivisions, default=0)
        m["quad.budget_near_miss"] = sum(
            1 for s, b in zip(subdivisions, budgets)
            if b is not None and s >= _NEAR_MISS * b)
        m["quad.self_s"] = self_s("quad")

        cells = by_name.get("mc.cell", ())
        cell_wall = sum(spans[i][3] - spans[i][2] for i in cells)
        sample_s = sum(spans[i][3] - spans[i][2] for i in by_name.get("mc.sample", ()))
        draws = sum(attr_values("mc.sample", "draws"))
        m["mc.cells"] = len(cells)
        m["mc.draws"] = draws
        m["mc.blocks"] = calls("mc.sample")
        m["mc.sample_s"] = sample_s
        m["mc.draws_per_s"] = draws / cell_wall if cell_wall > 0 else 0.0
        m["mc.parallel_eff"] = (sample_s / (cell_wall * workers)
                                if cell_wall > 0 else 0.0)

        m["cli.rows"] = sum(attr_values("cli.run", "rows"))
        m["config.load_s"] = sum(spans[i][3] - spans[i][2]
                                 for i in by_name.get("config.load", ()))
        return m
