"""Benchmark of the cachenoma command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is used straight from ``src``
(``PYTHONPATH=src``, nothing built), the path the test suite runs.  Each
repetition of the workload's command is a fresh interpreter, so no cache
carries over; repetitions run one at a time (closed loop) until ``--seconds``
is used up, and every output is checked against the stored reference.

``--trace 0`` reports the end-to-end metrics: the median wall time of
``cli.main`` (``wall_s``), the median set-up time of ``import cachenoma`` plus
``load_config`` (``setup_s``) and the median peak resident memory
(``peak_rss_mb``).  ``--trace 1`` alternates untraced repetitions with traced
ones, whose layers are wrapped in spans, and reports the per-layer metrics
plus the tracing overhead.  Metric names and units come from
``BENCHMARK.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run details, the spans of traced runs and any
output that failed its check are kept under ``.perfbench_out/``.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = ".perfbench_out"

MIN_REPS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def _child(args, root):
    """Run child.py in a fresh interpreter on the tier-1 path; its JSON or None."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, CHILD, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"child {args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}\n")
        return None
    return json.loads(lines[-1])


def _source_digest(root):
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "cachenoma")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path) and name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None  # an exported tree; git would report an enclosing repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """Repetitions of one workload, checked against its reference."""

    def __init__(self, workload, root, outdir):
        self.workload = workload
        self.root = root
        self.outdir = outdir
        self.config = wl.write_config(workload, outdir) or "-"
        self.attempted = 0
        self.failed = 0
        self.reps = []

    def repeat(self, traced):
        index = len(self.reps)
        out = os.path.join(self.outdir, f"out-{index}.csv")
        argv = [*self.workload.argv, "--out", out]
        if self.config != "-":
            argv += ["--config", self.config]
        if traced:
            spans = os.path.join(self.outdir, f"spans-{index}.json")
            result = _child(["trace", self.config, spans, *argv], self.root)
        else:
            result = _child(["run", self.config, *argv], self.root)
        ops = self.workload.operations
        self.attempted += ops
        if result is None or result["code"] != 0 or not os.path.exists(out):
            failed = ops
        else:
            with open(out, encoding="utf-8") as fh:
                failed = wl.failed_rows(self.workload, fh.read())
        self.failed += failed
        if failed == 0 and os.path.exists(out):
            os.remove(out)
        if result is not None:
            result["traced"] = traced
            result["failed_rows"] = failed
            self.reps.append(result)
        else:
            self.reps.append({"traced": traced, "failed_rows": failed})

    def measured(self, key, traced=False):
        return [r[key] for r in self.reps if r["traced"] == traced and key in r]


def _loop(run, seconds, trace):
    """Closed loop: one repetition at a time until the time is used up."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.repeat(traced=trace and len(run.reps) % 2 == 1)
        last = time.perf_counter() - t0
        if len(run.reps) >= MIN_REPS and time.perf_counter() - start + last > seconds:
            return


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(run, setup):
    return {
        "wall_s": _median(run.measured("wall_s")),
        "setup_s": _median(setup + run.measured("setup_s")),
        "peak_rss_mb": _median(run.measured("peak_rss_mb")),
    }


def _per_layer(run, probe):
    traced = [r for r in run.reps if r["traced"] and "layers" in r]
    keys = sorted({k for r in traced for k in r["layers"]})
    metrics = {k: _median([r["layers"][k] for r in traced if k in r["layers"]])
               for k in keys}
    metrics["cli.cpu_s"] = _median(run.measured("cpu_s"))
    for name, value in probe.items():
        metrics[f"probe.{name}_s"] = value if value is not None else 0.0
    untraced_wall = _median(run.measured("wall_s"))
    traced_wall = _median(run.measured("wall_s", traced=True))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    absent = sorted({a for r in traced for a in r.get("absent", ())}
                    | {f"probe.{n}" for n, v in probe.items() if v is None})
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cachenoma", "cli.py")):
        print("perfbench: run from the repository root; src/cachenoma is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    checks = wl.self_test()

    workload = wl.build(args.workload, args.seed)
    outdir = os.path.join(root, OUT_ROOT,
                          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    run = Run(workload, root, outdir)

    warm = _child(["setup", run.config], root)  # also compiles the bytecode
    setup = [r["setup_s"] for r in (_child(["setup", run.config], root)
                                    for _ in range(SETUP_SAMPLES)) if r]
    probe = (_child(["probe"], root) or {}) if args.trace else {}
    _loop(run, args.seconds, args.trace)

    if args.trace:
        metrics, absent = _per_layer(run, probe)
    else:
        metrics, absent = _end_to_end(run, setup), []
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": list(workload.argv),
        "config": workload.config,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "backend": (warm or {}).get("meta", {}).get("backend"),
        "numpy": (warm or {}).get("meta", {}).get("numpy"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "reps": len(run.reps),
        "checker_self_tests": checks,
    }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "absent": absent,
                   "reps": run.reps, "setup_samples": setup}, fh, indent=1)

    print("meta " + json.dumps(meta))
    for name in absent:
        print(f"absent {name}")
    for m in declared:
        print(f"{m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_ratio':<40} {ratio:>14.6g} ({run.failed}/{run.attempted} rows)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
