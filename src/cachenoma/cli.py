"""Command-line front end.

Subcommands:

* ``optimize``   best power split per caching case, or for split-file mode
* ``sweep``      parameter sweep with optimized NOMA, OMA, and cacheless
                 NOMA averages per step
* ``surface``    split-file objective sampled on a grid, both branches
* ``validate``   Monte Carlo cross-check of the analytic probabilities
* ``concavity``  objective profiles per branch with concavity verdicts

All output is CSV with a header row, "." decimal separator, "," delimiter,
and LF line endings.  Exit codes: 0 success, 1 usage or config error,
2 validation failure, 3 numerical error.
"""
import argparse
import csv
import functools
import math
import sys

from . import channel
from .caching import CacheCase, Catalog
from .config import ConfigError, _snr_power, load_config
from .errors import QuadratureAccuracyError
from .noma_full import (
    BRANCH_ALPHA,
    SEMANTICS,
    _pair_success,
    average_success,
    branch_of,
    case_chains,
    case_objective,
    oma_average_success,
)
from .noma_split import split_case_chains, split_objective_branch
from .optimizer import (
    _concavity_verdict,
    _interior,
    _linspace,
    case_branch_feasible,
    optimize_case,
    optimize_split,
)
from .mc import MAX_SAMPLES, MAX_WORKERS, McConfig, mc_cells

__all__ = [
    "main",
    "run_optimize",
    "run_sweep",
    "run_surface",
    "run_validate",
    "run_concavity",
    "sweep_values",
    "SWEEP_VARIABLES",
    "VALIDATE_ALPHAS",
    "VALIDATE_SPLIT_GRID",
]

_CASES = {
    "a": CacheCase.A,
    "b": CacheCase.B,
    "c": CacheCase.C,
    "d": CacheCase.D,
}

SWEEP_VARIABLES = ("zeta", "snr_db", "cache_size", "omega", "m", "num_files")
_INT_VARIABLES = ("cache_size", "num_files")

VALIDATE_ALPHAS = tuple(round(0.05 + 0.1 * i, 2) for i in range(10))
VALIDATE_SPLIT_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

_PASS_ABS = 0.005
_PASS_CI_FACTOR = 3.0

# Largest sizes.  An objective point costs 40-120 us and a held row about
# 100 bytes on a 2-vCPU machine, so each grid bound keeps a run near 500 000
# rows (a minute, 50 MB): ``surface`` evaluates 2 N^2 points, ``concavity``
# at most 7 N.  A sweep step costs 0.3-3 ms at the default shapes.  A
# ``validate`` sample costs about 170 ns over its six streams at the default
# shapes and 520 ns at the non-integer surface-nonint shapes (one worker), so
# ``mc.MAX_SAMPLES`` keeps a default run near a minute.
MAX_SURFACE_GRID = 500
MAX_CONCAVITY_GRID = 70_000
MAX_STEPS = 10_000


def _fmt(x):
    """Locale-independent cell formatting."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(stream, header, rows):
    writer = csv.writer(stream, delimiter=",", lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c) for c in row])


def _selected(selector, extra=()):
    """What a --case selector names: a case letter, "all" of them, or an extra."""
    if selector == "all":
        return list(_CASES)
    if selector in _CASES or selector in extra:
        return [selector]
    raise ValueError(f"unknown case selector {selector!r}")


def run_optimize(cfg, selector):
    """Rows of (case, branch, alpha, beta, value, evaluations)."""
    rows = []
    for name in _selected(selector, ("split",)):
        if name == "split":
            res = optimize_split(cfg.split)
            alpha, beta = res.argmax
            rows.append(("split", res.branch, alpha, beta,
                         res.value, res.evaluations))
        else:
            res = optimize_case(_CASES[name], cfg.scenario)
            rows.append((_CASES[name].value, res.branch, res.argmax, "",
                         res.value, res.evaluations))
    return rows


def sweep_values(variable, start, stop, steps, values):
    """Resolve the swept values from either an explicit list or a range."""
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}")
    if values is not None:
        if start is not None or stop is not None or steps is not None:
            raise ValueError("--values excludes --start/--stop/--steps")
        out = []
        for entry in values.split(","):
            if entry.strip() == "":
                continue
            try:
                out.append(float(entry))
            except ValueError:
                raise ValueError(f"--values entry {entry.strip()!r} is not a "
                                 f"number") from None
        if not out:
            raise ValueError("--values is empty")
        if len(out) > MAX_STEPS:
            raise ValueError(f"--values must hold at most {MAX_STEPS} values")
    else:
        if start is None or stop is None or steps is None:
            raise ValueError("sweep needs --values or --start/--stop/--steps")
        if steps < 1:
            raise ValueError("--steps must be at least 1")
        if steps > MAX_STEPS:
            raise ValueError(f"--steps must be at most {MAX_STEPS}")
        if steps == 1:
            out = [float(start)]
        else:
            out = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    if variable in _INT_VARIABLES:
        ints = []
        for v in out:
            if not (math.isfinite(v) and abs(v - round(v)) <= 1e-9):
                raise ValueError(f"{variable} values must be integers, got {v!r}")
            ints.append(int(round(v)))
        return ints
    return out


def _apply_sweep(cfg, variable, value):
    """New ScenarioConfig with one variable replaced."""
    sc = cfg.scenario
    if variable == "zeta":
        return cfg.replace(catalog=cfg.catalog.replace(zeta=float(value)))
    if variable == "snr_db":
        power = _snr_power(sc.sigma1_sq, float(value))
        return cfg.replace_scenario(sc.replace(power=power))
    if variable == "cache_size":
        return cfg.replace(catalog=cfg.catalog.replace(cache_size=int(value)))
    if variable == "num_files":
        return cfg.replace(catalog=cfg.catalog.replace(num_files=int(value)))
    if variable in ("omega", "m"):
        # both hops of both links; the channel's message names one field
        hops = dict.fromkeys((variable + "1", variable + "2"), float(value))
        try:
            new_sc = sc.replace(chan1=sc.chan1.replace(**hops),
                                chan2=sc.chan2.replace(**hops))
        except ValueError as exc:
            raise ValueError(f"{variable}: {exc}") from None
        return cfg.replace_scenario(new_sc)
    raise ValueError(f"unknown sweep variable {variable!r}")


def run_sweep(cfg, variable, values):
    """Rows of (value, avg_success_noma, avg_success_oma, avg_success_conventional).

    The conventional column reruns the average with emptied caches, so it
    coincides with the NOMA column exactly when cache_size is already 0.

    ``optimize_case`` is a pure function of its (case, scenario) arguments,
    so each distinct optimum is computed once per call and shared by both
    averages and by every step whose scenario is unchanged: a zeta,
    cache_size or num_files sweep optimizes once in total.
    """
    optimum = functools.cache(optimize_case)
    rows = []
    for value in values:
        step = _apply_sweep(cfg, variable, value)
        scen, cat, avg = step.scenario, step.catalog, step.averaging
        noma = average_success(scen, cat, optimum, averaging=avg)
        oma = oma_average_success(scen, cat, averaging=avg)
        empty = Catalog(num_files=cat.num_files, zeta=cat.zeta, cache_size=0)
        conv = average_success(scen, empty, optimum, averaging=avg)
        rows.append((value, noma, oma, conv))
    return rows


def run_surface(cfg, grid):
    """Rows of (alpha, beta, objective, branch), low branch first."""
    if grid < 2:
        raise ValueError("--grid must be at least 2")
    if grid > MAX_SURFACE_GRID:
        raise ValueError(f"--grid must be at most {MAX_SURFACE_GRID}")
    rows = []
    betas = _linspace(0.0, 1.0, grid)
    for branch, (alo, ahi) in reversed(BRANCH_ALPHA.items()):
        for alpha in _linspace(alo, ahi, grid):
            for beta in betas:
                v = split_objective_branch(alpha, beta, cfg.split, branch)
                rows.append((alpha, beta, v, branch))
    return rows


def _with_semantics(cfg, semantics):
    if cfg.scenario.semantics == semantics:
        return cfg
    return cfg.replace_scenario(cfg.scenario.replace(semantics=semantics))


def run_validate(cfg, samples, seed, workers):
    """Analytic-vs-MC rows; returns (rows, all_passed).

    All 130 cells are estimated in one ``mc_cells`` batch with base seed
    ``seed``, so they share common random numbers (see ``mc``).  A cell's
    analytic value p1 * p2 comes from the same chain pair as its estimate.
    """
    labels, cells = [], []
    for case in _CASES.values():
        for semantics in SEMANTICS:
            scen = _with_semantics(cfg, semantics).scenario
            for alpha in VALIDATE_ALPHAS:
                labels.append(("case", case.value, semantics, alpha, ""))
                cells.append((case_chains(case, alpha, scen, branch_of(alpha)),
                              scen))
    for semantics in SEMANTICS:
        split = _with_semantics(cfg, semantics).split
        for alpha in VALIDATE_SPLIT_GRID:
            branch = branch_of(alpha)
            for beta in VALIDATE_SPLIT_GRID:
                labels.append(("split", "split", semantics, alpha, beta))
                cells.append((split_case_chains(alpha, beta, split, branch),
                              split.base))
    results = mc_cells(cells, McConfig(samples=samples, seed=seed,
                                       workers=workers))
    rows = []
    for label, cell, res in zip(labels, cells, results):
        p1, p2 = _pair_success(*cell)
        value = p1 * p2
        est = res.joint
        tol = max(_PASS_ABS, _PASS_CI_FACTOR * est.half_width)
        diff = abs(value - est.value)
        rows.append((*label, value, est.value, est.half_width, diff,
                     "pass" if diff <= tol else "fail"))
    return rows, all(row[-1] == "pass" for row in rows)


def run_concavity(cfg, selector, grid):
    """Objective profiles and per-branch concavity verdicts.

    Returns (rows, verdicts) where rows are (case, branch, alpha, objective)
    and verdicts are (case, branch, concave: bool, worst: float).
    """
    if grid < 11:
        raise ValueError("--grid must be at least 11")
    if grid > MAX_CONCAVITY_GRID:
        raise ValueError(f"--grid must be at most {MAX_CONCAVITY_GRID}")
    rows = []
    verdicts = []
    for name in _selected(selector):
        case = _CASES[name]
        objective = case_objective(case, cfg.scenario)
        for branch, interval in case_branch_feasible(case, cfg.scenario).items():
            if interval is None:
                continue
            alphas = _linspace(*_interior(*interval), grid)
            values = [objective(alpha) for alpha in alphas]
            concave, worst = _concavity_verdict(values)
            verdicts.append((case.value, branch, concave, worst))
            rows.extend((case.value, branch, alpha, value)
                        for alpha, value in zip(alphas, values))
    return rows, verdicts


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with exit code 2; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# subcommand: (help, its options as (flag, keywords of add_argument))
_COMMANDS = {
    "optimize": ("optimal power split per caching case", (
        ("--case", dict(default="all", choices=[*_CASES, "all", "split"],
                        help="which objective to optimize (default all)")),)),
    "sweep": ("average success vs one swept parameter", (
        ("--variable", dict(required=True, choices=list(SWEEP_VARIABLES))),
        ("--start", dict(type=float)),
        ("--stop", dict(type=float)),
        ("--steps", dict(type=int, help="values from --start to --stop "
                                        f"(max {MAX_STEPS})")),
        ("--values", dict(help="comma-separated explicit sweep values (max "
                               f"{MAX_STEPS}); write a list that starts "
                               "with a minus sign as "
                               "--values=-10,0, since argparse reads "
                               "--values -10,0 as an option")))),
    "surface": ("split objective on an (alpha, beta) grid", (
        ("--grid", dict(type=int, default=51,
                        help="points per axis per branch (default 51, "
                             f"max {MAX_SURFACE_GRID})")),)),
    "validate": ("Monte Carlo cross-check of analytic values", (
        ("--samples", dict(type=int, default=1_000_000,
                           help="samples per estimate (default 1000000, min "
                                f"10000, max {MAX_SAMPLES})")),
        ("--seed", dict(type=int, default=0,
                        help="base random seed (default 0)")),
        ("--workers", dict(type=int, default=1,
                           help="worker threads for sampling (default 1, "
                                f"max {MAX_WORKERS})")))),
    "concavity": ("objective profiles with concavity verdicts", (
        ("--case", dict(default="all", choices=[*_CASES, "all"])),
        ("--grid", dict(type=int, default=101,
                        help="grid points per branch (default 101, min 11, "
                             f"max {MAX_CONCAVITY_GRID})")))),
}


def _build_parser(argv):
    """The parser of ``argv``: only the subcommand its first word names, or
    all of them where it names none, so usage and errors list them all."""
    parser = _Parser(prog="cachenoma",
                     description="Cache-aided NOMA decoding analysis over "
                                 "cascaded Nakagami-m links.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="scenario file (JSON); defaults are built in")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default stdout)")
    wanted, metavar = _COMMANDS, None
    if argv and argv[0] in _COMMANDS:
        # the usage line still names every subcommand
        wanted, metavar = argv[:1], "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in wanted:
        text, options = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _dispatch(args, out):
    # flags are checked before the scenario file is read
    if args.command == "validate":
        if args.samples < 10_000:
            raise ValueError("--samples must be at least 10000")
        if args.samples > MAX_SAMPLES:
            raise ValueError(f"--samples must be at most {MAX_SAMPLES}")
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        if args.workers > MAX_WORKERS:
            raise ValueError(f"--workers must be at most {MAX_WORKERS}")
        if not 0 <= args.seed < 2 ** 64:
            raise ValueError("--seed must lie in [0, 2**64)")
    cfg = load_config(args.config)
    if args.command == "optimize":
        _write_csv(out, ("case", "branch", "alpha", "beta", "value",
                         "evaluations"), run_optimize(cfg, args.case))
        return 0
    if args.command == "sweep":
        values = sweep_values(args.variable, args.start, args.stop,
                              args.steps, args.values)
        _write_csv(out, (args.variable, "avg_success_noma", "avg_success_oma",
                         "avg_success_conventional"),
                   run_sweep(cfg, args.variable, values))
        return 0
    if args.command == "surface":
        _write_csv(out, ("alpha", "beta", "objective", "branch"),
                   run_surface(cfg, args.grid))
        return 0
    if args.command == "validate":
        rows, ok = run_validate(cfg, args.samples, args.seed, args.workers)
        _write_csv(out, ("kind", "case", "semantics", "alpha", "beta",
                         "analytic", "estimate", "half_width", "abs_diff",
                         "status"), rows)
        return 0 if ok else 2
    if args.command == "concavity":
        rows, verdicts = run_concavity(cfg, args.case, args.grid)
        _write_csv(out, ("case", "branch", "alpha", "objective"), rows)
        code = 0
        for case, branch, concave, worst in verdicts:
            print(f"case={case} branch={branch} concave={_fmt(concave)} "
                  f"worst_second_difference={_fmt(worst)}", file=sys.stderr)
            if not concave:
                code = 2
        return code
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    channel._cdf_sf.cache_clear()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                return _dispatch(args, fh)
        return _dispatch(args, sys.stdout)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"cachenoma: error: {exc}", file=sys.stderr)
        return 1
    except QuadratureAccuracyError as exc:
        print(f"cachenoma: numerical error: {exc}; best estimate "
              f"{_fmt(exc.best_estimate)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
