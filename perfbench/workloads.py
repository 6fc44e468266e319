"""Workload inputs made from a seed, and the reference check of their output.

Each workload is one CLI command.  The seed picks the inputs from a fixed
pool whose members cost the same to compute, so runs with different seeds
measure the same amount of work; the reference CSVs under ``reference/``
hold the output for every member of the pool, generated once by
``make_reference.py``.

An operation is one output row.  A row fails when a numeric cell differs
from the reference by more than ``ABS_TOL`` or a text cell differs at all;
a missing or extra row fails too, and so does every row of a run whose exit
code is not 0.
"""
import csv
import io
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

ABS_TOL = 1e-6

# sweep-zeta: a few hundred files at the paper's Rayleigh-cascade point
# (m = 1 on every hop).  Zeta changes only the request-pair masses, so every
# pool member costs the same.
SWEEP_CONFIG = {"catalog": {"files": 300, "zeta": 0.5, "cache_size": 10}}
ZETA_POOL = tuple(round(0.05 * i, 2) for i in range(31))
SWEEP_STEPS = 2

# surface-nonint: non-integer shapes on every hop, at an SNR low enough
# that some survival calls take the deep-tail integral.
SURFACE_CHANNELS = {
    "chan1": {"m1": 1.5, "m2": 2.5, "omega1": 2.0, "omega2": 2.0},
    "chan2": {"m1": 0.75, "m2": 1.25, "omega1": 2.0, "omega2": 2.0},
}
SNR_POOL = (2.6, 2.8, 3.0, 3.2, 3.4)
SURFACE_GRID = 15

# validate-mc: three sampling blocks (mc.BLOCK = 131072) per stream, at the
# CLI's default single worker.  With two worker threads wall time follows how
# often the machine's second CPU is free: its quartile spread over ten seeds
# was 16 % on a 2-vCPU VM, against under 6 % with one worker.
VALIDATE_SAMPLES = 3 * 131072
VALIDATE_WORKERS = 1
# Seed-dependent Monte Carlo columns; only the analytic side is pinned.
VALIDATE_UNCHECKED = ("estimate", "half_width", "abs_diff")

NAMES = ("sweep-zeta", "surface-nonint", "validate-mc")


@dataclass(frozen=True)
class Workload:
    """One CLI command and the rows it must print."""

    name: str
    config: dict  # scenario written to a file and passed as --config; None: defaults
    argv: tuple  # CLI arguments without --config and --out
    expected: tuple  # header followed by the reference rows, in order
    unchecked: tuple = ()  # columns left out of the comparison

    @property
    def operations(self):
        return len(self.expected) - 1


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [tuple(r) for r in csv.reader(fh)]


def surface_reference_name(snr):
    return f"surface_nonint_snr{snr}.csv"


def build(name, seed):
    """The workload ``name`` with its inputs drawn from ``seed``."""
    rng = random.Random(seed)
    if name == "sweep-zeta":
        zetas = rng.sample(ZETA_POOL, SWEEP_STEPS)
        header, *rows = read_csv(os.path.join(REFERENCE_DIR, "sweep_zeta.csv"))
        by_zeta = {float(r[0]): r for r in rows}
        values = ",".join(repr(z) for z in zetas)
        return Workload(name, SWEEP_CONFIG,
                        ("sweep", "--variable", "zeta", "--values", values),
                        (header, *(by_zeta[z] for z in zetas)))
    if name == "surface-nonint":
        snr = rng.choice(SNR_POOL)
        expected = read_csv(os.path.join(REFERENCE_DIR, surface_reference_name(snr)))
        return Workload(name, {"snr_db": snr, **SURFACE_CHANNELS},
                        ("surface", "--grid", str(SURFACE_GRID)), tuple(expected))
    if name == "validate-mc":
        expected = read_csv(os.path.join(REFERENCE_DIR, "validate_mc.csv"))
        argv = ("validate", "--samples", str(VALIDATE_SAMPLES),
                "--workers", str(VALIDATE_WORKERS), "--seed", str(seed))
        return Workload(name, None, argv, tuple(expected), VALIDATE_UNCHECKED)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write_config(workload, directory):
    """Scenario file for the workload, or None when it runs on the defaults."""
    if workload.config is None:
        return None
    path = os.path.join(directory, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh, indent=1)
    return path


def _cell_ok(got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return abs(g - w) <= ABS_TOL


def failed_rows(workload, csv_text):
    """Number of output rows that do not match the reference."""
    got = [tuple(r) for r in csv.reader(io.StringIO(csv_text))]
    header, *want_rows = workload.expected
    if not got or got[0] != header:
        return workload.operations
    skip = {header.index(c) for c in workload.unchecked}
    rows = got[1:]
    failed = abs(len(rows) - len(want_rows))
    for row, want in zip(rows, want_rows):
        if len(row) != len(want) or not all(
                _cell_ok(g, w) for i, (g, w) in enumerate(zip(row, want))
                if i not in skip):
            failed += 1
    return failed


def self_test():
    """Show that the check passes the reference and catches a perturbed cell.

    Raises RuntimeError when the comparison would let a wrong output pass.
    """
    def as_csv(rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    def perturbed(rows, r, c, value):
        out = [list(row) for row in rows]
        out[r][c] = value(out[r][c])
        return out

    sweep = build("sweep-zeta", 0)
    validate = build("validate-mc", 0)
    rows = sweep.expected
    cases = (
        ("reference sweep", sweep, rows, 0),
        ("cell moved by 1e-5", sweep,
         perturbed(rows, 1, 1, lambda v: repr(float(v) + 1e-5)), 1),
        ("cell moved by 1e-8", sweep,
         perturbed(rows, 1, 1, lambda v: repr(float(v) + 1e-8)), 0),
        ("row missing", sweep, rows[:-1], 1),
        ("label changed", validate,
         perturbed(validate.expected, 1, 2, lambda v: v + "x"), 1),
        ("status fail", validate,
         perturbed(validate.expected, 1, 9, lambda v: "fail"), 1),
        ("estimate unchecked", validate,
         perturbed(validate.expected, 1, 6, lambda v: "0.5"), 0),
    )
    for what, workload, out_rows, want in cases:
        got = failed_rows(workload, as_csv(out_rows))
        if got != want:
            raise RuntimeError(f"self-test {what!r}: {got} failed rows, expected {want}")
    return len(cases)
