"""Regenerate the reference CSVs the benchmark checks its output against.

Run from the repository root on a commit whose output is trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference/``: the zeta sweep over the whole zeta pool,
one non-integer surface per SNR in the pool, and one validate run (seed 0)
whose analytic column and pass status every seed must reproduce.
"""
import json
import os
import sys
import tempfile

import workloads as wl
from cachenoma import cli


def _run(argv, config, out):
    if config is not None:
        fd, path = tempfile.mkstemp(suffix=".json", dir=wl.REFERENCE_DIR)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [*argv, "--config", path]
    try:
        code = cli.main([*argv, "--out", out])
    finally:
        if config is not None:
            os.remove(path)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")


def main():
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    ref = lambda name: os.path.join(wl.REFERENCE_DIR, name)
    values = ",".join(repr(z) for z in wl.ZETA_POOL)
    _run(["sweep", "--variable", "zeta", "--values", values], wl.SWEEP_CONFIG,
         ref("sweep_zeta.csv"))
    for snr in wl.SNR_POOL:
        _run(["surface", "--grid", str(wl.SURFACE_GRID)],
             {"snr_db": snr, **wl.SURFACE_CHANNELS},
             ref(wl.surface_reference_name(snr)))
    _run(["validate", "--samples", str(wl.VALIDATE_SAMPLES),
          "--workers", str(wl.VALIDATE_WORKERS), "--seed", "0"], None,
         ref("validate_mc.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
