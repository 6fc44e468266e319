"""One measurement in a fresh interpreter; prints one JSON line on stdout.

Modes:

* ``setup CONFIG``        time ``import cachenoma`` plus ``load_config``
* ``run CONFIG ARGV...``  the same set-up, then ``cli.main(ARGV)`` timed
* ``trace CONFIG SPANS ARGV...``  as ``run`` with every layer wrapped in
  spans; writes the spans to SPANS and reports per-layer metrics
* ``probe``               the three fixed kernel probes

CONFIG is a scenario file or ``-`` for the built-in defaults.  Nothing is
shared between invocations, so a memo a later version adds is paid for in
every run, as a user rerunning the command pays for it.
"""
import json
import resource
import statistics
import sys
import time


def _setup(config):
    start = time.perf_counter()
    import cachenoma
    cachenoma.load_config(None if config == "-" else config)
    setup_s = time.perf_counter() - start
    import numpy
    backend = getattr(cachenoma, "active_backend", None)
    return setup_s, {
        "backend": backend() if callable(backend) else "absent",
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(config, argv, tracer=None):
    setup_s, meta = _setup(config)
    from cachenoma import cli
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    start = time.perf_counter()
    code = cli.main(argv)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    return {"code": code, "wall_s": wall_s, "cpu_s": cpu_s,
            "setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(), "meta": meta}


def _workers(argv):
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def _trace(config, spans_path, argv):
    from tracer import Tracer

    tracer = Tracer()
    out = _run(config, argv, tracer)
    layers = tracer.layer_metrics(workers=_workers(argv))
    run_s = sum(s[3] - s[2] for s in tracer.spans if s[0] == "cli.run")
    layers["cli.csv_s"] = out["wall_s"] - run_s
    out["layers"] = layers
    out["absent"] = tracer.absent
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv, "spans": tracer.dump()}, fh)
    return out


def _probe(repeat=3):
    """The fixed kernel probes, each the median of ``repeat`` timings.

    Public names are used so the probes survive a change of backend layout;
    a probe whose entry point is gone reports None.
    """
    import cachenoma
    from cachenoma import channel

    def bessel():
        for i in range(2000):
            cachenoma.bessel_k(1.0 + (i % 7) * 0.5, 0.01 + i * 0.01)

    def survival():
        # r = m1 m2 / (omega1 omega2) = 0.25, as in the kernel-level probe
        params = channel.DoubleNakagamiParams(1.0, 1.0, 2.0, 2.0)
        for i in range(500):
            channel.survival_gain_sq(0.01 + i * 0.01, params)

    def optimize():
        sc = cachenoma.load_config(None).scenario
        for case in (cachenoma.CacheCase.A, cachenoma.CacheCase.D):
            cachenoma.optimize_case(case, sc)

    out = {}
    for name, fn in (("bessel_2000", bessel), ("survival_500", survival),
                     ("optimize_a_d", optimize)):
        times = []
        try:
            for _ in range(repeat):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
        except AttributeError:
            out[name] = None
            continue
        out[name] = statistics.median(times)
    return out


def main(args):
    mode = args[0]
    if mode == "setup":
        setup_s, meta = _setup(args[1])
        out = {"setup_s": setup_s, "meta": meta}
    elif mode == "run":
        out = _run(args[1], args[2:])
    elif mode == "trace":
        out = _trace(args[1], args[2], args[3:])
    elif mode == "probe":
        out = _probe()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
