"""Runs one workload's ops in a fresh process and reports what happened.

    python3 benchmarks/child.py --ops OPS.json --out DIR --result RESULT.json
                                [--trace]

Set-up (``import kpert.cli`` plus ``build_parser()``) is timed first.
Then the timed ops run one at a time, in order, in this process; the
loop's wall time is taken around the whole loop, less the time of the
speed probes run inside it (see SpeedProbe).  Robustness probes run
after the loop and are not timed.  With --trace the tracer's wrappers are
installed around the timed loop only and removed before anything else.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = "@OUT@"              # the placeholder workloads.OUT


def _setup():
    import kpert.cli as cli
    cli.build_parser()
    return time.perf_counter() - _T0


# The host's speed changes by up to a factor of two, for seconds or
# minutes at a time.  A speed probe is a fixed piece of work that uses no
# kpert code, in the mix kpert's ops spend their time in: Gauss-Legendre
# rules (small eigenproblems and interpreted polynomial recurrences on
# short arrays) and interpreted element access.  The timed loop runs one
# probe before the first op, one after the last and one between ops at
# most every PROBE_EVERY_S, and records which probe precedes each op;
# run.py scales each op by the probes around it.
PROBE_EVERY_S = 0.5


def _probe_once(np, leggauss, arr):
    t = time.perf_counter()
    for n in range(8, 40, 2):
        leggauss(n)
        k = np.arange(1.0, n)
        off = k / np.sqrt(4.0 * k * k - 1.0)
        x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    acc = 0.0
    for i in range(3000):
        acc += arr[i % 2000] * 0.5
    return time.perf_counter() - t


class SpeedProbe:
    """Times probes; each probe is the faster of two repetitions."""

    def __init__(self):
        import numpy as np
        from numpy.polynomial.legendre import leggauss
        self._args = (np, leggauss, np.arange(2000.0))
        self.seconds = []       # one per probe
        self.spent = 0.0        # wall time spent probing
        self.last = -1.0e9

    def __call__(self):
        t = time.perf_counter()
        self.seconds.append(min(_probe_once(*self._args) for _ in range(2)))
        self.last = time.perf_counter()
        self.spent += self.last - t
        return len(self.seconds) - 1

    def due(self):
        return time.perf_counter() - self.last >= PROBE_EVERY_S


class SeriesCapture:
    """Keeps the SeriesResult list of the ``series_batch`` call a
    ``kpert series`` op makes: the CSV drops the error bar
    (quad_error_estimate, tail_estimate) the oracle check needs."""

    def __init__(self, pt):
        self.pt = pt
        self.orig = pt.__dict__["series_batch"]
        self.active = False
        self.results = []

    def __enter__(self):
        inner = self.pt.series_batch

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self.active:
                self.results.extend(out)
            return out
        self.pt.series_batch = capture
        return self

    def __exit__(self, *exc):
        self.pt.series_batch = self.orig


def _run_cli(cli, op, out_root):
    argv = [a.replace(OUT, out_root) for a in op["argv"]]
    err = io.StringIO()
    rec = {"rc": None, "stderr": "", "error": ""}
    try:
        with contextlib.redirect_stderr(err):
            rec["rc"] = cli.main(argv)
    except SystemExit as exc:       # argparse rejects argv this way
        rec["rc"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # noqa: BLE001 - an op failure to report
        rec["error"] = traceback.format_exc()
    rec["stderr"] = err.getvalue()
    return rec


def _run_multi_atom(op):
    from kpert import perturbation as pt
    from kpert import spacetime as st
    kernel = st.resolve_kernel(op["kernel"], 1)
    res = pt.MultiAtomOperator(kernel, op["times"], op["t"], op["y"]) \
        .series_at(op["eta"], op["s"], op["x"])
    return {"ratio": res.ratio, "status": res.status,
            "factor": pt.multi_atom_series_factor(op["eta"], len(op["times"]))}


def _run_matrix_checks(op):
    import itertools

    import numpy as np

    from kpert import matrix_kernels as mk
    K, sets, f = mk.load_discrete_problem(op["problem"])
    chain = mk.AbsorbingChain(tuple(sets[n] for n in op["chain"]))
    ms = range(1, op["powers"] + 1)
    power_ok = all(mk.verify_power_identity(K, A, m)
                   for A in chain.sets for m in ms)
    slice_ok = all(mk.verify_slice_identity(K, chain.sets[a], chain.sets[b], m)
                   for a, b in itertools.combinations_with_replacement(
                       range(chain.k), 2) for m in ms)
    exact = mk.exact_series_sum(K, f)
    neumann = mk.neumann_series(K, f)
    decay_ok = all(mk.check_geometric_decay(
        K, f, A, max(float(np.max(exact[A.mask] / f[A.mask])), 1.0)
        * (1.0 + 1e-12), n_max=20) for A in chain.sets)
    return {"power_ok": power_ok, "slice_ok": slice_ok, "decay_ok": decay_ok,
            "neumann": neumann.value.tolist(), "neumann_status": neumann.status,
            "exact": exact.tolist()}


def _run_op(cli, op, out_root, capture):
    """One op: a CLI call, a library call, or (matrix) a CLI certify
    followed by the library checks on the same problem."""
    if op["kind"] == "multi_atom":
        rec = {"rc": 0, "stderr": "", "error": ""}
    else:
        capture.active = op["argv"][0] == "series"
        capture.results = []
        rec = _run_cli(cli, op, out_root)
        capture.active = False
        if capture.results:
            rec["series"] = [
                {k: float(getattr(r, k)) for k in
                 ("value", "quad_error_estimate", "tail_estimate")}
                for r in capture.results]
        if op["kind"] == "cli" or rec["rc"] is None:
            return rec
    try:
        run = _run_multi_atom if op["kind"] == "multi_atom" else _run_matrix_checks
        rec["result"] = run(op)
    except Exception:               # noqa: BLE001 - an op failure to report
        rec["rc"] = None
        rec["error"] = traceback.format_exc()
    return rec


def _slice_points(cli, op):
    """Source times at which a time-uniform certificate sampled each slice,
    as the library's TimeSliceProblem draws them (for the oracle's sup)."""
    from kpert import bounds as bnd
    from kpert import perturbation as pt
    argv = op["argv"]
    cfg = cli.load_config(argv[argv.index("--config") + 1],
                          int(argv[argv.index("--seed") + 1]))
    sl = cfg.slicing
    intervals = bnd.time_uniform_slices(float(sl.get("r", 0.0)), cfg.target_t,
                                        float(sl["h"]))
    prob = pt.TimeSliceProblem(cfg.kernel, cfg.measure, 0.0, cfg.target_t,
                               cfg.target_y, intervals, seed=cfg.seed)
    n = int(sl.get("n_samples", 16))
    return [prob.slice_points(j, None, n)[:, 0].tolist()
            for j in range(1, prob.k + 1)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    setup_s = _setup()

    import numpy
    import scipy

    import kpert
    import kpert.cli as cli
    from kpert import perturbation as pt

    ops = json.loads(Path(args.ops).read_text())
    timed = [op for op in ops if op["timed"]]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records = []
    probe = SpeedProbe()
    with SeriesCapture(pt) as capture:
        loop_start = time.perf_counter()
        before = probe()
        for i, op in enumerate(timed):
            if tracer is not None:
                tracer.op = i
            if probe.due():
                before = probe()
            t = time.perf_counter()
            rec = _run_op(cli, op, args.out, capture)
            rec["seconds"] = time.perf_counter() - t
            rec["id"] = op["id"]
            rec["speed_probe"] = before
            records.append(rec)
        probe()
        loop_wall = time.perf_counter() - loop_start - probe.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary()
        tracer.dump(str(Path(args.result).with_name("spans")))

    probes = []
    with SeriesCapture(pt) as capture:
        for op in ops:
            if not op["timed"]:
                rec = _run_op(cli, op, args.out, capture)
                rec["id"] = op["id"]
                probes.append(rec)
    for op, rec in zip(timed, records):
        if op.get("slicing") == "time-uniform" and rec["rc"] is not None:
            rec["slice_s"] = _slice_points(cli, op)

    result = {"setup_s": setup_s, "loop_wall_s": loop_wall,
              "speed_probe_s": probe.seconds,
              "peak_rss_mb": peak_rss_mb, "ops": records, "probes": probes,
              "trace": trace, "kpert_file": kpert.__file__,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "kpert": kpert.__version__}}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
