"""Batch front end.

Subcommands
    series        p and the perturbed series on a sample grid -> CSV
    certify       slice certificates (discrete or space-time) -> JSON + CSV
    oracle-check  closed-form oracle comparisons -> CSV
    kato          window modulus k(h) ladder -> CSV
    3g            cone-kernel comparison sampler -> CSV
    weyl          half-derivative spot checks -> CSV
    reproduce     the full acceptance table

Exit codes: 0 success, 2 config error, 3 any INVALID certificate,
4 any INCONCLUSIVE / HYPOTHESIS_FAIL, or a slice constant eta >= 1
(``certify`` then writes only the error and eta).  All outputs are
deterministic under a fixed --seed: CSV uses repr floats, JSON uses
sorted keys.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kpert import acceptance
from kpert import bounds as bnd
from kpert import matrix_kernels as mk
from kpert import perturbation as pt
from kpert import spacetime as st
from kpert.measures import PerturbingMeasure, measure_from_config

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    kernel_name: str = "gaussian"
    dim: int = 1
    measure: PerturbingMeasure = field(default_factory=PerturbingMeasure)
    target_t: float = 1.0
    target_y: float = 0.0
    sample_s: np.ndarray = field(default_factory=lambda: np.zeros(1))
    sample_x: np.ndarray = field(default_factory=lambda: np.zeros(1))
    slicing: dict = field(default_factory=dict)
    discrete: dict = field(default_factory=dict)
    quad_tol: float = 1e-4
    max_terms: int = 14
    seed: int = 0
    base_dir: Path = field(default_factory=Path)

    @property
    def kernel(self):
        return st.resolve_kernel(self.kernel_name, self.dim)


def load_config(path, seed=None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    try:
        cfg = RunConfig()
        kdoc = doc.get("kernel", {})
        cfg.kernel_name = kdoc.get("name", "gaussian")
        cfg.dim = int(kdoc.get("d", 1))
        if "measure" in doc:
            cfg.measure = measure_from_config(doc["measure"])
        tdoc = doc.get("target", {})
        cfg.target_t = float(tdoc.get("t", 1.0))
        cfg.target_y = float(tdoc.get("y", 0.0))
        sdoc = doc.get("samples", {})
        if "s" in sdoc and "x" in sdoc and not isinstance(sdoc["s"], dict):
            cfg.sample_s = np.asarray(sdoc["s"], dtype=float)
            cfg.sample_x = np.asarray(sdoc["x"], dtype=float)
        elif "grid" in sdoc:
            gs = sdoc["grid"]
            s = np.linspace(*gs["s"][:2], int(gs["s"][2]))
            x = np.linspace(*gs["x"][:2], int(gs["x"][2]))
            S, X = np.meshgrid(s, x, indexing="ij")
            cfg.sample_s, cfg.sample_x = S.ravel(), X.ravel()
        if len(cfg.sample_s) != len(cfg.sample_x):
            raise ConfigError("sample arrays s and x differ in length")
        if not (math.isfinite(cfg.target_t) and math.isfinite(cfg.target_y)):
            raise ConfigError("target t and y must be finite")
        if not (np.all(np.isfinite(cfg.sample_s))
                and np.all(np.isfinite(cfg.sample_x))):
            raise ConfigError("samples s and x must be finite")
        cfg.slicing = doc.get("slicing", {})
        cfg.discrete = doc.get("discrete", {})
        qdoc = doc.get("quad", {})
        cfg.quad_tol = float(qdoc.get("rel_tol", 1e-4))
        cfg.max_terms = int(qdoc.get("max_terms", 14))
        cfg.seed = int(doc.get("seed", 0)) if seed is None else seed
        cfg.base_dir = Path(path).resolve().parent
        cfg.kernel  # resolves now; unknown names fail at parse time
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _command_kernel(cfg, command: str, peak_dims=(1,)):
    """The configured kernel, if ``command`` can evaluate it.

    The series engine (``series``, ``certify`` on time slices) has
    one-dimensional rules; ``kato`` also has a polar rule for d = 2.  The
    cone kernel is one-dimensional.
    """
    dims = {"peak": peak_dims, "cone": (1,)}[cfg.kernel.kind]
    if cfg.dim not in dims:
        raise ConfigError(
            f"{command} cannot take kernel {cfg.kernel_name!r} in "
            f"d = {cfg.dim}; it takes gaussian and cauchy in d = "
            f"{' or '.join(map(str, peak_dims))} and kappa in d = 1")
    return cfg.kernel


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def series_csv(s_pts, x_pts, results) -> str:
    lines = ["s,x,p,p_mu,ratio,truncation_index,status"]
    for s, x, r in zip(s_pts, x_pts, results):
        lines.append(",".join([_fmt(float(s)), _fmt(float(x)),
                               _fmt(r.control), _fmt(r.value), _fmt(r.ratio),
                               str(r.truncation_index), r.status]))
    return "\n".join(lines) + "\n"


def certificates_json(certs) -> str:
    return json.dumps([c.to_dict() for c in certs], indent=2, sort_keys=True) + "\n"


def certificates_csv(certs) -> str:
    lines = ["slice,eta,beta,bound,measured_ratio,margin,status,samples"]
    for c in certs:
        lines.append(",".join([str(c.slice_index), _fmt(c.eta), _fmt(c.beta),
                               _fmt(c.theorem_bound), _fmt(c.measured_ratio),
                               _fmt(c.margin), c.status, str(c.sample_count)]))
    return "\n".join(lines) + "\n"


def _write(out_dir, name, text):
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text, encoding="utf-8", newline="\n")


def _certificate_exit(certs) -> int:
    statuses = {c.status for c in certs}
    if statuses & {"INCONCLUSIVE", "HYPOTHESIS_FAIL"}:
        return 4
    if "INVALID" in statuses:
        return 3
    return 0


def cmd_series(args) -> int:
    cfg = load_config(args.config, args.seed)
    res = pt.series_batch(_command_kernel(cfg, "series"), cfg.measure,
                          cfg.sample_s, cfg.sample_x, cfg.target_t,
                          cfg.target_y, quad_tol=cfg.quad_tol,
                          max_terms=cfg.max_terms)
    _write(args.out, "series.csv", series_csv(cfg.sample_s, cfg.sample_x, res))
    return 0


def _intervals_from_config(cfg) -> list:
    mode = cfg.slicing.get("mode", "time-uniform")
    if mode == "time-uniform":
        r = float(cfg.slicing.get("r", 0.0))
        h = float(cfg.slicing["h"])
        return bnd.time_uniform_slices(r, cfg.target_t, h)
    if mode == "intervals":
        return [bnd.Interval(float(a), float(b))
                for a, b in cfg.slicing["intervals"]]
    raise ConfigError(f"slicing mode {mode!r} needs the diagonal or discrete path")


def _smallness_fails(out_dir, eta) -> int:
    """Exit 4 for a slice constant eta >= 1, where no certificate exists:
    the error and eta go to certificates.json and eta to stderr."""
    _write(out_dir, "certificates.json", json.dumps(
        {"error": "local smallness fails", "eta": eta},
        indent=2, sort_keys=True) + "\n")
    print(f"local smallness fails: eta = {eta!r} >= 1", file=sys.stderr)
    return 4


def cmd_certify(args) -> int:
    cfg = load_config(args.config, args.seed)
    rng = np.random.default_rng(cfg.seed)
    if args.discrete or cfg.discrete:
        doc = cfg.discrete
        path = doc["path"] if "path" in doc else args.discrete
        if not Path(path).is_absolute():
            path = str(cfg.base_dir / path)
        K, sets, f = mk.load_discrete_problem(path)
        names = doc.get("chain", sorted(sets))
        chain = mk.AbsorbingChain(tuple(sets[n] for n in names))
        prob = bnd.MatrixSliceProblem(K, f, chain)
        const = bnd.estimate_constants(prob)
        if const.eta >= 1.0:
            return _smallness_fails(args.out, const.eta)
        certs = bnd.certify(prob, const)
    elif cfg.slicing.get("mode") == "diagonal-level":
        dd = cfg.slicing
        prob = pt.KappaSliceProblem(float(dd["c"]), float(dd["p"]),
                                    cfg.target_t, cfg.target_y,
                                    h=dd.get("h"),
                                    eta_target=float(dd.get("eta_target", 0.5)),
                                    quad_tol=cfg.quad_tol, seed=cfg.seed,
                                    max_terms=cfg.max_terms)
        const = bnd.estimate_constants(prob, rng, n_samples=12, refine_rounds=1)
        if const.eta >= 1.0:
            return _smallness_fails(args.out, const.eta)
        certs = bnd.certify(prob, const, rng, n_samples=6,
                            beta_override=prob.analytic_eta,
                            eta_override=prob.analytic_eta)
    else:
        kernel = _command_kernel(cfg, "certify")
        intervals = _intervals_from_config(cfg)
        certs = pt.theorem46_certify(kernel, cfg.measure, 0.0,
                                     cfg.target_t, cfg.target_y, intervals,
                                     eta=cfg.slicing.get("eta"),
                                     n_samples=int(cfg.slicing.get("n_samples", 16)),
                                     seed=cfg.seed, quad_tol=cfg.quad_tol,
                                     max_terms=cfg.max_terms)
    _write(args.out, "certificates.json", certificates_json(certs))
    _write(args.out, "certificates.csv", certificates_csv(certs))
    return _certificate_exit(certs)


def cmd_oracle_check(args) -> int:
    cfg = load_config(args.config, args.seed) if args.config else RunConfig()
    g = st.gaussian_kernel(1)
    rows = ["case,measured,expected,rel_error"]
    from kpert.measures import Atom, ConstDensity
    for lam in (0.25, 1.0):
        mu = PerturbingMeasure(ConstDensity(lam))
        r = pt.series(g, mu, 0.0, 0.3, 1.0, 0.0, quad_tol=cfg.quad_tol)
        exp = math.exp(lam)
        rows.append(f"atomless-lam={lam},{_fmt(r.ratio)},{_fmt(exp)},"
                    f"{_fmt(abs(r.ratio - exp) / exp)}")
    mu = PerturbingMeasure(atoms=(Atom(0.5, 0.7),))
    r = pt.series(g, mu, 0.0, 0.2, 1.0, 0.0)
    rows.append(f"single-atom,{_fmt(r.ratio)},{_fmt(1.7)},"
                f"{_fmt(abs(r.ratio - 1.7) / 1.7)}")
    op = pt.MultiAtomOperator(g, list(acceptance.SHARPNESS_TIMES), 1.0, 0.0)
    r = op.series_at(0.5, 0.05, 0.3)
    rows.append(f"multi-atom-L3,{_fmt(r.ratio)},{_fmt(8.0)},"
                f"{_fmt(abs(r.ratio - 8.0) / 8.0)}")
    _write(args.out, "oracles.csv", "\n".join(rows) + "\n")
    return 0


def cmd_kato(args) -> int:
    cfg = load_config(args.config, args.seed) if args.config else RunConfig(
        kernel_name="cauchy")
    from kpert.measures import ConstDensity
    mu = cfg.measure if not cfg.measure.is_zero else \
        PerturbingMeasure(ConstDensity(1.0, cfg.dim))
    hs = [float(h) for h in (args.windows or "1,0.5,0.25,0.125").split(",")]
    kernel = _command_kernel(cfg, "kato", peak_dims=(1, 2))
    prof = st.kato_profile(kernel, mu, hs, n_samples=16, seed=cfg.seed)
    rows = ["h,k_h"] + [f"{_fmt(h)},{_fmt(prof[h])}" for h in sorted(prof, reverse=True)]
    _write(args.out, "kato.csv", "\n".join(rows) + "\n")
    return 0


def cmd_3g(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    n = args.samples
    times = np.sort(rng.uniform(0.0, 2.0, size=(n, 3)), axis=1)
    space = np.sort(rng.uniform(-1.0, 2.0, size=(n, 3)), axis=1)
    ok = (np.diff(times, axis=1) > 0).all(axis=1) & \
         (np.diff(space, axis=1) > 0).all(axis=1)
    times, space = times[ok], space[ok]
    chk = st.check_3g(times[:, 0], space[:, 0], times[:, 1], space[:, 1],
                      times[:, 2], space[:, 2])
    rows = ["stat,value",
            f"samples,{len(times)}",
            f"ratio_min,{_fmt(float(np.min(chk.ratio)))}",
            f"ratio_max,{_fmt(float(np.max(chk.ratio)))}",
            f"upper_limit,{_fmt(st.TWO_SQRT2)}",
            f"all_in_range,{bool(np.all(chk.lower_ok) and np.all(chk.upper_ok))}"]
    _write(args.out, "3g.csv", "\n".join(rows) + "\n")
    return 0


def cmd_weyl(args) -> int:
    rows = ["x,measured,expected,abs_error"]
    for x in np.linspace(0.0, 5.0, 11):
        m = st.weyl_half_derivative(lambda v: np.exp(-v), float(x),
                                    dphi=lambda v: -np.exp(-v))
        rows.append(f"{_fmt(float(x))},{_fmt(m)},{_fmt(-math.exp(-x))},"
                    f"{_fmt(abs(m + math.exp(-x)))}")
    _write(args.out, "weyl.csv", "\n".join(rows) + "\n")
    return 0


def cmd_reproduce(args) -> int:
    if args.only and not any(args.only in name
                             for name, _ in acceptance.ALL_CRITERIA):
        print(f"no criterion matches --only {args.only!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    results = acceptance.run_all(args.seed, args.only)
    total = time.perf_counter() - start     # wall time, not a sum of timers
    lines = [r.line() for r in results]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    sys.stdout.write(f"{sum(r.passed for r in results)}/{len(results)} passed "
                     f"in {total:.1f}s\n")
    if args.out:
        _write(args.out, "reproduce_summary.csv",
               "number,name,passed,details\n" + "".join(
                   f"{r.number},{r.name},{int(r.passed)},\"{r.details}\"\n"
                   for r in results))
        _write(args.out, "artifacts.txt",
               acceptance.reproduce_artifacts(args.seed))
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="kpert", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("series", help="perturbed series on a sample grid")
    common(p)
    p.set_defaults(fn=cmd_series)
    p = sub.add_parser("certify", help="slice certificates")
    common(p)
    p.add_argument("--discrete", default=None,
                   help="path to a matrix-kernel JSON problem")
    p.set_defaults(fn=cmd_certify)
    p = sub.add_parser("oracle-check", help="closed-form oracle comparisons")
    common(p, config_required=False)
    p.set_defaults(fn=cmd_oracle_check)
    p = sub.add_parser("kato", help="window modulus ladder")
    common(p, config_required=False)
    p.add_argument("--windows", default=None, help="comma-separated h values")
    p.set_defaults(fn=cmd_kato)
    p = sub.add_parser("3g", help="comparison-inequality sampler")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_3g)
    p = sub.add_parser("weyl", help="half-derivative spot checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_weyl)
    p = sub.add_parser("reproduce", help="run the acceptance table")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.add_argument("--only", default=None, help="substring filter on criteria")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
