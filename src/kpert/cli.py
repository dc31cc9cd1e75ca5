"""Batch front end.

Subcommands
    series        p and the perturbed series on a sample grid -> CSV
    certify       slice certificates (discrete or space-time) -> JSON + CSV
    oracle-check  closed-form oracle comparisons -> CSV
    kato          window modulus k(h) ladder -> CSV
    3g            cone-kernel comparison sampler -> CSV
    weyl          half-derivative spot checks -> CSV
    reproduce     the full acceptance table

Settings come from the JSON run configuration (--config), whose shape is
checked before any value is read; a discrete certify names its problem
file there, at discrete.path.  The command line adds only --out, --seed
(certify, kato, 3g, reproduce), --windows (kato), --samples (3g) and
--only (reproduce); oracle-check, 3g, weyl and reproduce take no config.

Exit codes: 0 success, 2 config error, 3 any INVALID certificate,
4 any INCONCLUSIVE / HYPOTHESIS_FAIL, or a slice constant eta >= 1
(``certify`` then writes only the error and eta).  All outputs are
deterministic under a fixed --seed: CSV uses repr floats, JSON uses
sorted keys.
"""
from __future__ import annotations

import argparse
import functools
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
from kpert.errors import DomainError, SmallnessError
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


def _whole_number(value) -> bool:
    """True for an int or an integral float; a bool is not one."""
    return not isinstance(value, bool) and (
        isinstance(value, int)
        or isinstance(value, float) and value.is_integer())


_MAX_SAMPLES = 100_000      # per config and per certify slice

# config sections, by dotted path, that must be JSON objects when present
_OBJECTS = ("kernel", "measure", "measure.density", "target", "samples",
            "samples.grid", "slicing", "quad", "discrete")


def _check_structure(doc):
    """The shapes load_config reads values out of: the document and each
    section of _OBJECTS a JSON object, discrete.path a string and each
    axis of samples.grid [lo, hi, n]; else a ConfigError naming the part."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {doc!r}")
    for name in _OBJECTS:
        outer, _, key = name.rpartition(".")
        section = doc.get(outer, {}) if outer else doc
        if key in section and not isinstance(section[key], dict):
            raise ConfigError(f"{name} must be a JSON object, got "
                              f"{section[key]!r}")
    path = doc.get("discrete", {}).get("path", "")
    if not isinstance(path, str):
        raise ConfigError(f"discrete.path must be a string, got {path!r}")
    grid = doc.get("samples", {}).get("grid")
    for axis in ("s", "x") if grid is not None else ():
        spec = grid.get(axis)
        if not (isinstance(spec, list) and len(spec) == 3
                and all(isinstance(v, (int, float)) for v in spec)
                and _whole_number(spec[2]) and spec[2] >= 0):
            raise ConfigError(f"samples.grid.{axis} must be [lo, hi, n] "
                              f"with n a non-negative integer, got {spec!r}")


def load_config(path, seed=None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _check_structure(doc)
    try:
        cfg = RunConfig()
        kdoc = doc.get("kernel", {})
        cfg.kernel_name = kdoc.get("name", "gaussian")
        d = kdoc.get("d", 1)
        if not (_whole_number(d) and d >= 1):
            raise ConfigError(f"kernel d must be a positive integer, got "
                              f"{d!r}")
        cfg.dim = int(d)
        if "measure" in doc:
            cfg.measure = measure_from_config(doc["measure"], cfg.dim)
        tdoc = doc.get("target", {})
        cfg.target_t = float(tdoc.get("t", 1.0))
        cfg.target_y = float(tdoc.get("y", 0.0))
        sdoc = doc.get("samples", {})
        if "s" in sdoc and "x" in sdoc and not isinstance(sdoc["s"], dict):
            cfg.sample_s = np.asarray(sdoc["s"], dtype=float)
            cfg.sample_x = np.asarray(sdoc["x"], dtype=float)
        elif "grid" in sdoc:
            gs = sdoc["grid"]
            ns, nx = int(gs["s"][2]), int(gs["x"][2])
            if max(ns, nx, ns * nx) > _MAX_SAMPLES:
                raise ConfigError(f"samples.grid asks for {ns} x {nx} "
                                  f"points, more than {_MAX_SAMPLES}")
            s = np.linspace(*gs["s"][:2], ns)
            x = np.linspace(*gs["x"][:2], nx)
            S, X = np.meshgrid(s, x, indexing="ij")
            cfg.sample_s, cfg.sample_x = S.ravel(), X.ravel()
        if cfg.sample_s.ndim != 1 or cfg.sample_x.ndim != 1:
            raise ConfigError("samples s and x must be lists of numbers")
        if len(cfg.sample_s) != len(cfg.sample_x):
            raise ConfigError("sample arrays s and x differ in length")
        if not 0 < len(cfg.sample_s) <= _MAX_SAMPLES:
            raise ConfigError(f"samples need at least one point and at "
                              f"most {_MAX_SAMPLES}")
        if not (math.isfinite(cfg.target_t) and math.isfinite(cfg.target_y)):
            raise ConfigError("target t and y must be finite")
        if not (np.all(np.isfinite(cfg.sample_s))
                and np.all(np.isfinite(cfg.sample_x))):
            raise ConfigError("samples s and x must be finite")
        cfg.slicing = doc.get("slicing", {})
        cfg.discrete = doc.get("discrete", {})
        qdoc = doc.get("quad", {})
        cfg.quad_tol = float(qdoc.get("rel_tol", 1e-4))
        if not 0.0 < cfg.quad_tol < 1.0:        # NaN fails too
            raise ConfigError(f"quad rel_tol must lie in (0, 1), got "
                              f"{cfg.quad_tol!r}")
        max_terms = qdoc.get("max_terms", 14)
        if not _whole_number(max_terms):
            raise ConfigError(f"quad max_terms must be an integer, got "
                              f"{max_terms!r}")
        cfg.max_terms = int(max_terms)
        if cfg.max_terms < 1:
            raise ConfigError(f"quad max_terms must be at least 1, got "
                              f"{cfg.max_terms!r}")
        config_seed = doc.get("seed", 0)
        if not (_whole_number(config_seed) and config_seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got "
                              f"{config_seed!r}")
        cfg.seed = int(config_seed)
        if seed is not None:
            cfg.seed = seed
        cfg.base_dir = Path(path).resolve().parent
        cfg.kernel  # resolves now; unknown names fail at parse time
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _command_kernel(cfg, command: str, peak_dims=(1,), cone=True):
    """The configured kernel, if ``command`` can evaluate it.

    The series engine (``series``, ``certify`` on time slices and on
    level strips) has one-dimensional rules; ``kato`` also has a polar
    rule for d = 2, but its endpoint peak rule is symmetric and the cone
    kernel one-sided.  The cone kernel is one-dimensional.
    """
    dims = {"peak": peak_dims, "cone": (1,) if cone else ()}[cfg.kernel.kind]
    if cfg.dim not in dims:
        kappa = " and kappa in d = 1" if cone else ""
        raise ConfigError(
            f"{command} cannot take kernel {cfg.kernel_name!r} in "
            f"d = {cfg.dim}; it takes gaussian and cauchy in d = "
            f"{' or '.join(map(str, peak_dims))}{kappa}")
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


def _json(obj) -> str:
    """obj as JSON text; a non-finite float, which JSON cannot hold, is
    written as the string the CSV files use: "inf", "-inf" or "nan"."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, list):
            return [plain(x) for x in v]
        if isinstance(v, float) and not math.isfinite(v):
            return _fmt(v)
        return v
    return json.dumps(plain(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def certificates_json(certs) -> str:
    return _json([c.to_dict() for c in certs])


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
    cfg = load_config(args.config)
    res = pt.series_batch(_command_kernel(cfg, "series"), cfg.measure,
                          cfg.sample_s, cfg.sample_x, cfg.target_t,
                          cfg.target_y, quad_tol=cfg.quad_tol,
                          max_terms=cfg.max_terms)
    _write(args.out, "series.csv", series_csv(cfg.sample_s, cfg.sample_x, res))
    return 0


# Slices a certify run may take: each slice samples its own points, and a
# slice list past this size would not finish or not fit in memory
# (t = 1e300 with h = 0.5 asked for 2e300 slices).
_MAX_SLICES = 10_000

# slicing key -> (rule its value must meet, what the rule says)
_SLICING_RULES = {
    "h": (lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    "r": (math.isfinite, "must be finite"),
    "eta": (lambda v: 0.0 <= v < math.inf, "must be non-negative and finite"),
    "n_samples": (lambda v: 1.0 <= v <= _MAX_SAMPLES and v.is_integer(),
                  f"must be a positive integer up to {_MAX_SAMPLES}"),
    "c": (lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    "p": (lambda v: 0.0 < v < 0.5, "must lie in (0, 1/2)"),
    "eta_target": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
}
_REQUIRED = object()


def _slicing_number(cfg, key, default=_REQUIRED):
    """slicing.<key> as a float that meets its rule, else a ConfigError
    naming the key; ``default`` when the key is absent, unless the key is
    required."""
    if key not in cfg.slicing:
        if default is _REQUIRED:
            raise ConfigError(f"{cfg.slicing.get('mode', 'time-uniform')} "
                              f"slicing needs slicing.{key}")
        return default
    ok, rule = _SLICING_RULES[key]
    try:
        value = float(cfg.slicing[key])
    except (TypeError, ValueError):
        value = math.nan                  # fails every rule
    if not ok(value):
        raise ConfigError(f"slicing.{key} {rule}, got {cfg.slicing[key]!r}")
    return value


def _check_slice_count(span, h, what):
    """A ConfigError unless slices of width h (named by ``what``) cut a
    range of length span into at most _MAX_SLICES slices."""
    if not (h > 0.0 and span / h <= _MAX_SLICES):
        raise ConfigError(f"{what} = {h!r} cuts a range of length {span!r} "
                          f"into more than {_MAX_SLICES} slices")


def _intervals_from_config(cfg) -> list:
    mode = cfg.slicing.get("mode", "time-uniform")
    if mode == "time-uniform":
        h = _slicing_number(cfg, "h")
        r = _slicing_number(cfg, "r", 0.0)
        if not r < cfg.target_t:
            raise ConfigError(f"slicing.r = {r!r} must lie below the target "
                              f"time t = {cfg.target_t!r}")
        _check_slice_count(cfg.target_t - r, h, "slicing.h")
        return bnd.time_uniform_slices(r, cfg.target_t, h)
    if mode == "intervals":
        pairs = cfg.slicing.get("intervals")
        try:
            out = [bnd.Interval(float(a), float(b)) for a, b in pairs]
        except (TypeError, ValueError):
            out = []
        # Theorem 4.6's slices tile [r, t) downward from the target: I_1
        # ends at t and each I_{j+1} ends where I_j starts
        tops = [cfg.target_t] + [I.lo for I in out[:-1]]
        if not out or not all(-math.inf < I.lo < I.hi == top
                              for I, top in zip(out, tops)):
            raise ConfigError(f"slicing.intervals must be a non-empty "
                              f"list of finite [lo, hi] with lo < hi that "
                              f"tile [r, t) downward from the target time "
                              f"t = {cfg.target_t!r}: the first ends at t "
                              f"and each next one where the one before "
                              f"starts, got {pairs!r}")
        return out
    raise ConfigError(f"slicing mode {mode!r} needs the diagonal or discrete path")


def _smallness_fails(out_dir, eta) -> int:
    """Exit 4 for a slice constant eta >= 1, where no certificate exists:
    the error and eta go to certificates.json and eta to stderr."""
    _write(out_dir, "certificates.json",
           _json({"error": "local smallness fails", "eta": eta}))
    print(f"local smallness fails: eta = {eta!r} >= 1", file=sys.stderr)
    return 4


def _discrete_problem(cfg):
    """The problem at discrete.path (relative to the config); any fault in
    it is one ConfigError naming the file."""
    if "path" not in cfg.discrete:
        raise ConfigError("a discrete certify needs discrete.path")
    path = str(cfg.base_dir / cfg.discrete["path"])
    try:
        K, sets, f = mk.load_discrete_problem(path)
        names = cfg.discrete.get("chain", sorted(sets))
        chain = mk.AbsorbingChain(tuple(sets[n] for n in names))
        return bnd.MatrixSliceProblem(K, f, chain)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid discrete problem {path}: {exc}") from exc


def _certificates(cfg):
    """The certificates of one certify run, by the branch the config
    selects; SmallnessError for a slice constant eta >= 1."""
    if cfg.discrete:
        prob = _discrete_problem(cfg)
        const = bnd.estimate_constants(prob)
        return bnd.certify(prob, const.eta, const.beta)
    kernel = _command_kernel(cfg, "certify")
    if cfg.slicing.get("mode") == "diagonal-level":
        if cfg.kernel_name != "kappa" or not (cfg.target_t > 0.0
                                              and cfg.target_y > 0.0):
            raise ConfigError("diagonal-level slicing takes kernel kappa "
                              "and a target with t > 0 and y > 0")
        c, p = _slicing_number(cfg, "c"), _slicing_number(cfg, "p")
        h = _slicing_number(cfg, "h", None)
        eta_target = _slicing_number(cfg, "eta_target", 0.5)
        width, what = (h, "slicing.h") if h is not None else (
            st.solve_h(c, p, eta_target),
            "the strip width from slicing.c, p and eta_target")
        _check_slice_count(cfg.target_t + cfg.target_y, width, what)
        prob = pt.KappaSliceProblem(
            c, p, cfg.target_t, cfg.target_y, h=h, eta_target=eta_target,
            quad_tol=cfg.quad_tol, seed=cfg.seed, max_terms=cfg.max_terms)
        eta = float(prob.analytic_eta)
        return bnd.certify(prob, eta, eta, n_samples=6)
    intervals = _intervals_from_config(cfg)
    return pt.theorem46_certify(
        kernel, cfg.measure, cfg.target_t, cfg.target_y, intervals,
        eta=_slicing_number(cfg, "eta", None),
        n_samples=int(_slicing_number(cfg, "n_samples", 16)), seed=cfg.seed,
        quad_tol=cfg.quad_tol, max_terms=cfg.max_terms)


def cmd_certify(args) -> int:
    cfg = load_config(args.config, args.seed)
    try:
        certs = _certificates(cfg)
    except SmallnessError as exc:
        return _smallness_fails(args.out, exc.eta)
    except DomainError as exc:
        raise ConfigError(f"{exc}; fewer slices keep it finite") from exc
    _write(args.out, "certificates.json", certificates_json(certs))
    _write(args.out, "certificates.csv", certificates_csv(certs))
    return _certificate_exit(certs)


def cmd_oracle_check(args) -> int:
    g = st.gaussian_kernel(1)
    rows = ["case,measured,expected,rel_error"]
    from kpert.measures import Atom, ConstDensity
    for lam in (0.25, 1.0):
        mu = PerturbingMeasure(ConstDensity(lam))
        r = pt.series_batch(g, mu, [0.0], [0.3], 1.0, 0.0)[0]
        exp = math.exp(lam)
        rows.append(f"atomless-lam={lam},{_fmt(r.ratio)},{_fmt(exp)},"
                    f"{_fmt(abs(r.ratio - exp) / exp)}")
    mu = PerturbingMeasure(atoms=(Atom(0.5, 0.7),))
    r = pt.series_batch(g, mu, [0.0], [0.2], 1.0, 0.0)[0]
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
    hs = args.windows or [1.0, 0.5, 0.25, 0.125]
    kernel = _command_kernel(cfg, "kato", peak_dims=(1, 2), cone=False)
    prof = st.kato_profile(kernel, mu, hs, n_samples=16, seed=cfg.seed)
    rows = ["h,k_h"] + [f"{_fmt(h)},{_fmt(prof[h])}" for h in sorted(prof, reverse=True)]
    _write(args.out, "kato.csv", "\n".join(rows) + "\n")
    return 0


def cmd_3g(args) -> int:
    chk = st.sample_3g(np.random.Generator(np.random.Philox(key=args.seed)),
                       args.samples)
    rows = ["stat,value",
            f"samples,{chk.ratio.size}",
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


def _seed(text) -> int:
    """--seed: a non-negative integer below 2**128 (Philox's key range)."""
    seed = int(text)
    if not 0 <= seed < 2 ** 128:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer below 2**128, got {text}")
    return seed


def _count(text) -> int:
    """3g --samples: 1 to a million tuples (about 150 MB at the top)."""
    count = int(text)
    if not 1 <= count <= 1_000_000:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 and at most 1000000, got {text}")
    return count


def _windows(text) -> list:
    """--windows: comma-separated finite positive h values."""
    hs = [float(h) for h in text.split(",")]
    if not all(0.0 < h < math.inf for h in hs):
        raise argparse.ArgumentTypeError(
            f"windows must be finite and positive, got {text}")
    return hs


def build_parser():
    ap = argparse.ArgumentParser(prog="kpert", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("series", help="perturbed series on a sample grid")
    common(p)
    p.set_defaults(fn=cmd_series)
    p = sub.add_parser("certify", help="slice certificates")
    common(p)
    p.add_argument("--seed", type=_seed, default=None,
                   help="overrides the config's seed (default 0)")
    p.set_defaults(fn=cmd_certify)
    p = sub.add_parser("oracle-check", help="closed-form oracle comparisons")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle_check)
    p = sub.add_parser("kato", help="window modulus ladder")
    common(p, config_required=False)
    p.add_argument("--seed", type=_seed, default=None,
                   help="overrides the config's seed (default 0)")
    p.add_argument("--windows", type=_windows, default=None,
                   help="comma-separated h values")
    p.set_defaults(fn=cmd_kato)
    p = sub.add_parser("3g", help="comparison-inequality sampler")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_3g)
    p = sub.add_parser("weyl", help="half-derivative spot checks")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_weyl)
    p = sub.add_parser("reproduce", help="run the acceptance table")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--out", default=None)
    p.add_argument("--only", default=None, help="substring filter on criteria")
    p.set_defaults(fn=cmd_reproduce)
    return ap


@functools.cache
def _parser():
    """The parser main builds once and reuses; parse_args returns a fresh
    Namespace on every call, so nothing carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
