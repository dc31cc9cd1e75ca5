"""Seeded input generators for the four benchmark workloads.

Every workload is a list of op templates.  One *pass* instantiates each
template once with fresh seeded parameters, so no two ops of a run share
a config.  Templates fix what drives the cost (kernel, atom count, panel
count, slice count, state count band) and keep the product of density and
window length, which sets the number of grid levels, in a narrow band;
the seed draws the rest (atom times and weights, targets, sample points,
windows, support edges), so the work per pass stays comparable across
seeds while every number the oracles check changes.

An op is a plain dict written to ``ops.json``:

    {"id", "kind", "timed", "expect_rc", ...kind fields}

kinds: ``cli`` (argv for ``kpert.cli.main``; inputs are files the
generator wrote), ``multi_atom`` (``MultiAtomOperator.series_at``) and
``matrix`` (a discrete ``certify`` through ``kpert.cli.main``, then the
identities, geometric decay and Neumann sums from ``matrix_kernels`` on
the same problem file).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# A run executes the same op list in SUBRUNS fresh processes (see run.py).
SUBRUNS = 3

# Seconds one pass of each workload takes on the reference machine (2-core
# x86 container, see README.md).  An op list holds
# round(seconds / SUBRUNS / PASS_SECONDS) passes, so the work of a run is
# fixed by --seconds alone and every count repeats exactly for a fixed seed.
PASS_SECONDS = {
    "series-oracle": 7.5,
    "certify-slices": 9.5,
    "matrix-oracle": 1.8,
    "window-modulus": 7.0,
}

# Why each workload is in the benchmark (the same text as BENCHMARK.json).
WHY = {
    "series-oracle": (
        "kpert series ops: engine grid levels, spline lookups and per-point "
        "readout, checked against the composition-identity closed form"),
    "certify-slices": (
        "slice certificates: per-point and per-slice engine rebuilds "
        "(time-uniform) plus cone rules and adaptive quadrature (kappa)"),
    "matrix-oracle": (
        "finite-state oracle only: apply/neumann_series call overhead on "
        "small instances, matvecs on large ones, exact sums as oracle"),
    "window-modulus": (
        "kato ladders: Gauss-Legendre rule rebuilding and "
        "kato_inner_integral, no series engine, checked against "
        "k(h) = 2 lambda h"),
}

# Placeholder for the output root in generated argv.
OUT = "@OUT@"

SALT = {"series-oracle": 11, "certify-slices": 23, "matrix-oracle": 37,
        "window-modulus": 53}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / SUBRUNS / PASS_SECONDS[workload])))


class _Writer:
    """Writes input files under one directory and hashes each of them."""

    def __init__(self, inputs_dir: Path):
        self.dir = Path(inputs_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.hashes = {}

    def json(self, name: str, doc) -> str:
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self.hashes[name] = hashlib.sha256(text.encode()).hexdigest()
        return str(path)


def _r(x: float) -> float:
    """Round generated parameters to 6 significant digits so configs are
    short and read back exactly."""
    return float(f"{x:.6g}")


def _kernel(name: str, d: int = 1) -> dict:
    return {"name": name, "d": d}


# ---------------------------------------------------------------------------
# series-oracle
# ---------------------------------------------------------------------------

def _atom_times(rng, lo, hi, n, gap=0.12):
    """n sorted times in (lo, hi) at least ``gap`` apart."""
    while True:
        u = np.sort(rng.uniform(lo, hi, size=n))
        if n < 2 or np.min(np.diff(u)) >= gap:
            return [_r(v) for v in u]


def _series_doc(rng, kernel, n_pts, *, lam=None, support="cover", n_atoms=0,
                far=False, eta_range=(0.2, 0.5)):
    t = _r(rng.uniform(0.97, 1.03))
    y = _r(rng.uniform(-0.5, 0.5))
    s_lo = _r(rng.uniform(0.0, 0.03))
    s = [_r(v) for v in rng.uniform(s_lo, s_lo + 0.3, size=n_pts)]
    s[0] = s_lo                     # s_lo is the engine's s_min
    if far:
        side = rng.choice([-1.0, 1.0], size=n_pts)
        x = [_r(y + sd * d) for sd, d in zip(side, rng.uniform(4.0, 10.0, n_pts))]
    else:
        x = [_r(v) for v in y + rng.uniform(-1.5, 1.5, size=n_pts)]
    measure = {}
    if lam is not None:
        measure["density"] = {"kind": "const", "lambda": _r(rng.uniform(*lam))}
        if support == "cover":
            measure["support"] = [_r(s_lo - rng.uniform(0.05, 0.5)),
                                  _r(t + rng.uniform(0.05, 0.5))]
        else:                       # lower edge inside the window: 2 panels
            measure["support"] = [_r(rng.uniform(s_lo + 0.35, t - 0.25)),
                                  _r(t + rng.uniform(0.05, 0.5))]
    if n_atoms:
        times = _atom_times(rng, s_lo + 0.1, t - 0.1, n_atoms)
        measure["atoms"] = [{"u": u, "eta": _r(rng.uniform(*eta_range))}
                            for u in times]
    return {"kernel": kernel, "measure": measure,
            "target": {"t": t, "y": y}, "samples": {"s": s, "x": x},
            "quad": {"rel_tol": 1e-3, "max_terms": 10}}


# (template name, config builder).  The number of sample points differs
# between templates, not between seeds.  A density with two atoms in the
# window (three panels) costs 7-10 s per op at this commit and would swamp
# a run, so density ops carry at most one atom; two and three atoms run on
# the pure-atom path and through MultiAtomOperator.
SERIES_TEMPLATES = [
    ("gauss-density-edge", lambda rng: _series_doc(
        rng, _kernel("gaussian"), 6, lam=(0.3, 0.33), support="edge")),
    ("cauchy-density", lambda rng: _series_doc(
        rng, _kernel("cauchy"), 4, lam=(0.45, 0.5))),
    ("gauss-density-1atom", lambda rng: _series_doc(
        rng, _kernel("gaussian"), 5, lam=(0.25, 0.28), n_atoms=1,
        eta_range=(0.3, 0.4))),
    ("cauchy-atoms-2", lambda rng: _series_doc(
        rng, _kernel("cauchy"), 8, n_atoms=2, eta_range=(0.2, 0.8))),
    ("gauss-atoms-3", lambda rng: _series_doc(
        rng, _kernel("gaussian"), 3, n_atoms=3, eta_range=(0.2, 0.8))),
    ("gauss-far", lambda rng: _series_doc(
        rng, _kernel("gaussian"), 6, lam=(0.3, 0.33), far=True)),
    ("cauchy-far", lambda rng: _series_doc(
        rng, _kernel("cauchy"), 7, lam=(0.3, 0.33), far=True)),
]


# Robustness probes (ROADMAP item 4).  Expected: exit 2 with a message.
PROBES = [
    ("probe-negative-density",
     {"kernel": _kernel("gaussian"),
      "measure": {"density": {"kind": "const", "lambda": -0.5}},
      "target": {"t": 1.0, "y": 0.0},
      "samples": {"s": [0.0], "x": [0.3]}}),
    ("probe-nan-density",
     {"kernel": _kernel("gaussian"),
      "measure": {"density": {"kind": "const", "lambda": float("nan")}},
      "target": {"t": 1.0, "y": 0.0},
      "samples": {"s": [0.0], "x": [0.3]}}),
    ("probe-cauchy-d2",
     {"kernel": _kernel("cauchy", 2),
      "measure": {"density": {"kind": "const", "lambda": 0.5, "dim": 2}},
      "target": {"t": 1.0, "y": 0.0},
      "samples": {"s": [0.0, 0.0], "x": [0.0, 0.5]}}),
    ("probe-stable-potential",
     {"kernel": {"name": "stable-potential:1.0"},
      "measure": {"density": {"kind": "const", "lambda": 0.5}},
      "target": {"t": 1.0, "y": 0.0},
      "samples": {"s": [0.0], "x": [0.3]}}),
]


def _series_oracle(rng, passes, w: _Writer):
    ops = []
    for p in range(passes):
        for name, build in SERIES_TEMPLATES:
            op_id = f"p{p}-{name}"
            cfg = w.json(f"{op_id}.json", build(rng))
            ops.append({"id": op_id, "kind": "cli",
                        "timed": True, "expect_rc": 0, "config": cfg,
                        "argv": ["series", "--config", cfg,
                                 "--out", f"{OUT}/{op_id}"]})
        for kernel, n_atoms in (("gaussian", 3), ("cauchy", 2)):
            times = _atom_times(rng, 0.15, 0.9, n_atoms, gap=0.15)
            ops.append({"id": f"p{p}-multi-atom-{kernel}",
                        "kind": "multi_atom", "timed": True, "kernel": kernel,
                        "times": times, "t": 1.0, "y": 0.0,
                        "eta": _r(rng.uniform(0.2, 0.6)),
                        "s": _r(rng.uniform(0.0, times[0] - 0.05)),
                        "x": _r(rng.uniform(-0.5, 0.5))})
    for name, doc in PROBES:
        cfg = w.json(f"{name}.json", doc)
        ops.append({"id": name, "kind": "cli",
                    "timed": False, "expect_rc": 2, "config": cfg,
                    "argv": ["series", "--config", cfg,
                             "--out", f"{OUT}/{name}"]})
    return ops


# ---------------------------------------------------------------------------
# certify-slices
# ---------------------------------------------------------------------------

def _time_uniform_doc(rng, kernel, n_slices, n_atoms):
    h = _r(rng.uniform(0.97, 1.03) / n_slices)
    t = n_slices * h - 1e-6         # ceil(t / h) == n_slices, never one more
    lam = _r(rng.uniform(0.25, 0.28))
    measure = {"density": {"kind": "const", "lambda": lam}}
    if n_atoms:
        # at most one atom per slice keeps every slice constant below one
        slots = rng.choice(n_slices, size=n_atoms, replace=False)
        times = sorted(_r(t - (j + rng.uniform(0.2, 0.8)) * h) for j in slots)
        measure["atoms"] = [{"u": u, "eta": _r(rng.uniform(0.3, 0.33))}
                            for u in times]
    return {"kernel": kernel, "measure": measure,
            "target": {"t": t, "y": _r(rng.uniform(-0.3, 0.3))},
            "slicing": {"mode": "time-uniform", "h": h, "r": 0.0,
                        "n_samples": 3},
            "quad": {"rel_tol": 3e-3, "max_terms": 8}}


def kappa_beta_sum(p: float) -> float:
    """B(1/2 - p, 1) + B(1/2, 1 - p), the cone-kernel slice integral."""
    return 1.0 / (0.5 - p) + \
        math.gamma(0.5) * math.gamma(1.0 - p) / math.gamma(1.5 - p)


def _kappa_doc(rng):
    """Diagonal-level config whose width h gives 4 strips with a top strip
    at least half a width deep (shallower ones can draw no sample point at
    all)."""
    t = _r(rng.uniform(0.8, 1.2))
    y = _r(rng.uniform(0.8, 1.2))
    p = _r(rng.uniform(0.05, 0.3))
    eta = _r(rng.uniform(0.35, 0.6))
    h = (t + y) / (3 + rng.uniform(0.5, 0.9))
    c = _r(eta / (2.0 * math.sqrt(2.0) * kappa_beta_sum(p) * h ** (0.5 - p)))
    return {"kernel": {"name": "kappa"}, "target": {"t": t, "y": y},
            "slicing": {"mode": "diagonal-level", "c": c, "p": p,
                        "eta_target": eta},
            "quad": {"rel_tol": 5e-3, "max_terms": 10}}


# As for series, the time-uniform ops carry at most one atom: two atoms
# cost 7-10 s per certify op at this commit.
CERTIFY_TEMPLATES = [
    ("gauss-2slices", lambda rng: _time_uniform_doc(
        rng, _kernel("gaussian"), 2, 0)),
    ("cauchy-4slices", lambda rng: _time_uniform_doc(
        rng, _kernel("cauchy"), 4, 0)),
    ("gauss-1atom-2slices", lambda rng: _time_uniform_doc(
        rng, _kernel("gaussian"), 2, 1)),
    ("kappa", _kappa_doc),
]


def _certify_slices(rng, passes, w: _Writer):
    ops = []
    for p in range(passes):
        for name, build in CERTIFY_TEMPLATES:
            op_id = f"p{p}-{name}"
            doc = build(rng)
            cfg = w.json(f"{op_id}.json", doc)
            ops.append({"id": op_id, "kind": "cli",
                        "timed": True, "expect_rc": 0, "config": cfg,
                        "slicing": doc["slicing"]["mode"],
                        "argv": ["certify", "--config", cfg, "--seed",
                                 str(int(rng.integers(0, 2 ** 16))),
                                 "--out", f"{OUT}/{op_id}"]})
    return ops


# ---------------------------------------------------------------------------
# matrix-oracle
# ---------------------------------------------------------------------------

def absorbing_instance(rng, n, k, denom=16):
    """Dyadic block-lower-triangular kernel on n states in k slices,
    relabeled by a random permutation, with a dyadic control f and rows
    halved until K f < f (so every slice constant is below one).

    Returns (entries, sets, f) with sets the nested absorbing prefixes.
    """
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    edges = np.concatenate([[0], cuts, [n]])
    slice_of = np.repeat(np.arange(k), np.diff(edges))
    e = rng.integers(0, denom + 1, size=(n, n)).astype(float) / denom
    e = np.where(slice_of[None, :] <= slice_of[:, None], e, 0.0)
    f = rng.choice([0.5, 1.0, 1.5, 2.0], size=n)
    for x in range(n):
        while e[x] @ f >= f[x]:
            e[x] /= 2.0
    perm = rng.permutation(n)
    pe = np.zeros_like(e)
    pe[np.ix_(perm, perm)] = e
    pf = np.zeros_like(f)
    pf[perm] = f
    sets = {}
    for j in range(k):
        sets[f"A{j + 1}"] = sorted(int(v) for v in perm[:edges[j + 1]])
    return pe, sets, pf


def _matrix_oracle(rng, passes, w: _Writer):
    """Per pass: 60 corpus-sized instances (2-8 states, 1-4 slices), 3 with
    tens of states and 1 with 200-220 states (a narrow band: its size sets
    the peak RSS)."""
    ops = []
    for p in range(passes):
        sizes = [int(rng.integers(2, 9)) for _ in range(60)] + \
            [int(rng.integers(20, 61)) for _ in range(3)] + \
            [int(rng.integers(200, 221))]
        for i, n in enumerate(sizes):
            k = int(rng.integers(1, min(4, n) + 1))
            entries, sets, f = absorbing_instance(rng, n, k)
            op_id = f"p{p}-m{i:02d}-n{n}"
            prob = w.json(f"{op_id}-problem.json",
                          {"n": n, "entries": entries.tolist(), "sets": sets,
                           "f": f.tolist()})
            cfg = w.json(f"{op_id}.json", {"discrete": {
                "path": Path(prob).name, "chain": sorted(sets)}})
            ops.append({"id": op_id, "kind": "matrix", "timed": True,
                        "expect_rc": 0, "config": cfg, "problem": prob,
                        "argv": ["certify", "--config", cfg,
                                 "--out", f"{OUT}/{op_id}"],
                        "chain": sorted(sets), "powers": 3 if n <= 60 else 2})
    return ops


# ---------------------------------------------------------------------------
# window-modulus
# ---------------------------------------------------------------------------

def _ladder(rng):
    n = int(rng.integers(3, 6))
    h_max = rng.uniform(0.5, 1.5)
    ratios = np.sort(rng.uniform(0.3, 0.8, size=n - 1))[::-1]
    hs = [h_max]
    for r in ratios:
        hs.append(hs[-1] * r)
    return ",".join(repr(_r(h)) for h in hs)


def _kato_doc(rng, kernel, d, density):
    if density == "const":
        dens = {"kind": "const", "lambda": _r(rng.uniform(0.2, 1.5)), "dim": d}
    else:
        dens = {"kind": "power", "eps": _r(rng.uniform(0.3, 0.8)), "dim": d}
    return {"kernel": _kernel(kernel, d), "measure": {"density": dens}}


KATO_TEMPLATES = [("gaussian", 1, "const"), ("cauchy", 1, "const"),
                  ("gaussian", 1, "power"), ("cauchy", 1, "power"),
                  ("gaussian", 2, "const"), ("cauchy", 2, "power")]


def _window_modulus(rng, passes, w: _Writer):
    ops = []
    for p in range(passes):
        for i, (kernel, d, density) in enumerate(KATO_TEMPLATES):
            name = f"{kernel}-d{d}-{density}"
            op_id = f"p{p}-{i}-{name}"
            cfg = w.json(f"{op_id}.json", _kato_doc(rng, kernel, d, density))
            ops.append({"id": op_id, "kind": "cli",
                        "timed": True, "expect_rc": 0, "config": cfg,
                        "argv": ["kato", "--config", cfg,
                                 "--windows", _ladder(rng),
                                 "--seed", str(int(rng.integers(0, 2 ** 16))),
                                 "--out", f"{OUT}/{op_id}"]})
    return ops


GENERATORS = {
    "series-oracle": _series_oracle,
    "certify-slices": _certify_slices,
    "matrix-oracle": _matrix_oracle,
    "window-modulus": _window_modulus,
}


def generate(workload: str, seed: int, seconds: float, inputs_dir: Path):
    """Write the inputs of one run and return (ops, {file: sha256}).

    Output paths in the ops' argv start with ``OUT``, which the runner
    replaces by its own output directory.
    """
    rng = np.random.default_rng([SALT[workload], int(seed)])
    w = _Writer(inputs_dir)
    ops = GENERATORS[workload](rng, passes_for(workload, seconds), w)
    return ops, w.hashes
