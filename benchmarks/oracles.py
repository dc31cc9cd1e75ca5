"""Independent oracles for every benchmark op, and failure accounting.

Nothing here imports kpert.  The oracles are closed forms (the
composition identity for constant densities and atoms, the multi-atom
factor, k(h) = 2 lambda h, the declared cone-kernel slice constant) or
exact linear algebra done here with numpy (the matrix series).

An op *fails* on a traceback, an exit code other than the expected one,
or an INVALID certificate.  An op whose output misses its oracle by more
than the tolerance below is *wrong*; a wrong op makes the run incorrect.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relative tolerances of the oracle checks.  Far-field points (|x - y|
# >= 4) carry the known bridge-rule defect (ROADMAP item 3, up to ~5 % at
# |x - y| = 10 at this commit), so their tolerance is wider; the
# defect itself is reported through oracle_max_rel_err and
# errbar_miss_frac, not hidden.
TOL_NEAR = 1e-2
TOL_FAR = 1e-1
# A time-uniform certificate's ratio is a sup over sample points that reach
# s close to t, where the engine states errors up to 1.5 % at this commit.
TOL_CERT = 3e-2
TOL_MULTI_ATOM = 1e-3
TOL_EXACT = 1e-9
TOL_KATO = 1e-6
FAR_FIELD = 4.0


@dataclass
class Tally:
    """Aggregated oracle results of one run."""

    attempted: int = 0          # timed ops
    failed: int = 0             # timed ops that failed
    probes: int = 0
    probes_failed: int = 0
    wrong: list = field(default_factory=list)     # (op id, message)
    failures: list = field(default_factory=list)  # (op id, message)
    max_rel_err: float = 0.0
    rel_err_count: int = 0
    converged: int = 0          # results labelled converged (series)
    errbar_miss: int = 0
    certs: dict = field(default_factory=lambda: {
        "VALID": 0, "INVALID": 0, "INCONCLUSIVE": 0, "HYPOTHESIS_FAIL": 0})

    def rel_err(self, op_id, measured, expected, tol, what=""):
        err = 0.0 if measured == expected else \
            abs(measured - expected) / abs(expected) if expected else math.inf
        return self.record(op_id, err, tol,
                           f"{what} {measured!r} vs oracle {expected!r}")

    def record(self, op_id, err, tol, what):
        if not math.isfinite(err):
            err = math.inf
        self.max_rel_err = max(self.max_rel_err, err)
        self.rel_err_count += 1
        if not err <= tol:
            self.wrong.append((op_id, f"{what} (rel err {err:.2e})"))
        return err

    @property
    def fail_frac(self):
        n = self.attempted + self.probes
        return (self.failed + self.probes_failed) / n if n else 0.0

    @property
    def cert_valid_frac(self):
        n = sum(self.certs.values())
        return self.certs["VALID"] / n if n else None

    @property
    def errbar_miss_frac(self):
        return self.errbar_miss / self.converged if self.converged else None

    @property
    def correct(self):
        return not self.wrong and self.failed == 0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def series_ratio(measure: dict, s: float, t: float) -> float:
    """Composition identity: p_mu / p = exp(lambda |(s,t) & supp|) times
    prod (1 + eta_i) over active atoms with s < u_i < t."""
    lo, hi = measure.get("support", (-math.inf, math.inf))
    ratio = 1.0
    dens = measure.get("density")
    if dens:
        ratio = math.exp(dens["lambda"] * max(0.0, min(t, hi) - max(s, lo)))
    for atom in measure.get("atoms", []):
        u = atom["u"]
        if s < u < t and lo <= u < hi:
            ratio *= 1.0 + atom["eta"]
    return ratio


def multi_atom_factor(eta: float, n_atoms: int) -> float:
    """sum_n eta^n binom(L + n - 1, n) = (1 - eta)^-L."""
    return (1.0 - eta) ** (-n_atoms)


def theorem_bound(eta: float, beta: float, j: int) -> float:
    return (1.0 / (1.0 - eta)) * (1.0 + beta / (1.0 - eta)) ** (j - 1)


def matrix_oracle(problem: dict, chain: list):
    """Exact series g = (I - K)^-1 f and the exact slice constants."""
    K = np.asarray(problem["entries"], dtype=float)
    n = K.shape[0]
    f = np.asarray(problem.get("f", np.ones(n)), dtype=float)
    g = np.linalg.solve(np.eye(n) - K, f)
    sets = [np.zeros(n, dtype=bool) for _ in chain]
    for m, name in zip(sets, chain):
        m[problem["sets"][name]] = True
    slices = [a & ~b for a, b in zip(sets, [np.zeros(n, bool)] + sets[:-1])]
    etas, betas = [], []
    for S in slices:
        kjf = K[:, S] @ f[S]
        etas.append(float(np.max(kjf[S] / f[S])) if S.any() else 0.0)
        top = sets[-1]
        betas.append(float(np.max(kjf[top] / f[top])))
    return g, f, slices, max(etas), max(betas)


def _read_csv(path: Path):
    rows = path.read_text().strip().splitlines()
    head = rows[0].split(",")
    return [dict(zip(head, r.split(","))) for r in rows[1:]]


# ---------------------------------------------------------------------------
# per-op checks
# ---------------------------------------------------------------------------

def _check_series(tally, op, rec, out):
    cfg = json.loads(Path(op["config"]).read_text())
    rows = _read_csv(out / "series.csv")
    t = cfg["target"]["t"]
    y = cfg["target"]["y"]
    captured = rec.get("series") or [None] * len(rows)
    if len(rows) != len(cfg["samples"]["s"]) or len(captured) != len(rows):
        tally.wrong.append((op["id"], "series output has the wrong row count"))
        return
    for row, res in zip(rows, captured):
        s, x = float(row["s"]), float(row["x"])
        far = abs(x - y) >= FAR_FIELD
        tol = TOL_FAR if far else TOL_NEAR
        expected = series_ratio(cfg["measure"], s, t)
        ratio = float(row["ratio"])
        err = tally.rel_err(op["id"], ratio, expected, tol,
                            f"ratio at s={s}, x={x}")
        if row["status"] == "converged" and res is not None:
            tally.converged += 1
            stated = res["quad_error_estimate"] + \
                res["tail_estimate"] / max(abs(res["value"]), 1e-300)
            if err > stated:
                tally.errbar_miss += 1


def _count_certificates(tally, out):
    """Tally the statuses an op's certificates.json holds (written also by a
    certify op that exits 3 or 4); return the list, or None."""
    path = out / "certificates.json"
    certs = json.loads(path.read_text()) if path.is_file() else None
    if not isinstance(certs, list):
        return None
    for c in certs:
        tally.certs[c["status"]] = tally.certs.get(c["status"], 0) + 1
    return certs


def _check_certificates(tally, op, rec, certs):
    if certs is None:
        tally.wrong.append((op["id"], "no certificate list written"))
        return
    cfg = json.loads(Path(op["config"]).read_text())
    if "discrete" in cfg:
        problem = json.loads(Path(op["problem"]).read_text())
        chain = cfg["discrete"]["chain"]
        g, f, slices, eta, beta = matrix_oracle(problem, chain)
        tally.rel_err(op["id"], certs[0]["eta"], eta, TOL_EXACT, "eta")
        tally.rel_err(op["id"], certs[0]["beta"], beta, TOL_EXACT, "beta")
        for c, S in zip(certs, slices):
            tally.rel_err(op["id"], c["measured_ratio"],
                          float(np.max(g[S] / f[S])), TOL_EXACT,
                          f"slice {c['slice']} series ratio")
            tally.rel_err(op["id"], c["bound"],
                          theorem_bound(eta, beta, c["slice"]), TOL_EXACT,
                          f"slice {c['slice']} bound")
        return
    if cfg["slicing"]["mode"] == "diagonal-level":
        sl = cfg["slicing"]
        for c in certs:
            tally.rel_err(op["id"], c["eta"], sl["eta_target"], TOL_EXACT,
                          f"slice {c['slice']} eta")
            tally.rel_err(op["id"], c["bound"],
                          theorem_bound(c["eta"], c["beta"], c["slice"]),
                          TOL_EXACT, f"slice {c['slice']} bound")
            if not c["measured_ratio"] >= 1.0 - TOL_EXACT:
                tally.wrong.append((op["id"], "series ratio below one"))
        return
    # time-uniform: the sup over the slice's own sample points
    t = cfg["target"]["t"]
    points = rec.get("slice_s") or []
    if len(points) != len(certs):
        tally.wrong.append((op["id"], "slice sample points unavailable"))
        return
    for c, s_pts in zip(certs, points):
        expected = max(series_ratio(cfg["measure"], s, t) for s in s_pts)
        tally.rel_err(op["id"], c["measured_ratio"], expected, TOL_CERT,
                      f"slice {c['slice']} series ratio")
        tally.rel_err(op["id"], c["bound"],
                      theorem_bound(c["eta"], c["beta"], c["slice"]),
                      TOL_EXACT, f"slice {c['slice']} bound")


def _check_kato(tally, op, out):
    cfg = json.loads(Path(op["config"]).read_text())
    rows = _read_csv(out / "kato.csv")
    hs = [float(h) for h in op["argv"][op["argv"].index("--windows") + 1]
          .split(",")]
    got = {float(r["h"]): float(r["k_h"]) for r in rows}
    if sorted(got) != sorted(hs):
        tally.wrong.append((op["id"], "kato ladder does not match --windows"))
        return
    dens = cfg["measure"]["density"]
    if dens["kind"] == "const":
        for h, k in got.items():
            tally.rel_err(op["id"], k, 2.0 * dens["lambda"] * h, TOL_KATO,
                          f"k({h})")
    else:
        vals = [got[h] for h in sorted(got, reverse=True)]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            tally.wrong.append((op["id"], f"profile not decreasing: {vals}"))


def _check_multi_atom(tally, op, res):
    expected = multi_atom_factor(op["eta"], len(op["times"]))
    tally.rel_err(op["id"], res["factor"], expected, TOL_EXACT,
                  "multi_atom_series_factor")
    tally.rel_err(op["id"], res["ratio"], expected, TOL_MULTI_ATOM,
                  "series_at ratio")


def _check_matrix(tally, op, res):
    problem = json.loads(Path(op["problem"]).read_text())
    g, *_ = matrix_oracle(problem, op["chain"])
    for name in ("power_ok", "slice_ok", "decay_ok"):
        if not res[name]:
            tally.wrong.append((op["id"], f"{name} is false"))
    if res["neumann_status"] != "converged":
        tally.wrong.append((op["id"], f"Neumann series {res['neumann_status']}"))
    for name in ("neumann", "exact"):
        v = np.asarray(res[name])
        tally.record(op["id"], float(np.max(np.abs(v - g) / np.abs(g))),
                     TOL_EXACT, f"{name} sum")


def check_run(ops, child: dict, out_root: Path) -> Tally:
    """Score every op of a child run against its oracle."""
    tally = Tally()
    records = {r["id"]: r for r in child["ops"] + child["probes"]}
    for op in ops:
        rec = records.get(op["id"])
        if op["timed"]:
            tally.attempted += 1
        else:
            tally.probes += 1
        failure = None
        certs = None
        if rec is not None and op.get("argv", [""])[0] == "certify":
            certs = _count_certificates(tally, out_root / op["id"])
        if rec is None:
            failure = "not run"
        elif rec.get("error") and rec.get("rc") is None:
            failure = "traceback: " + rec["error"].strip().splitlines()[-1]
        elif "argv" in op and rec["rc"] != op["expect_rc"]:
            failure = f"exit {rec['rc']}, expected {op['expect_rc']}"
        elif op.get("expect_rc") == 2 and not rec["stderr"]:
            failure = "exit 2 without a message"
        elif certs and any(c["status"] == "INVALID" for c in certs):
            failure = "INVALID certificate"
        if failure is None and op["timed"]:
            out = out_root / op["id"]
            if op["kind"] == "multi_atom":
                _check_multi_atom(tally, op, rec["result"])
            elif op["argv"][0] == "series":
                _check_series(tally, op, rec, out)
            elif op["argv"][0] == "certify":
                _check_certificates(tally, op, rec, certs)
                if op["kind"] == "matrix":
                    _check_matrix(tally, op, rec["result"])
            elif op["argv"][0] == "kato":
                _check_kato(tally, op, out)
        if failure is not None:
            tally.failures.append((op["id"], failure))
            if op["timed"]:
                tally.failed += 1
            else:
                tally.probes_failed += 1
    return tally
