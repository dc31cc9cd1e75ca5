"""Acceptance suite: every release-gating check, runnable standalone.

Each criterion function returns a CriterionResult with a pass flag and a
one-line detail string; the CLI `reproduce` subcommand prints the table
and the pytest suite asserts each flag.  All randomness flows through a
single seed so repeated runs are bit-identical.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from kpert import bounds as bnd
from kpert import matrix_kernels as mk
from kpert import perturbation as pt
from kpert import spacetime as st
from kpert.measures import (Atom, ConstDensity, CornerPowerDensity,
                            PerturbingMeasure, PowerLawSpaceDensity)
from kpert.quadrature import QuadratureSpec, integrate_1d


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.number:2d} {self.name:<18} "
                f"({self.elapsed:5.1f}s) {self.details}")


def _rng(seed, salt):
    return np.random.Generator(np.random.Philox(key=seed + 1000003 * salt))


def _timed(number, name, fn):
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(number, name, passed, details,
                           time.perf_counter() - t0)


# -- 1: exact restriction identities on the random matrix corpus -----------

def criterion_identities(seed: int = 7):
    def run():
        rng = _rng(seed, 1)
        checks = 0
        for _ in range(1000):
            K, chain = mk.random_absorbing_instance(rng)
            chain.validate_for(K)
            for A in chain.sets:
                for m in range(1, 5):
                    if not mk.verify_power_identity(K, A, m):
                        return False, "power identity violated"
                    checks += 1
            for a, b in itertools.combinations_with_replacement(
                    range(chain.k), 2):
                for m in range(1, 5):
                    if not mk.verify_slice_identity(K, chain.sets[a],
                                                    chain.sets[b], m):
                        return False, "slice identity violated"
                    checks += 1
        return True, f"{checks} exact identities on 1000 kernels"
    return _timed(1, "identities", run)


# -- 2: series domination implies geometric decay --------------------------

def criterion_decay(seed: int = 7):
    def run():
        rng = _rng(seed, 2)
        checked = 0
        for _ in range(1000):
            K, chain = mk.random_absorbing_instance(rng, contractive=True)
            f = np.ones(K.n)
            g = mk.exact_series_sum(K, f)
            for A in chain.sets:
                c = float(np.max(g[A.mask] / f[A.mask]))
                c = max(c, 1.0) * (1.0 + 1e-12)
                if not mk.check_geometric_decay(K, f, A, c, n_max=20):
                    return False, f"decay violated (c={c:.4g})"
                checked += 1
        return True, f"{checked} decay checks, zero violations"
    return _timed(2, "decay", run)


# -- 3: slice-bound soundness + closed-form identity ------------------------

def criterion_soundness(seed: int = 7):
    def run():
        for eta in np.linspace(0.0, 0.99, 25):
            for j in (1, 2, 5, 10):
                lhs = bnd.theorem_bound(eta, eta, j)
                rhs = (1.0 - eta) ** (-j)
                if abs(lhs - rhs) > 1e-12 * rhs:
                    return False, f"identity off at eta={eta}, j={j}"
        rng = _rng(seed, 3)
        n_certs = 0
        for _ in range(1000):
            K, chain = mk.random_absorbing_instance(rng, contractive=True)
            prob = bnd.MatrixSliceProblem(K, np.ones(K.n), chain)
            const = bnd.estimate_constants(prob)
            if const.eta >= 1.0:
                continue
            for cert in bnd.certify(prob, const.eta, const.beta):
                n_certs += 1
                if cert.status != "VALID":
                    return False, f"certificate {cert.status} at eta={const.eta:.3g}"
        return True, f"{n_certs} certificates VALID; bound identity <= 1e-12"
    return _timed(3, "soundness", run)


# -- 4: atomless closed form -------------------------------------------------

def criterion_atomless_oracle(seed: int = 7):
    def run():
        g = st.gaussian_kernel(1)
        worst = 0.0
        for lam in (0.25, 1.0):
            mu = PerturbingMeasure(ConstDensity(lam))
            xs = np.linspace(-2.5, 2.5, 20)
            res = pt.series_batch(g, mu, np.zeros(20), xs, 1.0, 0.0,
                                  quad_tol=1e-4)
            target = math.exp(lam)
            for r in res:
                if r.status != "converged":
                    return False, f"series {r.status} at lam={lam}"
                worst = max(worst, abs(r.ratio - target) / target)
        ok = worst <= 1e-3
        return ok, f"max relative error {worst:.2e} (tol 1e-3)"
    return _timed(4, "atomless-oracle", run)


# -- 5: atom closed forms ----------------------------------------------------

def criterion_atom_oracles(seed: int = 7):
    def run():
        g = st.gaussian_kernel(1)
        mu = PerturbingMeasure(atoms=(Atom(0.5, 0.7),))
        terms = pt.series_batch(g, mu, [0.0], [0.2], 1.0, 0.0)[0].terms
        p0, p1, p2 = (terms + (0.0,))[:3]
        e1 = abs(p1 / p0 - 0.7) / 0.7
        if e1 > 1e-6:
            return False, f"single-atom factor off by {e1:.2e}"
        if p2 > 1e-8 * p0:
            return False, f"second term {p2 / p0:.2e} relative (tol 1e-8)"
        for L in range(5):
            for n in range(6):
                brute = sum(1 for _ in itertools.combinations_with_replacement(
                    range(L), n)) if L > 0 or n == 0 else 0
                if pt.multi_atom_iterate_count(L, n) != brute:
                    return False, f"chain count off at L={L}, n={n}"
        times = [1 / 6, 1 / 2, 5 / 6]
        op = pt.MultiAtomOperator(g, times, 1.0, 0.0)
        # Chapman-Kolmogorov: a row of K less its identity block sums to
        # the number of later atoms, on the operator's own quadrature
        later = np.repeat(np.arange(len(times))[::-1], len(op.z_grid))
        rows = np.sum(op.K.entries - np.eye(op.K.n), axis=1)
        ck = float(np.max(np.abs(rows - later)))
        if ck > 1e-8:
            return False, f"transfer rows miss their atom counts by {ck:.2e}"
        worst = 0.0
        for s, L in ((0.05, 3), (0.4, 2), (0.7, 1), (0.95, 0)):
            r = op.series_at(0.5, s, 0.3)
            target = pt.multi_atom_series_factor(0.5, L)
            worst = max(worst, abs(r.ratio - target) / target)
        ok = worst <= 1e-3
        return ok, (f"factors: single-atom err {e1:.1e}, p2 = {p2:.1e}, "
                    f"transfer rows {ck:.1e}, multi-atom err {worst:.1e}")
    return _timed(5, "atom-oracles", run)


# -- 6: bound attainment by one atom per interval ---------------------------

SHARPNESS_TIMES = (1 / 6, 1 / 2, 5 / 6)


def sharpness_problem(op, eta):
    """eta K of the atom operator op as a finite-state problem, f = 1:
    slice j is the grid block of the j-th atom from the target, and A_j,
    the last j blocks, is absorbing (K maps a block only to itself and
    to later atoms)."""
    n = op.K.n
    block = n // len(op.times)
    chain = mk.AbsorbingChain(tuple(
        mk.StateSet(np.arange(n) >= n - j * block)
        for j in range(1, len(op.times) + 1)))
    return bnd.MatrixSliceProblem(mk.MatrixKernel(eta * op.K.entries),
                                  np.ones(n), chain)


def criterion_sharpness(seed: int = 7):
    def run():
        g = st.gaussian_kernel(1)
        eta = 0.5
        intervals = bnd.time_uniform_slices(0.0, 1.0, 1 / 3)
        op = pt.MultiAtomOperator(g, SHARPNESS_TIMES, 1.0, 0.0)
        worst = 0.0
        for j, I in enumerate(intervals, start=1):
            # sample left of the slice's atom, where the count equals j
            s = I.lo + 0.1 * I.length
            for x in (-0.4, 0.2):
                r = op.series_at(eta, s, x)
                target = 2.0 ** j
                worst = max(worst, abs(r.ratio - target) / target)
        if worst > 1e-3:
            return False, f"attainment error {worst:.2e} (tol 1e-3)"
        # exact sums: each ratio must meet its bound with no tolerance
        prob = sharpness_problem(op, eta)
        const = bnd.estimate_constants(prob)
        bad = [c for c in bnd.certify(prob, const.eta, const.beta)
               if c.status != "VALID" or c.measured_ratio > c.theorem_bound]
        if bad:
            return False, f"certificate {bad[0].status} on slice {bad[0].slice_index}"
        return True, f"ratio = 2^j attained (err {worst:.1e}); all certificates VALID"
    return _timed(6, "sharpness", run)


# -- 7: two-subordinator cone kernel ----------------------------------------

def criterion_cone_kernel(seed: int = 7):
    def run():
        chk = st.sample_3g(_rng(seed, 7), 100_000)
        if not (np.all(chk.lower_ok) and np.all(chk.upper_ok)
                and np.all(chk.product_upper_ok) and np.all(chk.product_lower_ok)):
            return False, "ratio left [1, 2 sqrt 2] on the random sample"
        mid = st.check_3g(0.0, 0.0, 0.5, 0.5, 1.0, 1.0)
        if abs(float(mid.ratio) - st.TWO_SQRT2) > 1e-9:
            return False, f"midpoint ratio {float(mid.ratio)!r}"

        # h-scaling of the slice integral against the closed exponent: the
        # integrand g over {u, z > 0, u + z < h} depends on xi = u + z only,
        # so its level lines (length xi) collapse it to int_0^h xi g(xi)
        exps = {}
        for p in (0.1, 0.25):
            def f(xi, _p=p):
                xi = np.maximum(xi, 1e-300)
                return xi * (xi ** -1.5 + (2.0 - xi) ** -1.5) * xi ** -_p
            spec = QuadratureSpec(rel_tol=1e-7, power=min(0.5 + p, 0.9))
            vals = {h: integrate_1d(f, 0.0, h, spec).value
                    for h in (0.1, 0.05)}
            exps[p] = math.log2(vals[0.1] / vals[0.05])
            if abs(exps[p] - (0.5 - p)) > 0.02 * (0.5 - p):
                return False, f"measured exponent {exps[p]:.4f} vs {0.5 - p}"

        # measured slice constants never exceed the closed-form constant
        prob = pt.KappaSliceProblem(0.05, 0.1, 1.0, 1.0)
        const = bnd.estimate_constants(prob, _rng(seed, 77), n_samples=12)
        if max(const.per_slice_eta) > prob.analytic_eta:
            return False, (f"measured eta {max(const.per_slice_eta):.4g} "
                           f"exceeds {prob.analytic_eta:.4g}")
        return True, (f"3G on {chk.ratio.size} tuples; exponents "
                      + ", ".join(f"{p}:{exps[p]:.3f}" for p in exps)
                      + f"; eta {max(const.per_slice_eta):.3f}"
                        f" <= {prob.analytic_eta:.3f}")
    return _timed(7, "3g-cone-kernel", run)


# -- 8: analysis residuals ---------------------------------------------------

def criterion_residuals(seed: int = 7):
    def run():
        rng = _rng(seed, 8)
        worst_g = worst_c = 0.0
        for _ in range(50):
            s, u, t = np.sort(rng.uniform(0.0, 1.5, 3))
            if t - s < 1e-3 or u - s < 1e-4 or t - u < 1e-4:
                continue
            x, z, y = rng.uniform(-2.0, 2.0, 3)
            worst_g = max(worst_g, st.check_chapman_kolmogorov(
                st.gaussian_kernel(1), s, x, u, t, y).residual)
            worst_c = max(worst_c, st.check_chapman_kolmogorov(
                st.cauchy_kernel(1), s, x, u, t, y).residual)
        if worst_g > 1e-6:
            return False, f"gaussian composition residual {worst_g:.2e}"
        if worst_c > 1e-5:
            return False, f"cauchy composition residual {worst_c:.2e}"
        worst_w = max(abs(st.weyl_half_derivative(
            lambda v: np.exp(-v), float(xx), dphi=lambda v: -np.exp(-v))
            + math.exp(-xx)) for xx in np.linspace(0.0, 5.0, 26))
        if worst_w > 1e-6:
            return False, f"half-derivative error {worst_w:.2e}"
        bump = st.Bump1D(1.5, 0.5)
        res = max(st.left_inverse_residual(s, x, bump, bump)[0]
                  for s, x in ((0.0, 0.0), (1.2, 1.3)))
        if res > 5e-3:
            return False, f"left-inverse residual {res:.2e}"
        # the perturbed kernel against its generator, q varying in space
        q = CornerPowerDensity(0.05, 0.25)
        res_q = max(st.left_inverse_residual(s, x, bump, bump, q=q)[0]
                    for s, x in ((0.0, 0.0), (1.2, 1.3)))
        if res_q > 1e-2:
            return False, f"perturbed left-inverse residual {res_q:.2e}"
        return True, (f"composition {worst_g:.1e}/{worst_c:.1e}, "
                      f"half-derivative {worst_w:.1e}, left-inverse "
                      f"{res:.1e}, perturbed {res_q:.1e}")
    return _timed(8, "residuals", run)


# -- 9: window modulus and window-bound certificates ------------------------

def criterion_kato(seed: int = 7):
    def run():
        cauchy = st.cauchy_kernel(1)
        mu = PerturbingMeasure(ConstDensity(1.0))
        k = st.kato_profile(cauchy, mu, [1.0, 0.5, 0.1], n_samples=10,
                            seed=seed)
        worst = max(abs(k[h] - 2.0 * h) for h in (0.1, 0.5, 1.0))
        if worst > 1e-4:
            return False, f"modulus misses 2h by {worst:.2e}"
        cauchy2 = st.cauchy_kernel(2)
        mu2 = PerturbingMeasure(PowerLawSpaceDensity(0.5, dim=2))
        prof = st.kato_profile(cauchy2, mu2, [1.0, 0.5, 0.25, 0.125],
                               n_samples=16, seed=seed)
        vals = [prof[h] for h in (1.0, 0.5, 0.25, 0.125)]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            return False, f"profile not decreasing: {vals}"
        # sup at x = y = 0, t = h: C sqrt(h), C = 2 c_2 2**(a/2) Gamma((1+a)/2)
        # / (sqrt(pi) (1-a)), c_2 = 2**(-a/2) Gamma((2-a)/2) and a = 1/2
        corner = 4.0 * math.gamma(0.75) ** 2 / math.sqrt(math.pi)
        miss = max(abs(v / (corner * math.sqrt(h)) - 1.0)
                   for h, v in zip((1.0, 0.5, 0.25, 0.125), vals))
        if miss > 1e-5:
            return False, f"profile misses C sqrt(h) by {miss:.2e}"
        c3p = st.scan_3p_constant(seed)
        h = 0.1
        eta = c3p * k[h]
        pts = np.stack([np.linspace(0.3, 0.9, 10),
                        np.linspace(-0.5, 0.5, 10)], axis=1)
        certs = pt.kato_certify(cauchy, mu, h, eta, 1.0, 0.0, pts)
        bad = [c for c in certs if c.status != "VALID"]
        if bad:
            return False, f"window certificate {bad[0].status}"
        return True, (f"modulus = 2h +- {worst:.1e}; profile "
                      + "->".join(f"{v:.2f}" for v in vals)
                      + f"; 10 window certificates VALID (eta={eta:.3f})")
    return _timed(9, "kato", run)


# -- 10: determinism ----------------------------------------------------------

def reproduce_artifacts(seed: int):
    """Deterministic artifact bundle: the byte stream the reproducibility
    check compares across runs (also written to disk by the CLI)."""
    from kpert import cli

    buf = io.StringIO()
    g = st.gaussian_kernel(1)
    mu = PerturbingMeasure(ConstDensity(0.25))
    xs = np.linspace(-1.0, 1.0, 7)
    res = pt.series_batch(g, mu, np.zeros(7), xs, 1.0, 0.0, quad_tol=1e-4)
    buf.write(cli.series_csv(np.zeros(7), xs, res))
    K, sets, f = mk.load_discrete_problem(cli.fixture_path("discrete_eta05.json"))
    chain = mk.AbsorbingChain(tuple(sets[n] for n in ("A1", "A2", "A3")))
    prob = bnd.MatrixSliceProblem(K, f, chain)
    const = bnd.estimate_constants(prob)
    certs = bnd.certify(prob, const.eta, const.beta)
    buf.write(json.dumps([c.to_dict() for c in certs], indent=2,
                         sort_keys=True))
    chk = st.sample_3g(_rng(seed, 10), 200)
    buf.write(f"\n3g ratio range: {float(np.min(chk.ratio))!r}"
              f" .. {float(np.max(chk.ratio))!r}\n")
    return buf.getvalue()


def criterion_determinism(seed: int = 7):
    def run():
        a = reproduce_artifacts(seed)
        b = reproduce_artifacts(seed)
        if a != b:
            return False, "artifact bytes differ between runs"
        return True, f"{len(a)} artifact bytes identical across two runs"
    return _timed(10, "determinism", run)


ALL_CRITERIA = [
    ("identities", criterion_identities),
    ("decay", criterion_decay),
    ("soundness", criterion_soundness),
    ("atomless-oracle", criterion_atomless_oracle),
    ("atom-oracles", criterion_atom_oracles),
    ("sharpness", criterion_sharpness),
    ("3g-cone-kernel", criterion_cone_kernel),
    ("residuals", criterion_residuals),
    ("kato", criterion_kato),
    ("determinism", criterion_determinism),
]


def run_all(seed: int = 7, only: str | None = None):
    results = []
    for name, fn in ALL_CRITERIA:
        if only and only not in name:
            continue
        results.append(fn(seed))
    return results
