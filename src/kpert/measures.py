"""Perturbing measures on space-time.

A measure splits into a density part q(u, z), integrated against
du x dm(z), and an atomic-in-time part sum_i eta_i * delta_{u_i} (x) m.
Either part may be restricted to a half-open time interval [lo, hi);
restriction zeroes the density outside the interval and drops atoms
whose times fall outside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kpert.bounds import Interval

FULL_LINE = Interval(-np.inf, np.inf)


@dataclass(frozen=True)
class Atom:
    time: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError(f"atom time must be finite, got {self.time!r}")
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"atom weights must be positive and finite, "
                             f"got {self.weight!r}")


@dataclass(frozen=True)
class PerturbingMeasure:
    density: object = None          # callable q(u, z) -> nonneg, or None
    atoms: tuple = ()
    time_support: Interval = FULL_LINE

    def __post_init__(self):
        atoms = tuple(self.atoms)
        times = [a.time for a in atoms]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")
        object.__setattr__(self, "atoms", atoms)

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms

    def q(self, u, z):
        """Density part gated by the time support (0 outside).

        u and z broadcast; the support gate is evaluated on u's shape (z
        may add a trailing spatial axis in dimension >= 2).  Without a
        density part the result is zeros of u's shape.
        """
        u = np.asarray(u, dtype=float)
        if self.density is None:
            return np.zeros(u.shape)
        vals = np.asarray(self.density(u, np.asarray(z, dtype=float)),
                          dtype=float)
        inside = self.time_support.contains(u)
        return vals if inside.all() else np.where(inside, vals, 0.0)

    def active_atoms(self):
        return tuple(a for a in self.atoms
                     if bool(self.time_support.contains(a.time)))


def restrict_measure(mu: PerturbingMeasure, interval: Interval) -> PerturbingMeasure:
    """Restrict both parts to interval x (space); idempotent."""
    lo = max(mu.time_support.lo, interval.lo)
    hi = min(mu.time_support.hi, interval.hi)
    support = Interval(lo, hi) if lo <= hi else Interval(0.0, 0.0)
    atoms = tuple(a for a in mu.atoms if bool(support.contains(a.time)))
    return PerturbingMeasure(mu.density, atoms, support)


# Density convention: q(u, z) with u of shape S and z of shape S (dim 1)
# or S + (dim,) (dim >= 2); the result has shape S.

@dataclass(frozen=True)
class ConstDensity:
    """q(u, z) = lam everywhere (Lebesgue-in-time x Lebesgue-in-space)."""

    lam: float
    dim: int = 1

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"density lambda must be finite and >= 0, "
                             f"got {self.lam!r}")

    def __call__(self, u, z):
        z = np.asarray(z, dtype=float)
        zs = z[..., 0] if self.dim > 1 else z
        shape = np.broadcast(np.asarray(u, dtype=float), zs).shape
        return np.full(shape, float(self.lam))


@dataclass(frozen=True)
class PowerLawSpaceDensity:
    """q(u, z) = |z|**(-1+eps); Kato-class for small time windows."""

    eps: float
    dim: int = 1

    def __post_init__(self):
        if not math.isfinite(self.eps):
            raise ValueError(f"density eps must be finite, got {self.eps!r}")
        if not self.eps > 1 - self.dim:
            raise ValueError(f"density eps must exceed 1 - d = {1 - self.dim}, "
                             f"where |z|**(eps-1) is locally integrable, "
                             f"got {self.eps!r}")

    def __call__(self, u, z):
        z = np.asarray(z, dtype=float)
        if self.dim > 1:
            r = np.sqrt(np.sum(z * z, axis=-1))
        else:
            r = np.abs(z)
        r = np.where(r > 0, r, np.inf)
        out = r ** (self.eps - 1.0)
        shape = np.broadcast(np.asarray(u, dtype=float), out).shape
        return np.broadcast_to(out, shape).copy()


@dataclass(frozen=True)
class CornerPowerDensity:
    """q(u, z) = c (u + z)**(-p) on the positive quadrant, else 0."""

    c: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError("exponent must lie in (0, 1/2)")
        if not 0.0 < self.c < math.inf:
            raise ValueError("coefficient must be positive and finite")

    def __call__(self, u, z):
        u = np.asarray(u, dtype=float)
        z = np.asarray(z, dtype=float)
        ok = (u > 0) & (z > 0)
        s = np.where(ok, u + z, 1.0)
        return np.where(ok, self.c * s ** (-self.p), 0.0)


def measure_from_config(doc: dict) -> PerturbingMeasure:
    """Build a measure from the config JSON fragment.

    {"density": {"kind": "const", "lambda": ..} | {"kind": "q0", "c": ..,
    "p": ..} | {"kind": "power", "eps": ..}, "atoms": [{"u": .., "eta": ..}],
    "support": [a, b]}
    """
    density = None
    dd = doc.get("density")
    if dd:
        kind = dd.get("kind")
        dim = int(dd.get("dim", 1))
        if kind == "const":
            density = ConstDensity(float(dd["lambda"]), dim)
        elif kind == "q0":
            density = CornerPowerDensity(float(dd["c"]), float(dd["p"]))
        elif kind == "power":
            density = PowerLawSpaceDensity(float(dd["eps"]), dim)
        else:
            raise ValueError(f"unknown density kind {kind!r}")
    atoms = tuple(Atom(float(a["u"]), float(a["eta"]))
                  for a in doc.get("atoms", []))
    support = FULL_LINE
    if "support" in doc:
        lo, hi = (float(v) for v in doc["support"])
        if not lo < hi:
            raise ValueError(f"support [lo, hi] needs lo < hi, got "
                             f"{doc['support']!r}")
        support = Interval(lo, hi)
    return PerturbingMeasure(density, atoms, support)
