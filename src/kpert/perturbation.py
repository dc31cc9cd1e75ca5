"""Perturbation of a kernel by a measure: the term recursion and series.

For a base density p and measure mu (density part q(u,z) du dz plus
atoms eta_i at times u_i, acting through the spatial reference measure),
the terms are p_0 = p and

    p_n(s,x,t,y) = int p_{n-1}(s,x,u,z) p(u,z,t,y) dmu(u,z),

every term vanishing for s >= t.  The series sum_n p_n is the perturbed
density.

Numerics: everything runs in ratio form r_n = p_n / p, which strips the
moving singularity of p out of interpolation.  Ratios live on a
per-panel grid (panels split at atom times and support endpoints, where
ratios jump; a panel ending at an atom holds the left limit there, the
atom still ahead); each level is one pass of nested fixed rules, with the
spatial rule recentered and rescaled on the narrower kernel factor (tan
substitution, exact for a Cauchy peak) so end-of-interval bridges stay
resolved; an atom term, one spatial integral, gets a finer rule.  A
level is evaluated one grid row (one source time) per numpy broadcast:
the time rule is shared along the row, and each node still reduces on
its own, so the values match node-by-node evaluation bit for bit.  At
the time nodes (and atoms) whose spatial rule sits on the target, the
nodes, weights and every factor but p(u0, z0, v, z') do not depend on
the source node z0, so they are evaluated once per row and broadcast
over it.  Every bridge factor is evaluated only along the axes it varies
on: the kernels and q take the time nodes as a column v[:, None] and
broadcast it against the spatial nodes, so dt, the kernels' time powers
and the support gate are computed once per time column, and the
integrand product is formed in place on the first kernel factor, in the
order (((p1 p2) q) r) w; a level-1 bridge skips the factor r_0 = 1.  All
of it has the bits of operands materialised at the full shape.

Row n + 1 is the only reader of grid level n, which is built only once
that row is due; it reads the level through one interpolating cubic
spline per panel (not-a-knot on both axes, in numpy), whose time weights
are evaluated once per time column of the bridge rule.  Every measure,
atoms included, takes this one path (an atom level reads the previous
one only at later atoms, so a single atom kills every term past the
first), and the error estimate is the relative difference of the sums
at two resolutions.  The slice problems build that engine pair once and
reuse it for every batch of sample points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from kpert import bounds as bnd
from kpert import matrix_kernels as mk
from kpert import spacetime as st
from kpert.errors import CertificationError, DomainError, PreconditionError
from kpert.measures import (CornerPowerDensity, Interval, PerturbingMeasure,
                            restrict_measure)
from kpert.quadrature import Halton, gauss_legendre_rule, peak_rule


@dataclass
class SeriesResult:
    value: float
    terms: tuple
    truncation_index: int
    tail_estimate: float
    quad_error_estimate: float
    status: str                  # converged | truncated
    control: float = 0.0         # base density at the evaluation point

    @property
    def ratio(self) -> float:
        return self.value / self.control if self.control > 0 else \
            (0.0 if self.value == 0.0 else math.inf)


def _not_a_knot_pieces(x):
    """Cardinal not-a-knot cubic splines on the nodes x (at least four):
    c[k, p, b] is the coefficient of (xi - x[k])**p on [x[k], x[k+1]] of
    the spline that is 1 at x[b] and 0 at the other nodes.

    The slopes at the nodes solve one dense system for every b at once:
    C2 continuity at the interior nodes, and a continuous third
    derivative at x[1] and x[n-2] (C. de Boor, A Practical Guide to
    Splines, ch. IV).  Each piece is then the cubic Hermite interpolant
    of its end values and slopes."""
    n = len(x)
    h = np.diff(x)
    eye = np.eye(n)
    delta = (eye[1:] - eye[:-1]) / h[:, None]       # chord slopes
    a = np.zeros((n, n))
    rhs = np.empty((n, n))
    i = np.arange(1, n - 1)
    a[i, i - 1] = h[1:]
    a[i, i] = 2.0 * (h[:-1] + h[1:])
    a[i, i + 1] = h[:-1]
    rhs[1:-1] = 3.0 * (h[1:, None] * delta[:-1] + h[:-1, None] * delta[1:])
    d = x[2] - x[0]
    a[0, :2] = h[1], d
    rhs[0] = ((h[0] + 2.0 * d) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d
    d = x[-1] - x[-3]
    a[-1, -2:] = d, h[-2]
    rhs[-1] = (h[-1] ** 2 * delta[-2]
               + (2.0 * d + h[-1]) * h[-2] * delta[-1]) / d
    slope = np.linalg.solve(a, rhs)
    c = np.empty((n - 1, 4, n))
    c[:, 0] = eye[:-1]
    c[:, 1] = slope[:-1]
    c[:, 2] = (3.0 * delta - 2.0 * slope[:-1] - slope[1:]) / h[:, None]
    c[:, 3] = (slope[:-1] + slope[1:] - 2.0 * delta) / h[:, None] ** 2
    return c


class RectBivariateSpline:
    """Interpolating cubic tensor spline on a grid x (times) by y (uniform
    space nodes), not-a-knot on each axis: the interpolant fitpack builds
    for s = 0.

    The space operator is applied to the grid values once, at build:
    each row of values becomes a table of cubic pieces in y.  A lookup
    weights those tables by the time splines at each column's time,
    then evaluates each point on its piece by Horner's rule.
    """

    def __init__(self, x, y, z):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self._x_pieces = _not_a_knot_pieces(self.x)
        ny = len(self.y)
        y_pieces = _not_a_knot_pieces(self.y).reshape(4 * (ny - 1), ny)
        self._rows = np.asarray(z, dtype=float) @ y_pieces.T
        self._inv_dy = (ny - 1) / (self.y[-1] - self.y[0])

    def __call__(self, x, y):
        """Values at the points y[..., c, :] of column c, all at time x[c]
        (x of shape (ncols,)); points off the grid are clamped to it, as
        fitpack clamps them."""
        xs, ys = self.x, self.y
        x = np.clip(x, xs[0], xs[-1])
        k = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        dx = (x - xs[k])[:, None]
        c = self._x_pieces[k]
        w = ((c[:, 3] * dx + c[:, 2]) * dx + c[:, 1]) * dx + c[:, 0]
        # one column's pieces per matmul, so a column's values do not
        # depend on which other columns share the call
        pieces = (w[:, None, :] @ self._rows).reshape(-1, 4).T.copy()
        d = np.clip(y, ys[0], ys[-1])
        k = d - ys[0]
        k *= self._inv_dy
        k = k.astype(np.intp)
        np.minimum(k, len(ys) - 2, out=k)
        d -= ys.take(k)
        k += (np.arange(len(x)) * (len(ys) - 1))[:, None]
        c0, c1, c2, c3 = pieces
        out = c3.take(k)
        out *= d
        out += c2.take(k)
        out *= d
        out += c1.take(k)
        out *= d
        out += c0.take(k)
        return out


class SeriesEngine:
    """Grid-backed evaluator of the term ratios r_n = p_n / p for a fixed
    target (t, y).

    Built once per slice problem; levels are built lazily, so call order
    does not change values.  ``ratios`` evaluates the whole term sequence
    at arbitrary source points with s >= s_min.  Engines run in pairs at
    two resolutions, whose difference is the quadrature error estimate.
    """

    def __init__(self, kernel, mu: PerturbingMeasure, t, y, s_min, x_range,
                 resolution: float, quad_tol: float = 1e-4,
                 max_terms: int = 14):
        if s_min >= t:
            raise ValueError("need s_min < t")
        self.kernel = kernel
        self.mu = mu
        self.t = float(t)
        self.y = float(y)
        self.s_min = float(s_min)
        self.quad_tol = quad_tol
        self.max_terms = max_terms
        self.kind = getattr(kernel, "kind", "peak")

        r = resolution
        self.grid_t = max(7, int(round(11 * r)))
        self.grid_z = max(9, int(round(15 * r)))
        self.nodes_t = max(8, int(round(14 * r)))
        self.nodes_z = max(12, int(round(28 * r)))
        self.nodes_atom = int(round(40 * r))
        # unit peak rules, tan(theta) and w / cos(theta)**2; an atom term
        # is one spatial integral and affords more nodes
        self._rule = peak_rule(0.0, 1.0, self.nodes_z // 2)
        self._atom_rule = peak_rule(0.0, 1.0, self.nodes_atom // 2)
        self._gl_t = gauss_legendre_rule(0.0, 1.0, self.nodes_t)
        self._gl_half = gauss_legendre_rule(0.0, 1.0, max(self.nodes_z // 2, 6))

        # panels: ratio jumps live at atom times and support endpoints
        cuts = {self.s_min, self.t}
        supp = mu.time_support
        for edge in (supp.lo, supp.hi):
            if self.s_min < edge < self.t:
                cuts.add(float(edge))
        for a in mu.atoms:
            if self.s_min < a.time < self.t:
                cuts.add(float(a.time))
        edges = sorted(cuts)
        self.panels = list(zip(edges[:-1], edges[1:]))
        self._panel_los = np.array(edges[:-1])
        self.segments = []
        if mu.density is not None:
            for lo, hi in self.panels:
                lo2, hi2 = max(lo, supp.lo), min(hi, supp.hi)
                if hi2 > lo2:
                    self.segments.append((lo2, hi2))

        # spatial window for the ratio grid
        if self.kind == "cone":
            z_lo = min(x_range[0], 0.0)
            z_hi = self.y
        else:
            pad = 4.0 * float(kernel.peak_scale(self.t - self.s_min)) + 1.0
            z_lo = min(x_range[0], self.y) - pad
            z_hi = max(x_range[1], self.y) + pad
        if not z_hi > z_lo:
            z_hi = z_lo + 1.0
        self.z_nodes = np.linspace(z_lo, z_hi, self.grid_z)
        self._panel_rows = None    # per panel: time nodes, row times, p there
        self._splines = None       # per level: list over panels
        self._grid_sups = None

    # -- rules ------------------------------------------------------------

    def _bridge(self, u0, z0, v, atom=False):
        """Spatial nodes/weights for the z' integral at intermediate times v,
        as (cols, zp, wp) groups over the columns cols of v: zp has shape
        (len(z0), ncols, n), or (1, ncols, n) where it does not depend on
        the source node z0, and wp broadcasts to it.  The rule is centered
        on the narrower of the two kernel factors, with the finer unit rule
        at an atom; time nodes whose rule sits on the target (t, y) form the
        z0-free group.  Cone rules need z0 < y, which holds wherever
        p(u0, z0, t, y) > 0."""
        if self.kind == "cone":
            xi, w = self._gl_half
            zm = 0.5 * (z0 + self.y)
            half = (zm - z0)[:, None]
            left = z0[:, None] + half * xi ** 2
            wl = w * 2.0 * half * xi
            right = self.y - half * xi[::-1] ** 2
            wr = (w * 2.0 * half * xi)[:, ::-1]
            zp = np.concatenate([left, right], axis=1)
            wp = np.concatenate([wl, wr], axis=1)
            shape = (len(z0), len(v), zp.shape[1])
            return [(slice(None), np.broadcast_to(zp[:, None, :], shape),
                     wp[:, None, :])]
        s1 = np.asarray(self.kernel.peak_scale(v - u0), dtype=float)
        s2 = np.asarray(self.kernel.peak_scale(self.t - v), dtype=float)
        use1 = s1 <= s2
        scale = np.maximum(np.where(use1, s1, s2), 1e-300)
        tan, tan_w = self._atom_rule if atom else self._rule
        groups = []
        for cols, center in ((use1, z0[:, None, None]),
                             (~use1, np.full((1, 1, 1), self.y))):
            if np.any(cols):
                groups.append((cols, center + scale[cols][:, None] * tan,
                               scale[cols][:, None] * tan_w))
        return groups

    def _time_nodes(self, lo, hi, u0):
        """Rule for the v integral on (lo, hi); cone kernels get quadratic
        clustering at v = u0 where the cross-section mass blows like
        (v - u0)^{-1/2}."""
        xi, w = self._gl_t
        if self.kind == "cone" and lo <= u0 + 1e-300:
            v = u0 + (hi - u0) * xi ** 2
            dv = w * 2.0 * (hi - u0) * xi
        else:
            v = lo + (hi - lo) * xi
            dv = w * (hi - lo)
        return v, dv

    # -- level evaluation ---------------------------------------------------

    def _lookup(self, splines, v, zp):
        """Evaluate the previous level's ratio at (v[c], z'), z' the nodes
        zp[..., c, :] of column c, routing each column to its panel.  The
        spline clamps z' to the grid: ratios flatten off-window."""
        idx = np.searchsorted(self._panel_los, v, side="right") - 1
        idx = np.clip(idx, 0, len(self.panels) - 1)
        out = np.empty(zp.shape)
        for i, spl in enumerate(splines):
            m = idx == i
            if m.all():
                return spl(v, zp)
            if m.any():
                out[..., m, :] = spl(v[m], zp[..., m, :])
        return out

    def _bridge_sums(self, u0, z0, v, splines, atom=False):
        """Inner sums over z' of p(u0, z0, v, z') p(v, z', t, y) q(v, z')
        r_{n-1}(v, z') w, shape (len(z0), len(v)); an atom term has no q,
        and level 1 (splines None) no r_0 = 1.  On a z0-free group of the
        bridge rule, every factor but the first is evaluated once for the
        whole row and broadcast over z0.  The time operand is the column
        v[cols, None], so time-only factors are evaluated once per column,
        and the product is formed in place on p(u0, z0, v, z') in the order
        (((p1 p2) q) r) w."""
        inner = np.empty((len(z0), len(v)))
        zc = z0[:, None, None]
        for cols, zp, wp in self._bridge(u0, z0, v, atom):
            vc = v[cols, None]
            prod = self.kernel(u0, zc, vc, zp)
            prod *= self.kernel(vc, zp, self.t, self.y)
            if not atom:
                prod *= self.mu.q(vc, zp)
            if splines is not None:
                prod *= self._lookup(splines, v[cols], zp)
            prod *= wp
            inner[:, cols] = np.sum(prod, axis=-1)
        return inner

    def _row_values(self, u0, z0, f0, splines):
        """One application of the measure-weighted kernel to r_{n-1} p at
        the nodes (u0, z0[k]), divided by f0[k] = p(u0, z0[k], t, y).

        u0 is one time, so the time rules are shared by the row and every
        node's integrand is one slice of a broadcast.  Each node reduces
        as a lone node would (sum over z', then dv @ row), so a row gives
        the same bits as its nodes one at a time."""
        out = np.zeros(len(z0))
        live = f0 > 0
        if u0 >= self.t or not np.any(live):
            return out
        z0, f0 = z0[live], f0[live]
        total = np.zeros(len(z0))
        for lo, hi in self.segments:
            if hi <= u0:
                continue
            v, dv = self._time_nodes(max(lo, u0), hi, u0)
            inner = self._bridge_sums(u0, z0, v, splines)
            total += [float(dv @ row) for row in inner]
        for atom in self.mu.active_atoms():
            if u0 < atom.time < self.t:
                inner = self._bridge_sums(u0, z0, np.array([atom.time]),
                                          splines, atom=True)
                total += atom.weight * inner[:, 0]
        out[live] = total / f0
        return out

    def _grid_level(self, splines):
        new_splines = []
        sup = 0.0
        if self._panel_rows is None:     # p at the nodes: the same each level
            self._panel_rows = []
            atom_times = {a.time for a in self.mu.active_atoms()}
            for lo, hi in self.panels:
                u_nodes = np.linspace(lo, hi, self.grid_t)
                # a panel ending at an atom holds the left limit there, the
                # atom still ahead (a cone kernel's limit is infinite)
                u_rows = u_nodes.copy()
                if hi in atom_times and self.kind != "cone":
                    u_rows[-1] = np.nextafter(hi, -np.inf)
                self._panel_rows.append((u_nodes, u_rows, np.asarray(
                    self.kernel(u_rows[:, None], self.z_nodes, self.t,
                                self.y), dtype=float)))
        for u_nodes, u_rows, f0 in self._panel_rows:
            vals = np.empty((self.grid_t, self.grid_z))
            for i, ui in enumerate(u_rows):
                vals[i] = self._row_values(ui, self.z_nodes, f0[i], splines)
            sup = max(sup, float(np.max(vals)))
            new_splines.append(RectBivariateSpline(u_nodes, self.z_nodes,
                                                   vals))
        return new_splines, sup

    def ratios(self, s_pts, x_pts):
        """Term-ratio matrix of shape (levels+1, n_points); row n holds
        r_n = p_n / p at the requested source points."""
        s_pts = np.atleast_1d(np.asarray(s_pts, dtype=float))
        x_pts = np.atleast_1d(np.asarray(x_pts, dtype=float))
        f0 = np.asarray(self.kernel(s_pts, x_pts, self.t, self.y), dtype=float)
        alive = f0 > 0
        rows = [np.where(alive, 1.0, 0.0)]
        if self.mu.is_zero:
            return np.array(rows)
        if self._splines is None:
            self._splines = [None]
            self._grid_sups = [1.0]
        live = np.flatnonzero(alive)
        for level in range(1, self.max_terms + 1):
            prev = self._splines[level - 1]
            row = np.zeros(len(s_pts))
            for i in live:
                row[i] = self._row_values(s_pts[i], x_pts[i:i + 1],
                                          f0[i:i + 1], prev)[0]
            rows.append(row)
            if level == self.max_terms:
                break
            partial = np.sum(rows, axis=0)
            if np.all(row <= self.quad_tol * np.maximum(partial, 1e-300)):
                break
            # level n on the grid is read by row n + 1 only, so it is built
            # here, once that row is due; its sup says whether any later
            # row can matter
            if level >= len(self._splines):
                spl, sup = self._grid_level(self._splines[-1])
                self._splines.append(spl)
                self._grid_sups.append(sup)
            if self._grid_sups[level] <= self.quad_tol * 1e-3:
                break
        return np.array(rows)


# ---------------------------------------------------------------------------
# Public term / series interface
# ---------------------------------------------------------------------------

def _verdict(terms, quad_tol, max_terms):
    """converged or truncated, never diverging: terms like lambda^n / n!
    grow for lambda steps, and the engine cannot tell them apart."""
    n = len(terms) - 1
    partial = float(np.sum(terms))
    last = float(terms[-1]) if n >= 1 else 0.0
    if n < max_terms or last <= quad_tol * max(partial, 1e-300):
        # geometric tail extrapolation from the last two terms
        tail = 0.0
        if n >= 2 and terms[-2] > 0:
            rho = min(terms[-1] / terms[-2], 0.9)
            tail = last * rho / (1.0 - rho)
        return "converged", tail
    return "truncated", last


def series_batch(kernel, mu: PerturbingMeasure, s_pts, x_pts, t, y,
                 quad_tol: float = 1e-4, max_terms: int = 14):
    """Series at many source points sharing one engine (and its refined
    rerun, which supplies the per-point quadrature error estimate), on
    the window the points span."""
    s_pts = np.atleast_1d(np.asarray(s_pts, dtype=float))
    x_pts = np.atleast_1d(np.asarray(x_pts, dtype=float))
    f0 = np.asarray(kernel(s_pts, x_pts, t, y), dtype=float)
    x_range = (float(np.min(x_pts)), float(np.max(x_pts)))
    engines = _engine_pair(kernel, mu, t, y, float(np.min(s_pts)), x_range,
                           quad_tol, max_terms)
    return _sum_rows(engines, s_pts, x_pts, f0, quad_tol, max_terms)


def _engine_pair(kernel, mu, t, y, s_min, x_range, quad_tol, max_terms):
    """Engines at resolutions 1.0 and 1.6; the refined one supplies the
    terms and the difference the quadrature error estimate."""
    return tuple(SeriesEngine(kernel, mu, t, y, s_min=min(s_min, t - 1e-9),
                              x_range=x_range, quad_tol=quad_tol,
                              max_terms=max_terms, resolution=r)
                 for r in (1.0, 1.6))


def _sum_rows(engines, s_pts, x_pts, f0, quad_tol, max_terms):
    """Series results at the points (base density f0 there) from an engine
    pair, fresh or reused: grid levels do not depend on the points."""
    lo, hi = engines
    rows_lo = lo.ratios(s_pts, x_pts)
    rows_hi = hi.ratios(s_pts, x_pts)
    n_lo, n_hi = rows_lo.shape[0], rows_hi.shape[0]
    n = min(n_lo, n_hi)
    sum_lo = np.sum(rows_lo[:n], axis=0)
    sum_hi = np.sum(rows_hi[:n], axis=0)
    err = np.abs(sum_hi - sum_lo) / np.maximum(np.abs(sum_hi), 1e-300)
    out = []
    for i in range(len(s_pts)):
        terms_ratio = rows_hi[:, i]
        status, tail = _verdict(terms_ratio, quad_tol, max_terms)
        terms = tuple(float(r) * float(f0[i]) for r in terms_ratio)
        out.append(SeriesResult(float(np.sum(terms)), terms,
                                len(terms) - 1, float(tail * f0[i]),
                                float(err[i]), status, float(f0[i])))
    return out


# ---------------------------------------------------------------------------
# Alternative atom operator (counts coincident times; nondecreasing chains)
# ---------------------------------------------------------------------------

def multi_atom_iterate_count(L: int, n: int) -> int:
    """Number of nondecreasing length-n chains from L usable atoms:
    binom(L + n - 1, n)."""
    if L < 0 or n < 0:
        raise ValueError("counts must be nonnegative")
    return math.comb(L + n - 1, n) if n > 0 else 1


def multi_atom_series_factor(eta: float, L: int) -> float:
    """Closed form (1 - eta)**(-L) of sum_n eta^n binom(L+n-1, n)."""
    if L < 0:
        raise ValueError("atom count must be nonnegative")
    if not 0.0 < eta < 1.0:
        if L == 0:
            return 1.0
        raise DomainError(f"eta={eta} outside (0, 1): the series explodes")
    return (1.0 - eta) ** (-L)


class MultiAtomOperator:
    """Iterates of K g(s,x) = rho({s}) g(s,x) +
    sum_{u_i > s} int p(s,x,u_i,z) g(u_i,z) dm(z) for rho a finite sum of
    unit atoms, applied to the control f = p(., ., t, y).

    Iterates are tracked in ratio form (K^n f) / f on per-atom grids (17
    nodes over [-4, 4] and y, padded by the kernel's reach), where they
    are flat in space (the exact recursion only counts
    nondecreasing atom chains), so linear interpolation between grid
    nodes is essentially exact and all quadrature error sits in the
    tan-substituted bridge rules.  On the stacked grids K is one matrix,
    assembled once: identity blocks on the diagonal (the rho({s}) term)
    and, above it, bridge transfers from each atom to every later one.
    A readout row takes grid values of g / f to (K g)(s, x) / f(s, x);
    iterates and the series are summed by ``matrix_kernels``.
    """

    def __init__(self, kernel, atom_times, t, y, n_nodes: int = 64):
        self.kernel = kernel
        self.times = sorted(float(u) for u in atom_times)
        if any(u >= t for u in self.times):
            raise ValueError("atoms must sit strictly before the target time")
        self.t = float(t)
        self.y = float(y)
        self.n_nodes = n_nodes
        pad = 2.0 * float(kernel.peak_scale(t - min(self.times))) + 0.5
        self.z_grid = np.linspace(min(-4.0, y) - pad, max(4.0, y) + pad, 17)
        G = len(self.z_grid)
        K = np.eye(len(self.times) * G)      # the rho({u_i}) blocks
        for i, u in enumerate(self.times):
            for j in range(i + 1, len(self.times)):
                K[i * G:(i + 1) * G, j * G:(j + 1) * G] = \
                    self._transfer(u, self.z_grid, j)
        self.K = mk.MatrixKernel(K)

    def _hat(self, z):
        """Linear interpolation on an atom grid (clamped at its ends, like
        np.interp) as weights: shape z.shape + (grid,)."""
        g = self.z_grid
        zc = np.clip(z, g[0], g[-1])[..., None]
        return np.maximum(0.0, 1.0 - np.abs(zc - g) / (g[1] - g[0]))

    def _transfer(self, u, z_arr, j):
        """Rows taking atom j's grid ratios to the bridge integral from
        (u, z) through atom j, in ratio space; the tan rule is centered on
        the narrower kernel factor."""
        v = self.times[j]
        s1 = float(self.kernel.peak_scale(v - u))
        s2 = float(self.kernel.peak_scale(self.t - v))
        z = np.asarray(z_arr, dtype=float)[:, None]
        center, scale = (z, s1) if s1 <= s2 else (self.y, s2)
        zp, wp = peak_rule(center, scale, self.n_nodes // 2)
        zp = np.broadcast_to(zp, (len(z), zp.shape[-1]))
        f0 = np.asarray(self.kernel(u, z, self.t, self.y), dtype=float)
        c = self.kernel(u, z, v, zp) * self.kernel(v, zp, self.t, self.y) * wp
        c = np.divide(c, f0, out=np.zeros_like(c), where=f0 > 0)
        return np.einsum("ak,akg->ag", c, self._hat(zp))

    def _readout(self, s, x):
        """Row taking the stacked grid ratios of g to (K g)(s, x) / f(s, x):
        the rho({s}) hat row at an atom time, bridges to later atoms."""
        G = len(self.z_grid)
        row = np.zeros(self.K.n)
        for j, u in enumerate(self.times):
            if u == s:
                row[j * G:(j + 1) * G] = self._hat(float(x))
            elif u > s:
                row[j * G:(j + 1) * G] = self._transfer(s, [x], j)[0]
        return row

    def iterate_ratio_at(self, n: int, s, x) -> float:
        """(K^n f)(s, x) / f(s, x)."""
        if n == 0:
            return 1.0
        g = np.ones(self.K.n)
        for _ in range(n - 1):
            g = mk.apply(self.K, g)
        return float(self._readout(s, x) @ g)

    def series_at(self, eta: float, s, x, tol: float = 1e-9) -> SeriesResult:
        """sum_n (eta K)^n f(s, x) = f (1 + eta R sum_m (eta K)^m 1), R the
        readout row; terms are f and the summed perturbation."""
        if not 0.0 < eta < 1.0:
            raise DomainError(f"eta={eta} outside (0, 1): the series explodes")
        f = float(self.kernel(s, x, self.t, self.y))
        if f <= 0:
            return SeriesResult(0.0, (0.0,), 0, 0.0, 0.0, "converged", 0.0)
        row = self._readout(s, x)
        res = mk.neumann_series(mk.MatrixKernel(eta * self.K.entries),
                                np.ones(self.K.n), max_terms=200,
                                tail_tol=tol)
        pert = eta * float(row @ res.value) * f
        tail = eta * float(np.sum(row)) * res.tail_estimate * f
        return SeriesResult(f + pert, (f, pert), res.n_terms, tail, 0.0,
                            res.status, f)


# ---------------------------------------------------------------------------
# Interval-sliced certification for space-time kernels
# ---------------------------------------------------------------------------

class _SliceProblem:
    """What the space-time slice problems share: the control
    p(., ., t, y) and the series adapter.  Subclasses set kernel, mu, t,
    y, quad_tol, max_terms and engine_window = (s_min, x_range)."""

    exact = False
    series_fn = None
    _engines = None

    def control(self, pts):
        return np.asarray(self.kernel(pts[:, 0], pts[:, 1], self.t, self.y),
                          dtype=float)

    def series(self, pts):
        """Series at the points from the caller's series_fn, else from the
        problem's one engine pair, built on first use."""
        if self.series_fn is not None:
            return self.series_fn(pts)
        if self._engines is None:
            s_min, x_range = self.engine_window
            self._engines = _engine_pair(self.kernel, self.mu, self.t, self.y,
                                         s_min, x_range, self.quad_tol,
                                         self.max_terms)
        res = _sum_rows(self._engines, pts[:, 0], pts[:, 1],
                        self.control(pts), self.quad_tol, self.max_terms)
        vals = np.array([r.value for r in res])
        status = "truncated" if any(r.status == "truncated" for r in res) \
            else "converged"
        rep = bnd.TruncationReport(max(r.truncation_index for r in res),
                                   status,
                                   max(r.tail_estimate for r in res),
                                   max(r.quad_error_estimate for r in res))
        return vals, rep


class TimeSliceProblem(_SliceProblem):
    """Slice problem over intervals I_1 (nearest the target time) through
    I_k partitioning [r, t): slice j is I_j x space, the sliced operator
    applies the measure restricted to I_j, and the series comes from the
    quadrature engine (or a caller-supplied engine).

    The sliced operator is read from one resolution-1.6 engine per
    restricted measure: level 1 needs no grid (r_0 = 1), so the engine
    evaluates p_1^{I_j} / p at any source point with s >= r."""

    def __init__(self, kernel, mu, r, t, y, intervals,
                 quad_tol: float = 1e-4, seed: int = 0, series_fn=None,
                 max_terms: int = 14):
        self.kernel = kernel
        self.mu = restrict_measure(mu, Interval(r, t))
        self.r = float(r)
        self.t = float(t)
        self.y = float(y)
        self.intervals = list(intervals)
        self.k = len(self.intervals)
        self.quad_tol = quad_tol
        self.seed = seed
        self.series_fn = series_fn
        self.max_terms = max_terms
        scale = float(kernel.peak_scale(self.t - self.r))
        self.x_box = (self.y - 2.0 * scale - 1.0, self.y + 2.0 * scale + 1.0)
        self.engine_window = (self.r, self.x_box)
        self._restricted = [restrict_measure(self.mu, I) for I in self.intervals]
        self._p1_engines = [SeriesEngine(kernel, mu_j, self.t, self.y,
                                         s_min=self.r, x_range=self.x_box,
                                         resolution=1.6)
                            for mu_j in self._restricted]

    def _sample(self, lo, hi, n, salt):
        eng = Halton(2, self.seed + salt)
        pts = eng.random(n)
        s = lo + (hi - lo) * pts[:, 0]
        x = self.x_box[0] + (self.x_box[1] - self.x_box[0]) * pts[:, 1]
        return np.stack([s, x], axis=1)

    def slice_points(self, j, rng=None, n=32):
        I = self.intervals[j - 1]
        return self._sample(I.lo, I.hi - 1e-9 * max(1.0, abs(I.hi)), n, j)

    def top_points(self, rng=None, n=32):
        return self._sample(self.r, self.t - 1e-6 * max(1.0, abs(self.t)), n, 977)

    def slice_apply(self, j, pts):
        """p_1^{I_j} at the points: the ratio from slice j's engine, one
        point at a time against the scalar p there, times p."""
        eng = self._p1_engines[j - 1]
        out = np.empty(len(pts))
        for i, (s, x) in enumerate(pts):
            f0 = float(self.kernel(s, x, self.t, self.y))
            out[i] = eng._row_values(float(s), np.array([float(x)]),
                                     np.array([f0]), None)[0]
        return out * self.control(pts)


class KappaSliceProblem(_SliceProblem):
    """Diagonal-slice problem for the cone kernel under the corner density
    c (u + z)**(-p): slices are level strips a_j <= u + z < a_{j-1} of
    width h below the target level t + y.

    The sliced operator collapses exactly to a one-dimensional level-line
    integral; the series uses the quadrature engine with the cone rules.
    Sample points live in [0, t) x [0, y) intersected with each strip.
    """

    def __init__(self, c, p_exp, t, y, h=None, eta_target: float = 0.5,
                 quad_tol: float = 5e-3, seed: int = 0, max_terms: int = 12):
        self.c = float(c)
        self.p_exp = float(p_exp)
        self.t = float(t)
        self.y = float(y)
        self.h = float(h) if h is not None else st.solve_h(c, p_exp, eta_target)
        self.levels, self.k = bnd.diagonal_levels(self.t, self.y, self.h)
        self.kernel = st.KAPPA
        self.mu = PerturbingMeasure(CornerPowerDensity(self.c, self.p_exp))
        self.quad_tol = quad_tol
        self.seed = seed
        self.max_terms = max_terms
        self.engine_window = (0.0, (0.0, self.y))
        self.analytic_eta = st.eta_for_kappa(self.c, self.p_exp, self.h)

    def _strip(self, j):
        return self.levels[j], self.levels[j - 1]   # (a_j, a_{j-1})

    def _sample_strip(self, a_lo, a_hi, n, salt):
        """Points of [0, t) x [0, y) with s + x in [a_lo, a_hi)."""
        eng = Halton(2, self.seed + salt)
        out = []
        guard = 0
        while len(out) < n and guard < 80:
            guard += 1
            for p0, p1 in eng.random(4 * n):
                s = p0 * self.t
                x = p1 * self.y
                if a_lo <= s + x < min(a_hi, self.t + self.y) and \
                        s < self.t and x < self.y:
                    out.append((s, x))
                    if len(out) == n:
                        break
        return np.asarray(out) if out else np.empty((0, 2))

    def slice_points(self, j, rng=None, n=24):
        a_lo, a_hi = self._strip(j)
        return self._sample_strip(a_lo, a_hi, n, j)

    def top_points(self, rng=None, n=24):
        return self._sample_strip(0.0, self.t + self.y, n, 977)

    def local_points(self, j, center, radius, n, rng):
        a_lo, a_hi = self._strip(j)
        jit = rng.normal(size=(n, 2)) * radius * self.h
        s = np.clip(center[0] + jit[:, 0], 0.0, self.t * (1 - 1e-9))
        x = np.clip(center[1] + jit[:, 1], 0.0, self.y * (1 - 1e-9))
        keep = (s + x >= a_lo) & (s + x < a_hi)
        return np.stack([s[keep], x[keep]], axis=1)

    def slice_apply(self, j, pts):
        a_lo, a_hi = self._strip(j)
        ratios = np.array([st.kappa_slice_ratio(s, x, self.t, self.y,
                                                a_lo, a_hi, self.c, self.p_exp)
                           for s, x in pts])
        return ratios * self.control(pts)


def theorem46_certify(kernel, mu, t, y, intervals, eta=None,
                      n_samples: int = 24, seed: int = 0,
                      quad_tol: float = 1e-4, series_fn=None,
                      max_terms: int = 14):
    """Interval-sliced certification with beta = eta.

    First verifies the slice hypothesis sup_{r <= s < t} p_1^{I_j} / p
    <= eta by sampling, r the lowest interval end, where the measure and
    the sampled source times start; then compares the series against
    (1 - eta)**(-j) on each slice.  Slice j's bound rests on the bounds
    of every slice nearer the target, so a slice that violates the
    hypothesis withholds its certificate and those of all later slices
    as HYPOTHESIS_FAIL; each such row keeps its measured series ratio and
    truncation report, and its note names the slice constant that
    failed.  With eta omitted, the measured sup (slightly
    padded) is used.  An eta of one or more raises SmallnessError (from
    ``bounds.certify``), which carries it.
    """
    problem = TimeSliceProblem(kernel, mu, min(I.lo for I in intervals), t,
                               y, intervals, quad_tol=quad_tol, seed=seed,
                               series_fn=series_fn, max_terms=max_terms)
    # the sup over the slice's own points (eta_j) and over the top set
    # (beta_j) together: the sup of p_1^{I_j} / p over s in [r, t)
    const = bnd.estimate_constants(problem, n_samples=n_samples)
    sups = [max(e, b) for e, b in zip(const.per_slice_eta,
                                      const.per_slice_beta)]
    if eta is None:
        eta = max(sups) * (1.0 + 1e-6)
    tol = bnd.quad_rel_tol(quad_tol)
    failed = [j for j in range(1, problem.k + 1)
              if not sups[j - 1] <= eta * (1.0 + tol)]
    certs = []
    for c in bnd.certify(problem, eta, eta, n_samples):
        j = c.slice_index
        if j in failed:
            c = replace(c, status="HYPOTHESIS_FAIL",
                        note=f"measured slice constant {sups[j - 1]:.4g} "
                             f"exceeds eta={eta:.4g}")
        elif failed and j > failed[0]:
            c = replace(c, status="HYPOTHESIS_FAIL",
                        note=f"the bound rests on slice {failed[0]}, whose "
                             f"measured constant {sups[failed[0] - 1]:.4g} "
                             f"exceeds eta={eta:.4g}")
        certs.append(c)
    return certs


def corollary47_bound(kernel, mu, r, t, y, intervals, c, beta,
                      n_samples: int = 16, seed: int = 0,
                      quad_tol: float = 1e-4):
    """Global comparison constant from per-interval summability.

    Verifies p_1 <= beta p (samples with s >= r) and the per-interval
    series bound sum_n p_n^{I_j} <= c p (samples with s in I_j), then
    returns C = (sum_{n<N} beta^n) (1 + beta/(1-eta))**(k-1) / (1-eta)
    with N minimal admissible and eta = c (1-1/c)**N; finally checks the
    full series against C p on samples.  c <= 1 collapses to C = 1.
    """
    problem = TimeSliceProblem(kernel, mu, r, t, y, intervals,
                               quad_tol=quad_tol, seed=seed)
    tol = bnd.quad_rel_tol(quad_tol)
    top = problem.top_points(None, n_samples)
    p1 = sum(problem.slice_apply(j, top) for j in range(1, problem.k + 1))
    ratio1 = bnd._sup_ratio(p1, problem.control(top))
    if ratio1 > beta * (1.0 + tol):
        raise PreconditionError(
            f"first-term bound fails: measured {ratio1:.4g} > beta={beta}")
    for j, I in enumerate(problem.intervals, start=1):
        pts = problem.slice_points(j, None, n_samples)
        res = series_batch(kernel, problem._restricted[j - 1],
                           pts[:, 0], pts[:, 1], t, y, quad_tol=quad_tol)
        ratios = [rr.ratio for rr in res]
        if max(ratios) > c * (1.0 + tol):
            raise PreconditionError(
                f"per-interval series bound fails on slice {j}: "
                f"{max(ratios):.4g} > c={c}")
    if c <= 1.0:
        return 1.0
    C = bnd.corollary_bound(c, bnd.smallest_admissible_N(c), beta, problem.k)
    vals, rep = problem.series(top)
    full = bnd._sup_ratio(vals, problem.control(top))
    if rep.status == "converged" and full > C * (1.0 + tol):
        raise CertificationError(
            f"series ratio {full:.4g} exceeds the bound C={C:.4g}")
    return C


def kato_certify(kernel, mu, h, eta, t, y, sample_pts,
                 quad_tol: float = 1e-4, max_terms: int = 14):
    """Certificates for the window bound (1 - eta)**-(1 + (t - s)/h).

    eta is the 3P-constant times the measured window modulus; each sample
    point gets one certificate comparing the measured series ratio with
    the closed-form exponent in its own time gap.
    """
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta={eta} must lie in [0, 1)")
    pts = np.asarray(sample_pts, dtype=float)
    res = series_batch(kernel, mu, pts[:, 0], pts[:, 1], t, y,
                       quad_tol=quad_tol, max_terms=max_terms)
    certs = []
    for i, rr in enumerate(res):
        s = pts[i, 0]
        bound = (1.0 - eta) ** -(1.0 + (t - s) / h)
        tol = bnd.quad_rel_tol(max(rr.quad_error_estimate, quad_tol))
        certs.append(bnd.BoundCertificate(
            slice_index=i + 1, eta=eta, beta=eta, theorem_bound=bound,
            measured_ratio=rr.ratio,
            status=bnd.verdict(rr.status, rr.ratio, bound, tol),
            sample_count=1,
            truncation=bnd.TruncationReport(rr.truncation_index, rr.status,
                                            rr.tail_estimate,
                                            rr.quad_error_estimate),
            note=f"window bound at s={s:.4g}"))
    return certs
