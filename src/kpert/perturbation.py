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
atom still ahead); each level is one pass of nested fixed rules, whose
spatial rule follows the bridge (``_bridge_rule``, the one rule for
every bridge here, the atom operator's included), and an atom term, one
spatial integral, gets a finer one.  A Gaussian bridge sum, against the
Brownian-bridge density, is already a ratio to p and evaluates no
kernel; the other kernels divide by p.  One evaluator applies a level
to a batch of rows, each a source time u0 with its source nodes z0: a
grid level passes a panel's rows, which share the z-grid, and the
readout passes every point as a one-node row.
The (row, time node) columns of a segment, or the (row, atom) columns,
are evaluated together, in blocks of at most _BATCH_ENTRIES entries, and
each node still reduces on its own (one vecdot call per segment runs the
same BLAS dot on each node's row of time nodes), so the values match
node-by-node evaluation bit for bit.  Off the Gaussian, at the columns
whose spatial rule sits on the target, the nodes, weights and every
factor but p(u0, z0, v, z') do not depend on z0, so they are evaluated
once per column and broadcast over a row's nodes.  Every bridge factor
is evaluated only along the axes it varies on: the kernels and q take
the time nodes as a column v[:, None] and broadcast it against the
spatial nodes, so dt, the kernels' time powers and the support gate are
computed once per time column, and the integrand product is formed in
place on the first kernel factor, in the order (((p1 p2) q) r) w; a
level-1 bridge skips the factor r_0 = 1.  All of it has the bits of
operands materialised at the full shape.

Row n + 1 is the only reader of grid level n, which is built only once
that row is due; it reads the level through one interpolating cubic
spline per panel (not-a-knot on both axes, in numpy), whose time weights
are evaluated once per time column of the bridge rule.  The space basis
is built once per engine and each panel's time basis once per panel, so
building a level's splines only applies them to its values, and a lookup
gathers each point's four cubic coefficients in one take.  Every
measure, atoms included, takes this one path (an atom level reads the
previous one only at later atoms, so a single atom kills every term past
the first), and the error estimate is the relative difference of the
sums at two resolutions.  The slice problems build that engine pair once
and reuse it for every batch of sample points; a time slice's p_1 / p is
the fine engine's level 1 with the measure cut to the slice window.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from kpert import bounds as bnd
from kpert import matrix_kernels as mk
from kpert import spacetime as st
from kpert.errors import DomainError
from kpert.measures import (FULL_LINE, CornerPowerDensity, Interval,
                            PerturbingMeasure, restrict_measure)
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


def _time_pieces(x):
    """The time basis of a panel's spline, in the layout of
    ``_not_a_knot_pieces``.  A panel narrower than its time grid repeats
    nodes (``linspace`` steps below one ulp), so not-a-knot would divide
    by a zero step; every time such a panel is read at is then one of its
    nodes, and the piecewise-linear basis, which reads each node's row
    there, stands in."""
    h = np.diff(x)
    if np.all(h > 0):
        return _not_a_knot_pieces(x)
    n = len(x)
    eye = np.eye(n)
    c = np.zeros((n - 1, 4, n))
    c[:, 0] = eye[:-1]
    wide = h > 0
    c[wide, 1] = (eye[1:] - eye[:-1])[wide] / h[wide, None]
    return c


class RectBivariateSpline:
    """Interpolating cubic tensor spline on a grid x (times) by y (uniform
    space nodes), not-a-knot on each axis: the interpolant fitpack builds
    for s = 0.

    The space operator is applied to the grid values once, at build:
    each row of values becomes a table of cubic pieces in y.  A lookup
    weights those tables by the time splines at each column's time,
    gathers each point's four coefficients as one (points, 4) table and
    evaluates the point on its piece by Horner's rule.  The bases,
    ``_time_pieces`` of x and ``_not_a_knot_pieces`` of y, may be passed
    in (``x_pieces``, ``y_pieces``) by a caller that builds many splines
    on the same nodes, as the series engine does.
    """

    def __init__(self, x, y, z, x_pieces=None, y_pieces=None):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if x_pieces is None:
            x_pieces = _time_pieces(self.x)
        if y_pieces is None:
            y_pieces = _not_a_knot_pieces(self.y)
        self._x_pieces = x_pieces
        ny = len(self.y)
        self._rows = np.asarray(z, dtype=float) @ \
            y_pieces.reshape(4 * (ny - 1), ny).T
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
        pieces = (w[:, None, :] @ self._rows).reshape(-1, 4)
        d = np.clip(y, ys[0], ys[-1])
        k = d - ys[0]
        k *= self._inv_dy
        k = k.astype(np.intp)
        np.minimum(k, len(ys) - 2, out=k)
        d -= ys.take(k)
        k += (np.arange(len(x)) * (len(ys) - 1))[:, None]
        c = pieces.take(k, axis=0)      # each point's c0..c3 in one gather
        out = c[..., 3] * d
        out += c[..., 2]
        out *= d
        out += c[..., 1]
        out *= d
        out += c[..., 0]
        return out


# Entries (source node, column, spatial node) the series engine holds in
# one broadcast: half of one resolution-1.6 grid row (24 nodes, 22 time
# nodes, 44 spatial nodes).  Batches of rows are cut into blocks of
# columns of at most this size, so their temporaries stay those of the
# row-at-a-time engine; a whole row per block raised the peak RSS of a
# series run by about 1 %, half a row left it lower.
_BATCH_ENTRIES = 24 * 11 * 44


def _closed_form(kernel):
    """Whether the kernel's bridge has a closed form (``kernel.bridge``,
    the Gaussian's): ``_bridge_rule`` then integrates against the normal
    density, and a sum on its rule is already a ratio to p."""
    return hasattr(kernel, "bridge")


def _node_counts(r):
    """The series engine's spatial node counts at resolution r: a grid
    level's bridge rule, an atom term's (one spatial integral, which
    affords more nodes) and the cone rule's Gauss-Legendre half rule."""
    nodes_z = max(12, int(round(28 * r)))
    return nodes_z, int(round(40 * r)), max(nodes_z // 2, 6)


def _unit_rule(kernel, n):
    """The unit peak rule that ``_bridge_rule`` moves and scales, n nodes
    per half-axis: tan(theta) and w / cos(theta)**2.  For a kernel with a
    closed-form bridge the weights also carry the standard normal density
    e^{-tan^2 / 2} / sqrt(2 pi), and the nodes whose weight underflows to
    0 are dropped, where a product 0 * inf would read NaN."""
    tan, w = peak_rule(0.0, 1.0, n)
    if not _closed_form(kernel):
        return tan, w
    w = w * np.exp(-0.5 * tan ** 2)
    w /= math.sqrt(2.0 * math.pi)
    keep = w > 0
    return tan[keep], w[keep]


def _bridge_rule(kernel, rule, half, u0, z0, v, t, y):
    """The spatial rule of the bridges from (u0[c], z0) through the time
    v[c] to (t, y), the one rule for every bridge the series engine and
    the atom operator integrate: groups (cols, zc, zp, wp) of the columns
    cols, their source nodes zc and the nodes zp and weights wp in z'.
    z0 has shape (nodes, 1, 1), shared by the columns, or (nodes,
    columns, 1); ``rule`` is a unit rule of ``_unit_rule`` and ``half`` a
    Gauss-Legendre rule on (0, 1), which only the cone kernel reads.

    - A kernel with a ``bridge`` method (the Gaussian): p(u0, z0, v, z')
      p(v, z', t, y) / p(u0, z0, t, y) is the Brownian-bridge density in
      z', normal with the mean and scale ``kernel.bridge`` gives (I.
      Karatzas and S. Shreve, Brownian Motion and Stochastic Calculus,
      5.6.B).  The nodes sit at mean + scale tan(theta) and the weights
      are the rule's, which carry the standard normal density, so a sum
      against them is already a ratio to p and needs no kernel.
    - The cone kernel: quadratic clustering at both ends of [z0, y],
      where the cross-section mass blows up; it needs z0 < y, which holds
      wherever p(u0, z0, t, y) > 0.
    - The other kernels: the tan rule centred on the narrower of the two
      kernel factors at its peak scale (exact for a Cauchy peak), so
      end-of-interval bridges stay resolved.  The columns whose rule sits
      on the target form a group whose nodes do not depend on z0 (zp of
      leading size 1)."""
    tan, tan_w = rule
    if _closed_form(kernel):
        mean, scale = kernel.bridge(u0[:, None], z0, v[:, None], t, y)
        return [(slice(None), z0, mean + scale * tan, tan_w)]
    if getattr(kernel, "kind", "peak") == "cone":
        xi, w = half
        width = 0.5 * (z0 + y) - z0
        wl = w * 2.0 * width * xi
        zp = np.concatenate([z0 + width * xi ** 2, y - width * xi[::-1] ** 2],
                            axis=-1)
        return [(slice(None), z0,
                 np.broadcast_to(zp, (len(z0), len(v), 2 * len(xi))),
                 np.concatenate([wl, wl[..., ::-1]], axis=-1))]
    s1 = np.asarray(kernel.peak_scale(v - u0), dtype=float)
    s2 = np.asarray(kernel.peak_scale(t - v), dtype=float)
    use1 = s1 <= s2
    scale = np.maximum(np.where(use1, s1, s2), 1e-300)
    shared = z0.shape[1] == 1
    groups = []
    for cols, on_source in ((use1, True), (~use1, False)):
        if np.any(cols):
            zc = z0 if shared else z0[:, cols]
            sc = scale[cols][:, None]
            center = zc if on_source else np.full((1, 1, 1), y)
            groups.append((cols, zc, center + sc * tan, sc * tan_w))
    return groups


def _clip(pieces, window):
    """The non-empty parts of the time pieces (lo, hi) inside the window."""
    cut = [(max(lo, window.lo), min(hi, window.hi)) for lo, hi in pieces]
    return [(lo, hi) for lo, hi in cut if hi > lo]


def _node_sums(inner, dv):
    """dv[i] @ inner[j, i] for every node j of row i, shape (rows, nodes),
    in one vecdot call: the same BLAS dot on each contiguous node row as
    a lone node's float(dv @ row), so each sum keeps its bits."""
    return np.vecdot(inner.transpose(1, 0, 2), dv[:, None, :])


class SeriesEngine:
    """Grid-backed evaluator of the term ratios r_n = p_n / p for a fixed
    target (t, y).

    Built once per slice problem; levels are built lazily, so call order
    does not change values.  A kernel with a ``bridge`` method (the
    Gaussian) has its bridge sums in closed form: its unit rules carry
    the standard normal density in their weights, fixed per engine.
    ``ratios`` evaluates the whole term sequence at arbitrary source
    points with s >= s_min, all points of a level in one batch, and gives
    each point the bits it has alone.  Engines run in pairs at two
    resolutions, whose difference is the quadrature error estimate.
    """

    def __init__(self, kernel, mu: PerturbingMeasure, t, y, s_min, x_range,
                 resolution: float, quad_tol: float, max_terms: int):
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
        self.nodes_z, self.nodes_atom, nodes_half = _node_counts(r)
        # the rules of _bridge_rule
        self._rule = _unit_rule(kernel, self.nodes_z // 2)
        self._atom_rule = _unit_rule(kernel, self.nodes_atom // 2)
        self._closed = _closed_form(kernel)
        self._gl_t = gauss_legendre_rule(0.0, 1.0, self.nodes_t)
        self._gl_half = gauss_legendre_rule(0.0, 1.0, nodes_half)

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
        self.segments = [] if mu.density is None else _clip(self.panels, supp)

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
        self._panel_rows = None    # per panel: nodes, row times, p, basis
        self._z_pieces = None      # the space basis of every grid spline
        self._splines = None       # per level: list over panels
        self._grid_sups = None

    # -- rules ------------------------------------------------------------

    def _time_nodes(self, lo, hi, u0):
        """Rules for the v integral on (lo[i], hi) from the source time
        u0[i], one row each; cone kernels get quadratic clustering at
        v = u0 where the cross-section mass blows like (v - u0)^{-1/2}."""
        xi, w = self._gl_t
        width = (hi - lo)[:, None]
        v = lo[:, None] + width * xi
        dv = w * width
        if self.kind == "cone":
            near = lo <= u0 + 1e-300
            if near.any():
                width = (hi - u0[near])[:, None]
                v[near] = u0[near, None] + width * xi ** 2
                dv[near] = w * 2.0 * width * xi
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

    def _apply(self, u0, z0, f0, splines, window=FULL_LINE):
        """One application of the measure-weighted kernel to r_{n-1} p at
        the nodes of a batch of rows, divided by f0 = p(u0, z0, t, y) there;
        level 1 (splines None) takes r_0 = 1.  A closed-form bridge sum is
        already a ratio and is not divided.  The measure is cut to the time
        window: the segments inside it and the atoms it contains.

        Row i is the source time u0[i] with the nodes z0[i], f0 has shape
        (rows, nodes), and z0 broadcasts to it: a z0 of one row is shared by
        every row, as a grid panel's rows share the z-grid.  Dead nodes
        (f0 <= 0, or u0 >= t) read 0 and are not evaluated; rows whose live
        nodes coincide are evaluated together."""
        out = np.zeros(f0.shape)
        live = (f0 > 0) & (u0 < self.t)[:, None]
        rows = np.flatnonzero(live.any(axis=1))
        while len(rows):
            mask = live[rows[0]]
            same = (live[rows] == mask).all(axis=1)
            at = np.ix_(rows[same], np.flatnonzero(mask))
            zg = z0[:, mask] if len(z0) == 1 else z0[at]
            vals = self._live_rows(u0[rows[same]], zg.T, splines, window)
            out[at] = vals if self._closed else vals / f0[at]
            rows = rows[~same]
        return out

    def _live_rows(self, u0, z0, splines, window):
        """The unnormalised values of ``_apply`` at live nodes, the measure
        cut to the window: z0 of shape (nodes, 1), shared by the rows, or
        (nodes, rows).

        Columns are (row, time node) pairs, and one pass of
        ``_bridge_sums`` evaluates every row's columns of a segment (or
        every row's atoms).  Each node still reduces on its own: the sum
        over z', then dv @ its row of time nodes (``_node_sums``, one
        vecdot call for the segment), added segment by segment and then
        atom by atom, so it has the bits of a lone node."""
        total = np.zeros((len(u0), len(z0)))
        shared = z0.shape[1] == 1
        for lo, hi in _clip(self.segments, window):
            rows = np.flatnonzero(u0 < hi)
            if not len(rows):
                continue
            ur = u0[rows]
            v, dv = self._time_nodes(np.maximum(lo, ur), hi, ur)
            nt = v.shape[1]
            zc = z0 if shared else np.repeat(z0[:, rows], nt, axis=1)
            inner = self._bridge_sums(np.repeat(ur, nt), v.ravel(), zc,
                                      splines).reshape(len(z0), len(rows), nt)
            total[rows] += _node_sums(inner, dv)
        ahead = [(a, np.flatnonzero(u0 < a.time))
                 for a in self.mu.active_atoms()
                 if a.time < self.t and window.contains(a.time)]
        ahead = [(a, rows) for a, rows in ahead if len(rows)]
        if ahead:
            rows = np.concatenate([r for _, r in ahead])
            v = np.concatenate([np.full(len(r), a.time) for a, r in ahead])
            inner = self._bridge_sums(u0[rows], v,
                                      z0 if shared else z0[:, rows],
                                      splines, atom=True)
            at = 0
            for a, r in ahead:
                total[r] += a.weight * inner[:, at:at + len(r)].T
                at += len(r)
        return total

    def _bridge_sums(self, u0, v, z0, splines, atom=False):
        """Inner sums over z' of p(u0, z0, v, z') p(v, z', t, y) q(v, z')
        r_{n-1}(v, z') w at the columns c = (u0[c], v[c]) on the nodes of
        ``_bridge_rule``, shape (nodes, columns); z0 has shape (nodes, 1),
        shared by the columns, or (nodes, columns).  An atom term has no
        q, and the finer unit rule.

        A closed-form bridge sum is of the ratio to p(u0, z0, t, y) and
        evaluates no kernel: the product is (q r) w.  Otherwise the time
        operands are columns v[cols, None], so time-only factors are
        evaluated once per column, and the product is formed in place on
        p(u0, z0, v, z') in the order (((p1 p2) q) r) w.  Columns go in
        blocks of at most _BATCH_ENTRIES (node, column, spatial node)
        entries."""
        nz, shared = len(z0), z0.shape[1] == 1
        rule = self._atom_rule if atom else self._rule
        width = 2 * len(self._gl_half[0]) if self.kind == "cone" \
            else len(rule[0])
        step = max(1, _BATCH_ENTRIES // (nz * width))
        inner = np.empty((nz, len(v)))
        for a in range(0, len(v), step):
            b = slice(a, a + step)
            ub, vb, out = u0[b], v[b], inner[:, b]
            zn = (z0 if shared else z0[:, b])[:, :, None]
            for cols, zc, zp, wp in _bridge_rule(self.kernel, rule,
                                                 self._gl_half, ub, zn, vb,
                                                 self.t, self.y):
                vc = vb[cols, None]
                if self._closed:
                    prod = np.ones(zp.shape) if atom else self.mu.q(vc, zp)
                else:
                    prod = self.kernel(ub[cols, None], zc, vc, zp)
                    prod *= self.kernel(vc, zp, self.t, self.y)
                    if not atom:
                        prod *= self.mu.q(vc, zp)
                if splines is not None:
                    prod *= self._lookup(splines, vb[cols], zp)
                prod *= wp
                out[:, cols] = np.sum(prod, axis=-1)
        return inner

    def _grid_level(self, splines):
        new_splines = []
        sup = 0.0
        if self._panel_rows is None:     # the same each level: p at the
            self._panel_rows = []        # nodes and the spline bases
            self._z_pieces = _not_a_knot_pieces(self.z_nodes)
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
                                self.y), dtype=float),
                    _time_pieces(u_nodes)))
        for u_nodes, u_rows, f0, u_pieces in self._panel_rows:
            vals = self._apply(u_rows, self.z_nodes[None, :], f0, splines)
            sup = max(sup, float(np.max(vals)))
            new_splines.append(RectBivariateSpline(
                u_nodes, self.z_nodes, vals, x_pieces=u_pieces,
                y_pieces=self._z_pieces))
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
        for level in range(1, self.max_terms + 1):
            row = self._apply(s_pts, x_pts[:, None], f0[:, None],
                              self._splines[level - 1])[:, 0]
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

def _verdict(terms, value, quad_tol, max_terms):
    """converged or truncated, never diverging: terms like lambda^n / n!
    grow for lambda steps, and the engine cannot tell them apart.  A
    non-finite value (p times the sum) is truncated, with no tail bound."""
    if not math.isfinite(value):
        return "truncated", math.inf
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
    the window the live points (p > 0) span, or all points if none is
    live: a dead point, at s >= t or where p underflows to 0, reads 0 on
    any grid and must not widen the window."""
    s_pts = np.atleast_1d(np.asarray(s_pts, dtype=float))
    x_pts = np.atleast_1d(np.asarray(x_pts, dtype=float))
    f0 = np.asarray(kernel(s_pts, x_pts, t, y), dtype=float)
    live = f0 > 0
    s_win, x_win = (s_pts[live], x_pts[live]) if live.any() else \
        (s_pts, x_pts)
    x_range = (float(np.min(x_win)), float(np.max(x_win)))
    engines = _engine_pair(kernel, mu, t, y, float(np.min(s_win)), x_range,
                           quad_tol, max_terms)
    return _sum_rows(engines, s_pts, x_pts, f0, quad_tol, max_terms)


def _engine_pair(kernel, mu, t, y, s_min, x_range, quad_tol, max_terms):
    """Engines at resolutions 1.0 and 1.6; the refined one supplies the
    terms and the difference the quadrature error estimate."""
    # t - 1e-9 rounds to t for |t| past about 1e7
    s_min = min(s_min, t - 1e-9, np.nextafter(t, -np.inf))
    return tuple(SeriesEngine(kernel, mu, t, y, s_min=s_min,
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
        terms = tuple(float(r) * float(f0[i]) for r in terms_ratio)
        value = float(np.sum(terms))
        status, tail = _verdict(terms_ratio, value, quad_tol, max_terms)
        out.append(SeriesResult(value, terms, len(terms) - 1,
                                float(tail * f0[i]), float(err[i]), status,
                                float(f0[i])))
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
    bridge rules: the series engine's, from ``_bridge_rule`` with its
    resolution-1.6 atom rule (closed-form for the Gaussian, whose rows
    then sum to their Chapman-Kolmogorov counts within 1e-9).  On the
    stacked grids K is one matrix, assembled once: identity blocks on
    the diagonal (the rho({s}) term) and, above it, bridge transfers from
    each atom to every later one.
    A readout row takes grid values of g / f to (K g)(s, x) / f(s, x);
    iterates and the series are summed by ``matrix_kernels``.
    """

    def __init__(self, kernel, atom_times, t, y):
        self.kernel = kernel
        self.times = sorted(float(u) for u in atom_times)
        if any(u >= t for u in self.times):
            raise ValueError("atoms must sit strictly before the target time")
        self.t = float(t)
        self.y = float(y)
        # the series engine's atom rules at resolution 1.6
        _, nodes_atom, nodes_half = _node_counts(1.6)
        self._closed = _closed_form(kernel)
        self._rule = _unit_rule(kernel, nodes_atom // 2)
        self._half = gauss_legendre_rule(0.0, 1.0, nodes_half)
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
        (u, z) through atom j, in ratio space, on ``_bridge_rule`` with
        the series engine's atom rules at resolution 1.6."""
        v = self.times[j]
        z = np.asarray(z_arr, dtype=float)[:, None]
        [(_, _, zp, wp)] = _bridge_rule(self.kernel, self._rule, self._half,
                                        np.array([u]), z[:, :, None],
                                        np.array([v]), self.t, self.y)
        # drop the one column's axis; every source node gets its own row
        wp = np.broadcast_to(wp, zp.shape)[:, 0]
        zp = np.broadcast_to(zp[:, 0], (len(z), zp.shape[-1]))
        f0 = np.asarray(self.kernel(u, z, self.t, self.y), dtype=float)
        if self._closed:                        # already a ratio to f0
            c = np.where(f0 > 0, wp, 0.0)
        else:
            c = self.kernel(u, z, v, zp) * self.kernel(v, zp, self.t,
                                                       self.y) * wp
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

    def series_at(self, eta: float, s, x) -> SeriesResult:
        """sum_n (eta K)^n f(s, x) = f (1 + eta R sum_m (eta K)^m 1), R the
        readout row, summed to a relative tail of 1e-9; terms are f and
        the summed perturbation."""
        if not 0.0 < eta < 1.0:
            raise DomainError(f"eta={eta} outside (0, 1): the series explodes")
        f = float(self.kernel(s, x, self.t, self.y))
        if f <= 0:
            return SeriesResult(0.0, (0.0,), 0, 0.0, 0.0, "converged", 0.0)
        row = self._readout(s, x)
        res = mk.neumann_series(mk.MatrixKernel(eta * self.K.entries),
                                np.ones(self.K.n), max_terms=200,
                                tail_tol=1e-9)
        pert = eta * float(row @ res.value) * f
        tail = eta * float(np.sum(row)) * res.tail_estimate * f
        return SeriesResult(f + pert, (f, pert), res.n_terms, tail, 0.0,
                            res.status, f)


# ---------------------------------------------------------------------------
# Interval-sliced certification for space-time kernels
# ---------------------------------------------------------------------------

class _SliceProblem:
    """What the space-time slice problems share: the series adapter, an
    engine pair built on first use, which the problem's one series source
    (the ratios sum_n p_n / p that ``bounds`` certifies) and a time slice's
    ratio p_1 / p both read.  Subclasses set kernel, mu, t, y, quad_tol,
    max_terms and engine_window = (s_min, x_range)."""

    exact = False

    @functools.cached_property
    def _engines(self):
        s_min, x_range = self.engine_window
        return _engine_pair(self.kernel, self.mu, self.t, self.y, s_min,
                            x_range, self.quad_tol, self.max_terms)

    def series(self, pts):
        """Series ratios at the points from the one engine pair."""
        f0 = np.asarray(self.kernel(pts[:, 0], pts[:, 1], self.t, self.y),
                        dtype=float)
        res = _sum_rows(self._engines, pts[:, 0], pts[:, 1], f0,
                        self.quad_tol, self.max_terms)
        ratios = np.array([r.ratio for r in res])
        status = "truncated" if any(r.status == "truncated" for r in res) \
            else "converged"
        rep = bnd.TruncationReport(max(r.truncation_index for r in res),
                                   status,
                                   max(r.tail_estimate for r in res),
                                   max(r.quad_error_estimate for r in res))
        return ratios, rep


class TimeSliceProblem(_SliceProblem):
    """Slice problem over intervals I_1 (nearest the target time) through
    I_k partitioning [r, t): slice j is I_j x space, and the sliced
    operator applies the measure restricted to I_j.

    The slice ratio p_1^{I_j} / p is level 1 of the pair's fine engine
    with the measure cut to I_j, whose segments, time nodes and atoms are
    those of mu restricted to I_j; level 1 needs no grid (r_0 = 1), so it
    is read at any source point with s >= r."""

    def __init__(self, kernel, mu, r, t, y, intervals,
                 quad_tol: float = 1e-4, seed: int = 0, max_terms: int = 14):
        self.kernel = kernel
        self.mu = restrict_measure(mu, Interval(r, t))
        self.r = float(r)
        self.t = float(t)
        self.y = float(y)
        self.intervals = list(intervals)
        self.k = len(self.intervals)
        self.quad_tol = quad_tol
        self.seed = seed
        self.max_terms = max_terms
        scale = float(kernel.peak_scale(self.t - self.r))
        self.x_box = (self.y - 2.0 * scale - 1.0, self.y + 2.0 * scale + 1.0)
        self.engine_window = (self.r, self.x_box)

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

    def slice_ratio(self, j, pts):
        """p_1^{I_j} / p at the points from the fine engine cut to I_j, all
        points in one batch, each against the scalar p there."""
        f0 = np.array([float(self.kernel(s, x, self.t, self.y))
                       for s, x in pts])
        return self._engines[1]._apply(pts[:, 0], pts[:, 1:2], f0[:, None],
                                       None, self.intervals[j - 1])[:, 0]


class KappaSliceProblem(_SliceProblem):
    """Diagonal-slice problem for the cone kernel under the corner density
    c (u + z)**(-p): slices are level strips a_j <= u + z < a_{j-1} of
    width h below the target level t + y.

    The slice ratio collapses exactly to a one-dimensional level-line
    integral; the series uses the quadrature engine with the cone rules.
    Sample points live in [0, t) x [0, y) intersected with each strip,
    as many in a thin strip as in a wide one.
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
        """Points of [0, t) x [0, y) with s + x in [a_lo, a_hi), one per
        Halton pair: a level in [a_lo, min(a_hi, t + y)), then a place on
        that level's segment inside the box (none that rounding moves out)."""
        top = max(a_lo, min(a_hi, self.t + self.y))
        u = Halton(2, self.seed + salt).random(n)
        level = a_lo + (top - a_lo) * u[:, 0]
        lo = np.maximum(level - self.y, 0.0)
        s = lo + (np.minimum(level, self.t) - lo) * u[:, 1]
        x = level - s
        keep = (a_lo <= s + x) & (s + x < top) & (s < self.t) & (x >= 0.0) \
            & (x < self.y)
        return np.stack([s[keep], x[keep]], axis=1)

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

    def slice_ratio(self, j, pts):
        a_lo, a_hi = self._strip(j)
        return np.array([st.kappa_slice_ratio(s, x, self.t, self.y,
                                              a_lo, a_hi, self.c, self.p_exp)
                         for s, x in pts])


def theorem46_certify(kernel, mu, t, y, intervals, eta=None,
                      n_samples: int = 24, seed: int = 0,
                      quad_tol: float = 1e-4, max_terms: int = 14):
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
                               max_terms=max_terms)
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


def kato_certify(kernel, mu, h, eta, t, y, sample_pts):
    """Certificates for the window bound (1 - eta)**-(1 + (t - s)/h).

    eta is the 3P-constant times the measured window modulus; each sample
    point gets one certificate comparing the measured series ratio with
    the closed-form exponent in its own time gap.  The series run at
    quad_tol 1e-3 with at most 10 terms.
    """
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta={eta} must lie in [0, 1)")
    pts = np.asarray(sample_pts, dtype=float)
    quad_tol = 1e-3
    res = series_batch(kernel, mu, pts[:, 0], pts[:, 1], t, y,
                       quad_tol=quad_tol, max_terms=10)
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
