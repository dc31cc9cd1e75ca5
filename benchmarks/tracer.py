"""Spans and counters at kpert's layer boundaries, recorded from outside.

``Tracer.install()`` replaces, for each layer module (cli, perturbation,
spacetime, quadrature, measures, matrix_kernels, bounds):

- every module-level binding of a public function defined in a layer
  module.  ``from kpert.quadrature import gauss_legendre_rule`` copies the
  name into perturbation and spacetime, so each copy gets its own wrapper;
- every public method (and ``__call__``) of the classes those modules
  define, on the class;
- three internal boundaries: ``SeriesEngine._grid_level``,
  ``quadrature._adaptive`` and spline evaluation (perturbation's
  ``RectBivariateSpline`` binding becomes a traced subclass).

``uninstall()`` puts every original object back.  Spans (name, start,
end, parent span, op id) stay in memory and are written by ``dump``;
``summary`` turns them into the per-layer metrics.  A layer's self time
is the duration of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "perturbation", "spacetime", "quadrature", "measures",
          "matrix_kernels", "bounds")
KERNEL_CALLS = tuple(f"spacetime.{k}.__call__"
                     for k in ("GaussianKernel", "CauchyKernel", "KappaKernel"))
IDENTITY_CHECKS = ("matrix_kernels.verify_power_identity",
                   "matrix_kernels.verify_slice_identity",
                   "matrix_kernels.check_geometric_decay")


def _kernel_key(k):
    return (getattr(k, "name", type(k).__name__), getattr(k, "dim", None))


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stats: list[list] = []            # per name: calls, total, self
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []           # [span index, child time]
        self._patches: list[tuple] = []        # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return self._ids[name]

    def wrap(self, fn, name, post=None):
        """Span around ``fn``; ``post(args, kwargs, result, seconds)`` runs
        after a call that returned."""
        nid = self._name_id(name)
        stat = self.stats[nid]
        stack = self._stack
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(args, kwargs, out, dur)
            return out
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: importlib.import_module(f"kpert.{name}") for name in LAYERS}
        layer_of = {m.__name__: name for name, m in mods.items()}
        posts = self._posts()
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{obj.__name__}"
                    self._patch(mod, attr, self.wrap(obj, name, posts.get(name)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, posts)
        q = mods["quadrature"]
        self._patch(q, "_adaptive", self.wrap(q._adaptive, "quadrature._adaptive",
                                              posts["quadrature._adaptive"]))
        pt = mods["perturbation"]
        eng = pt.SeriesEngine
        self._patch(eng, "__init__", self.wrap(
            eng.__init__, "perturbation.SeriesEngine.__init__",
            posts["perturbation.SeriesEngine.__init__"]))
        self._patch(eng, "_grid_level", self.wrap(
            eng._grid_level, "perturbation.SeriesEngine._grid_level"))
        mk = mods["matrix_kernels"].MatrixKernel
        self._patch(mk, "__post_init__", self.wrap(
            mk.__post_init__, "matrix_kernels.MatrixKernel.__post_init__"))
        spline = pt.RectBivariateSpline
        traced_spline = type("RectBivariateSpline", (spline,), {
            "__init__": self.wrap(spline.__init__, "perturbation.spline_build"),
            "__call__": self.wrap(spline.__call__, "perturbation.spline_eval"),
        })
        self._patch(pt, "RectBivariateSpline", traced_spline)

    def _wrap_class(self, layer, cls, posts):
        for attr, val in list(vars(cls).items()):
            if inspect.isfunction(val) and (attr == "__call__"
                                            or not attr.startswith("_")):
                name = f"{layer}.{cls.__name__}.{attr}"
                self._patch(cls, attr, self.wrap(val, name, posts.get(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- counters taken at the boundaries ------------------------------------

    def _posts(self):
        import numpy as np

        from kpert import perturbation as pt

        c, keys = self.counts, self.keys
        engine_sig = inspect.signature(pt.SeriesEngine.__init__)
        batch_sig = inspect.signature(pt.series_batch)

        def engine(args, kwargs, out, dur):
            b = engine_sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = dict(b.arguments)
            a.pop("self")
            a["kernel"] = _kernel_key(a["kernel"])
            keys["engines"].add(repr(sorted(a.items())))

        def batch(args, kwargs, out, dur):
            b = batch_sig.bind(*args, **kwargs)
            c["series_points"] += int(np.size(b.arguments["s_pts"]))
            mu = b.arguments["mu"]
            if mu.density is None and mu.atoms:
                c["atom_series_s"] += dur

        def points(key):
            def post(args, kwargs, out, dur):
                c[key] += int(np.size(out))
            return post

        def gl_rule(args, kwargs, out, dur):
            keys["gl_rule"].add(repr(args) + repr(sorted(kwargs.items())))

        def adaptive(args, kwargs, out, dur):
            c["subdivisions"] += out.subdivisions
            c["adaptive_not_converged"] += not out.converged

        def apply(args, kwargs, out, dur):
            n = args[0].n
            c["flops"] += 2 * n * n

        def neumann(args, kwargs, out, dur):
            c["neumann_terms"] += out.n_terms
            c["neumann_nonconverged"] += out.status != "converged"

        def constants(args, kwargs, out, dur):
            c["bounds_samples"] += sum(out.sample_counts)

        def certify(args, kwargs, out, dur):
            c["bounds_samples"] += sum(cert.sample_count for cert in out)

        posts = {
            "perturbation.SeriesEngine.__init__": engine,
            "perturbation.series_batch": batch,
            "quadrature.gauss_legendre_rule": gl_rule,
            "quadrature._adaptive": adaptive,
            "matrix_kernels.apply": apply,
            "matrix_kernels.neumann_series": neumann,
            "bounds.estimate_constants": constants,
            "bounds.certify": certify,
            "measures.PerturbingMeasure.q": points("q_points"),
        }
        for name in KERNEL_CALLS:
            posts[name] = points("kernel_points")
        return posts

    # -- results ---------------------------------------------------------------

    def _stat(self, name, field):
        i = self._ids.get(name)
        return self.stats[i][field] if i is not None else 0

    def calls(self, *names):
        return sum(self._stat(n, 0) for n in names)

    def total(self, *names):
        return sum(self._stat(n, 1) for n in names)

    def self_time(self, *names):
        return sum(self._stat(n, 2) for n in names)

    def layer_self(self, layer):
        return sum(s[2] for n, s in zip(self.names, self.stats)
                   if n.split(".", 1)[0] == layer)

    def summary(self) -> dict:
        """Per-layer metrics, by the names BENCHMARK.json declares."""
        c = self.counts
        engines = self.calls("perturbation.SeriesEngine.__init__")
        kcalls = self.calls(*KERNEL_CALLS)
        m = {f"{layer}.self_s": self.layer_self(layer) for layer in LAYERS}
        m.update({
            "cli.load_config.calls": self.calls("cli.load_config"),
            "cli.load_config.self_s": self.self_time("cli.load_config"),
            "perturbation.engines": engines,
            "perturbation.engine_distinct": len(self.keys["engines"]),
            "perturbation.engine_reuse_ratio":
                len(self.keys["engines"]) / engines if engines else 1.0,
            "perturbation.grid_levels":
                self.calls("perturbation.SeriesEngine._grid_level"),
            "perturbation.grid_level.self_s":
                self.self_time("perturbation.SeriesEngine._grid_level"),
            "perturbation.ratios.calls":
                self.calls("perturbation.SeriesEngine.ratios"),
            "perturbation.ratios.self_s":
                self.self_time("perturbation.SeriesEngine.ratios"),
            "perturbation.splines_built": self.calls("perturbation.spline_build"),
            "perturbation.spline_evals": self.calls("perturbation.spline_eval"),
            "perturbation.spline_eval.s": self.total("perturbation.spline_eval"),
            "perturbation.series_batch.calls":
                self.calls("perturbation.series_batch"),
            "perturbation.series_points": c["series_points"],
            "perturbation.atom_series.s": c["atom_series_s"],
            "perturbation.p1_ratio.calls": self.calls("perturbation.p1_ratio"),
            "perturbation.p1_ratio.s": self.total("perturbation.p1_ratio"),
            "perturbation.multi_atom.calls":
                self.calls("perturbation.MultiAtomOperator.series_at"),
            "perturbation.multi_atom.s":
                self.total("perturbation.MultiAtomOperator.series_at"),
            "spacetime.kernel_calls": kcalls,
            "spacetime.kernel_points": c["kernel_points"],
            "spacetime.points_per_call":
                c["kernel_points"] / kcalls if kcalls else 0.0,
            "spacetime.kernel.self_s": self.self_time(*KERNEL_CALLS),
            "spacetime.kato_inner.calls":
                self.calls("spacetime.kato_inner_integral"),
            "spacetime.kato_inner.self_s":
                self.self_time("spacetime.kato_inner_integral"),
            "spacetime.kappa_slice_ratio.calls":
                self.calls("spacetime.kappa_slice_ratio"),
            "spacetime.kappa_slice_ratio.self_s":
                self.self_time("spacetime.kappa_slice_ratio"),
            "quadrature.gl_rule.calls":
                self.calls("quadrature.gauss_legendre_rule"),
            "quadrature.gl_rule.distinct": len(self.keys["gl_rule"]),
            "quadrature.gl_rule.s": self.total("quadrature.gauss_legendre_rule"),
            "quadrature.integrate_1d.calls": self.calls("quadrature.integrate_1d"),
            "quadrature.adaptive.self_s": self.self_time("quadrature._adaptive"),
            "quadrature.subdivisions": c["subdivisions"],
            "quadrature.not_converged": c["adaptive_not_converged"],
            "measures.q.calls": self.calls("measures.PerturbingMeasure.q"),
            "measures.q.points": c["q_points"],
            "measures.q.self_s": self.self_time("measures.PerturbingMeasure.q"),
            "matrix_kernels.apply.calls": self.calls("matrix_kernels.apply"),
            "matrix_kernels.apply.self_s": self.self_time("matrix_kernels.apply"),
            "matrix_kernels.flops_computed": c["flops"],
            "matrix_kernels.kernels_built":
                self.calls("matrix_kernels.MatrixKernel.__post_init__"),
            "matrix_kernels.neumann.calls":
                self.calls("matrix_kernels.neumann_series"),
            "matrix_kernels.neumann.terms": c["neumann_terms"],
            "matrix_kernels.neumann.nonconverged": c["neumann_nonconverged"],
            "matrix_kernels.identity_checks.s": self.total(*IDENTITY_CHECKS),
            "bounds.estimate_constants.calls":
                self.calls("bounds.estimate_constants"),
            "bounds.estimate_constants.self_s":
                self.self_time("bounds.estimate_constants"),
            "bounds.certify.self_s": self.self_time("bounds.certify"),
            "bounds.samples": c["bounds_samples"],
            "trace.spans": len(self.span_name),
        })
        return m

    def dump(self, path_prefix):
        """Write the spans (binary arrays) and the name table (JSON)."""
        with open(f"{path_prefix}.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "layout": "int32 name, int32 parent, int32 op, "
                                 "float64 start, float64 end; one array "
                                 "after the other"}, fh, indent=1)
            fh.write("\n")
