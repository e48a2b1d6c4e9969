"""Spans and counters around nedlab's layers, installed from outside.

Nothing in nedlab changes: :func:`install` replaces public functions,
the module-level helpers ``_integrate_ensemble``, ``_single_linkage`` and
``_band_sup``, the ``solve_ivp``/``quad`` names bound in the process,
attractor and parabolic modules, and the ``matrix``/``propagate``/
``certify`` methods of the process and spec classes with wrappers that
record a span (name, start, end, parent) or bump a counter.  A function
re-exported under several modules is patched in every one of them.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
Untraced runs never import this module.
"""

import collections
import functools
import inspect
import json
import math
import time

import numpy as np

import nedlab
import nedlab.attractor as A
import nedlab.cli as C
import nedlab.dichotomy as D
import nedlab.gallery as G
import nedlab.parabolic as PB
import nedlab.process as P
import nedlab.robustness as R

MODULES = (nedlab, P, D, G, R, A, PB, C)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []            # [name, start, end, parent index, nested in same name]
        self.stack = []
        self.active = collections.Counter()
        self.counters = collections.Counter()
        self._patches = []

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """Wrap fn in a span; on_exit(arguments, result) may bump counters."""
        tracer = self
        signature = inspect.signature(fn) if on_exit is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                      tracer.active[name] > 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.active[name] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
            if on_exit is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_exit(bound.arguments, result, record)
            return result
        return traced

    def count(self, fn, on_call):
        """Wrap fn so that on_call(result) runs after each traced call."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                on_call(result)
            return result
        return counted

    def reset(self):
        self.spans, self.stack = [], []
        self.active.clear()
        self.counters.clear()

    # -- patching ----------------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, fn, replacement):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -------------------------------------------------------------------

    def totals(self):
        """Per span name: busy seconds (outermost spans only), calls, and
        self seconds (duration minus the time of direct child spans)."""
        busy, calls, own = (collections.Counter() for _ in range(3))
        child = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            if not nested:
                busy[name] += end - start
        return busy, calls, own

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], round(a, 9), round(b, 9), p]
                                 for n, a, b, p, _ in self.spans],
                       "counters": dict(self.counters)}, fh)


def _box_points(args):
    (a_lo, a_hi), (d_lo, d_hi) = args["box"]
    res = args["resolution"]
    alphas = np.arange(a_lo, a_hi + res / 2, res).size
    deltas = np.arange(d_lo, d_hi + res / 2, res).size
    return alphas * deltas * len(args["windows"]) * len(args["projection_kinds"])


def install(tracer):
    """Install every wrapper; they record only while tracer.enabled."""
    c = tracer.counters
    everywhere = lambda name, fn, on_exit=None: tracer.patch_everywhere(
        fn, tracer.span(name, fn, on_exit))

    def ode(prefix):
        def on_call(sol):
            c[prefix + ".solves"] += 1
            c[prefix + ".nfev"] += int(sol.nfev)
        return on_call

    def calls(key):
        def on_call(result):
            c[key] += 1
        return on_call

    # process layer
    def grid_pairs(args, result, record):
        n = args["grid"].mesh().size
        c["process.sample_norm_grid.pairs"] += (n * (n + 1) // 2 if args["part"] == "stable"
                                                else n * (n - 1) // 2)
        c["process.sample_norm_grid.poisoned"] += len(result.poisoned)
    everywhere("process.sample_norm_grid", P.sample_norm_grid, grid_pairs)
    everywhere("process.spectral_norm", P.spectral_norm)

    def band_eval(args, result, record):
        # One band evaluation per outermost matrix call made inside a band sup.
        if tracer.active["robustness.band_sup"] and not record[4]:
            c["robustness.band_evals"] += 1
    for cls in (P.ScalarExponentProcess, P.MatrixClosedFormProcess, P.IntegratedLinearProcess):
        tracer.patch(cls, "matrix", tracer.span("process.matrix", cls.matrix, band_eval))
    tracer.patch(P, "solve_ivp", tracer.count(P.solve_ivp, ode("process.ode")))
    tracer.patch(P, "quad", tracer.count(P.quad, calls("process.quad.calls")))

    # dichotomy layer
    def box(args, result, record):
        c["dichotomy.nedi_rejection_evidence.box_points"] += _box_points(args)
    everywhere("dichotomy.nedi_rejection_evidence", D.nedi_rejection_evidence, box)

    def alphas(args, result, record):
        c["dichotomy.fit_bounds.alphas"] += len(args["alpha_grid"])
    everywhere("dichotomy.fit_bounds", D.fit_bounds, alphas)
    everywhere("dichotomy.check_certificate", D.check_certificate)
    everywhere("dichotomy.classify", D.classify)

    # robustness layer
    everywhere("robustness.robust_nedii_pipeline", R.robust_nedii_pipeline)
    everywhere("robustness.perturbation_distance", R.perturbation_distance)
    everywhere("robustness.growth_constant", R.growth_constant)
    tracer.patch(R, "_band_sup", tracer.span("robustness.band_sup", R._band_sup))

    # attractor layer
    def section(args, result, record):
        c["attractor.sections"] += 1
        c["attractor.simulate_pullback_omega.depth"] += result.depth_used
        c["attractor.simulate_pullback_omega.escaped"] += result.poisoned
        c["attractor.converged"] += int(result.converged)
    everywhere("attractor.simulate_pullback_omega", A.simulate_pullback_omega, section)
    everywhere("attractor.simulate_forward_omega", A.simulate_forward_omega)
    everywhere("attractor.comparison_bound", A.comparison_bound)
    tracer.patch(A, "solve_ivp", tracer.count(A.solve_ivp, ode("attractor.ode")))
    tracer.patch(A, "quad", tracer.count(A.quad, calls("attractor.quad.calls")))

    ensemble = A._integrate_ensemble

    def counted_ensemble(field, *args, **kwargs):
        if not tracer.enabled:
            return ensemble(field, *args, **kwargs)

        def counted_field(t, x):
            c["attractor.field_calls"] += 1
            return field(t, x)
        return ensemble(counted_field, *args, **kwargs)
    tracer.patch(A, "_integrate_ensemble",
                 tracer.span("attractor.integrate_ensemble", counted_ensemble))

    def linkage(args, result, record):
        c["attractor.cluster_points"] += args["points"].shape[0]
    tracer.patch(A, "_single_linkage",
                 tracer.span("attractor.single_linkage", A._single_linkage, linkage))
    tracer.patch(A.DissipativitySpec, "certify",
                 tracer.span("attractor.certify", A.DissipativitySpec.certify))

    def propagate(result):
        if tracer.active["attractor.comparison_bound"]:
            c["attractor.comparison.propagate_calls"] += 1
    tracer.patch(P.ScalarExponentProcess, "propagate",
                 tracer.count(P.ScalarExponentProcess.propagate, propagate))

    # parabolic layer
    def strang(args, result, record):
        proc, t, s = args["self"], args["t"], args["s"]
        if not proc.separable and t != s:
            c["parabolic.strang_steps"] += max(1, int(math.ceil((t - s) / proc.dt)))
    tracer.patch(PB.PDEProcess, "matrix",
                 tracer.span("parabolic.pde_matrix", PB.PDEProcess.matrix, strang))
    everywhere("parabolic.principal_bundle", PB.principal_bundle)
    everywhere("parabolic.voc_check", PB.variation_of_constants_check)
    everywhere("parabolic.attractor_demo", PB.parabolic_attractor_demo)
    tracer.patch(PB, "solve_ivp", tracer.count(PB.solve_ivp, ode("parabolic.ode")))
    tracer.patch(PB, "quad", tracer.count(PB.quad, calls("parabolic.quad.calls")))

    # gallery and command line
    everywhere("gallery.make_entry", G.make_entry)
    everywhere("cli.run", C.run)


def layer_metrics(tracer, passes):
    """Per-pass means of the per-layer metrics recorded over `passes`."""
    busy, calls, own = tracer.totals()
    c = tracer.counters
    out = {}
    for name in calls:
        out[name + ".s"] = busy[name] / passes
        out[name + ".self_s"] = own[name] / passes
        out[name + ".calls"] = calls[name] / passes
    for key, value in c.items():
        out[key] = value / passes
    out["attractor.converged_ratio"] = (c["attractor.converged"] / c["attractor.sections"]
                                        if c["attractor.sections"] else 0.0)
    out["attractor.field_calls_per_nfev"] = (c["attractor.field_calls"] / c["attractor.ode.nfev"]
                                             if c["attractor.ode.nfev"] else 0.0)
    return out
