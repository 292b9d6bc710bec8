"""Span tracing of crflow's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function at the name its caller
resolves (a module global or a class attribute) with a wrapper that records a
span: name, parent span, start and end of the wrapped call, and the time the
wrapper itself spent around it (its overhead, measured on every call).  Spans
stay in memory; `layer_times` turns them into per-layer calls, self time (a
span minus its direct children and their wrappers' overhead) and inclusive
time, hooks at the same boundaries take the exact counts the benchmark
reports, and `dump` writes the spans out.
"""

import functools
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import crflow.cli
import crflow.conformal
import crflow.config
import crflow.constants
import crflow.critical_points
import crflow.flow
import crflow.geometry
import crflow.hquad
import crflow.normalization
import crflow.polynomials
import crflow.spectral

# (layer name, [(owner, attribute), ...]): every name a caller resolves.
# `run` looks up step/diagnostics/curvature_values/mass_concentration in
# crflow.flow and imports find_centering from crflow.normalization when it
# starts; horizontal_grad_sq_values reaches grad_inner_values through
# crflow.spectral, kazdan_warner_vector through crflow.flow.  `cli.main` is
# the command line's own work around the numerical layers: reading the
# scenario, building f and u0, writing the outputs.
TARGETS = (
    ("cli.main", [(crflow.cli, "main")]),
    ("spectral.build_basis", [(crflow.spectral, "build_basis"),
                              (crflow.config, "build_basis")]),
    ("spectral.grad_inner_values", [(crflow.flow, "grad_inner_values"),
                                    (crflow.spectral, "grad_inner_values")]),
    ("spectral.synthesize", [(crflow.spectral.Basis, "synthesize")]),
    ("spectral.project", [(crflow.spectral.Basis, "project")]),
    ("polynomials.evaluate", [(crflow.polynomials.MonomialSpace, "evaluate")]),
    ("polynomials.product_table", [(crflow.polynomials.MonomialSpace,
                                    "product_table")]),
    ("flow.run", [(crflow.flow, "run"), (crflow.cli, "run_flow")]),
    ("flow.step", [(crflow.flow, "step")]),
    ("flow.mass_concentration", [(crflow.flow, "mass_concentration")]),
    ("flow.diagnostics", [(crflow.flow, "diagnostics")]),
    ("flow.kazdan_warner_vector", [(crflow.flow, "kazdan_warner_vector")]),
    ("flow.curvature_values", [(crflow.flow, "curvature_values")]),
    ("normalization.find_centering", [(crflow.normalization, "find_centering")]),
    ("geometry.apply_xy", [(crflow.geometry.CRAutomorphism, "apply_xy")]),
    ("critical_points.find_critical_points", [(crflow.critical_points,
                                               "find_critical_points")]),
    ("conformal.bubble", [(crflow.conformal, "bubble")]),
    ("hquad.heisenberg_integral", [(crflow.constants, "heisenberg_integral"),
                                   (crflow.normalization, "heisenberg_integral"),
                                   (crflow.hquad, "heisenberg_integral")]),
    ("constants.constant", [(crflow.constants, "constant")]),
    ("constants.monte_carlo_constant", [(crflow.constants,
                                         "monte_carlo_constant")]),
    ("normalization.shadow_deficit_ratio", [(crflow.normalization,
                                             "shadow_deficit_ratio")]),
)
LAYERS = tuple(name for name, _ in TARGETS)


class Tracer:
    """Records spans [id, parent, name, start, end, overhead] and exact
    per-layer counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._blowup = []            # blowup_factor of each active flow.run
        self._saved = []

    def _open(self, name):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[3] = perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        leave = getattr(self, "_leave_" + hook, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if before is not None:
                before(args, kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._close(rec)
                if leave is not None:
                    leave()
            if after is not None:
                after(args, kwargs, result)
            rec[5] = (rec[3] - t0) + (perf_counter() - rec[4])
            return result

        return wrapper

    def install(self):
        for name, sites in TARGETS:
            for owner, attr in sites:
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- exact counts taken at the layer boundaries ----------------------

    def _before_flow_run(self, args, kwargs):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        self._blowup.append(config.blowup_factor if config is not None
                            else crflow.flow.FlowConfig().blowup_factor)

    def _leave_flow_run(self):
        self._blowup.pop()

    def _before_flow_mass_concentration(self, args, kwargs):
        # useful when the concentration stop test could fire on this call:
        # the test is `mass > threshold and max_u > blowup_factor`
        if self._blowup and float(np.max(args[0].real_values)) > self._blowup[-1]:
            self.counts["flow.mass_concentration.useful"] += 1

    def _after_spectral_build_basis(self, args, kwargs, basis):
        self.counts["spectral.basis_bytes"] = max(
            self.counts["spectral.basis_bytes"],
            basis.funcs.nbytes + basis.analysis.nbytes)

    def _after_flow_step(self, args, kwargs, result):
        dt = args[2] if len(args) > 2 else kwargs["dt"]
        new_state, dt_used = result
        halvings = round(math.log2(dt / dt_used))
        self.counts["flow.step.halvings"] += halvings
        # computed, not measured: each RK4 attempt reads `funcs` six times
        # (four stages, the renormalization, the new field's values) and
        # `analysis` four times (the stage projections)
        basis = new_state.u.basis
        self.counts["flow.step.matrix_bytes"] += (1 + halvings) * (
            6 * basis.funcs.nbytes + 4 * basis.analysis.nbytes)

    def _after_normalization_find_centering(self, args, kwargs, result):
        self.counts["normalization.find_centering.iterations"] += result.iterations
        if not result.converged:
            self.counts["normalization.find_centering.failures"] += 1

    # -- reduction --------------------------------------------------------

    def layer_times(self):
        """{name: [calls, self seconds, inclusive seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, overhead in self.spans:
            if parent is not None:
                child[parent] += t1 - t0 + overhead
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, t0, t1, _ in self.spans:
            out[name][0] += 1
            out[name][1] += (t1 - t0) - child[sid]
            out[name][2] += t1 - t0
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, overhead in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1,
                                     "overhead": overhead}) + "\n")
