"""Outside-in tracing of wolfflab's layers for the benchmark's traced run.

Every listed public function is wrapped at every site that binds it
(modules use ``from .x import y``, so one function can have several
bindings), and methods are wrapped on their class.  A span is kept in
memory as (id, name, start_ns, end_ns, parent, thread, count, raised);
parents come from a thread-local stack, and a span opened on a thread with
an empty stack is parented to the span open on the installing thread, so
the worker spans of ``wolfflab suite --threads 2`` are children of
``cli.main``.  Spans are written once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _arg_size(args, result):
    return int(np.size(args[1])) if len(args) > 1 else 0


def _nodes(args, result):
    return int(result[0].size)


def _distances(args, result):
    return len(result.grid)


# (module, attribute, span name, counter).  Several functions may share a
# span name; the counter turns a call into the layer's unit of work.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "run_check_instance", "cli.run_check_instance", None),
    ("config", "load_config", "config.load_config", None),
    ("families", "random_density", "families.random_density", None),
    ("quadrature", "panelize", "quadrature.panelize", None),
    ("quadrature", "panel_nodes", "quadrature.panel_nodes", _nodes),
    ("measure", "RadialDensity.__init__", "measure.RadialDensity.init", None),
    ("measure", "multiply_radial", "measure.multiply_radial", None),
    ("measure", "integrate_against", "measure.integrate_against", None),
    ("measure", "RadonMeasure.centered_mass", "measure.centered_mass", _arg_size),
    ("wolff", "wolff_profile", "wolff.wolff_profile", _distances),
    ("wolff", "wolff", "wolff.wolff", None),
    ("wolff", "wolff_sup_on_support", "wolff.wolff_sup_on_support", None),
    ("radial_pde", "solve_radial_p_laplace", "radial_pde.solve_radial_p_laplace", None),
    ("radial_pde", "RadialFunction.eval", "radial_pde.RadialFunction.eval", _arg_size),
    ("radial_pde", "dirichlet_energy", "radial_pde.dirichlet_energy", None),
    ("radial_pde", "riesz_ball_mass", "radial_pde.riesz_ball_mass", None),
    ("energy", "wolff_energy", "energy.wolff_energy", None),
    ("energy", "sigma_energy", "energy.sigma_energy", None),
    ("energy", "mutual_energy", "energy.mutual_energy", None),
    ("energy", "generalized_energy", "energy.generalized_energy", None),
    ("energy", "check_mutual_energy_estimate", "energy.checks", None),
    ("energy", "check_quasi_triangle", "energy.checks", None),
    ("energy", "check_picone_caccioppoli", "energy.checks", None),
    ("energy", "check_weighted_norm", "energy.checks", None),
    ("lorentz", "lorentz_norm", "lorentz.lorentz_norm", None),
    ("lorentz", "check_lorentz_embedding", "lorentz.checks", None),
    ("lorentz", "check_density_conditions", "lorentz.checks", None),
    ("solver", "solve_minimal", "solver.solve", None),
    ("solver", "solve_bounded_endpoint", "solver.solve", None),
    ("solver", "intrinsic_fixed_point", "solver.solve", None),
    ("solver", "initial_subsolution", "solver.initial_subsolution", None),
]


class Tracer:
    """Wraps the TARGETS while installed and records one span per call."""

    def __init__(self):
        self.names = sorted({t[2] for t in TARGETS})
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    # -- install / uninstall ----------------------------------------------
    def install(self):
        self._main_stack = self._stack()
        modules = {t[0]: importlib.import_module(f"wolfflab.{t[0]}")
                   for t in TARGETS}
        packages = [m for name, m in list(sys.modules.items())
                    if name == "wolfflab" or name.startswith("wolfflab.")]
        for modname, attr, span, counter in TARGETS:
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, span, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, span, counter)
            for m in packages:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def _patch(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, orig, span, counter):
        name_id = self.names.index(span)
        spans, ids, now = self.spans, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(ids)
            stack.append(sid)
            raised = True
            t0 = now()
            try:
                result = orig(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = now()
                stack.pop()
                count = counter(args, result) if counter and not raised else 0
                spans.append((sid, name_id, t0, t1, parent,
                              threading.get_ident(), count, raised))
        return wrapper

    # -- output ------------------------------------------------------------
    def arrays(self) -> dict:
        cols = list(zip(*self.spans)) if self.spans else [()] * 8
        keys = ("id", "name", "start_ns", "end_ns", "parent", "thread",
                "count", "raised")
        out = {k: np.asarray(c, dtype=np.int64) for k, c in zip(keys, cols)}
        threads = {t: i for i, t in enumerate(sorted(set(out["thread"].tolist())))}
        out["thread"] = np.asarray([threads[t] for t in out["thread"].tolist()],
                                   dtype=np.int64)
        out["names"] = np.asarray(self.names)
        return out

    def write(self, path):
        np.savez_compressed(path, **self.arrays())


def layer_stats(tracer: Tracer) -> dict:
    """Per span name: calls, count, busy_s (outermost same-name spans),
    self_s (duration minus the union of child intervals), raised calls,
    and per span the number of direct children of each name."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    stats = {n: {"calls": 0, "count": 0, "busy_ns": 0, "self_ns": 0,
                 "raised": 0} for n in tracer.names}
    for s in spans:
        sid, name_id, t0, t1, parent = s[:5]
        st = stats[tracer.names[name_id]]
        st["calls"] += 1
        st["count"] += s[6]
        st["raised"] += s[7]
        st["self_ns"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        outermost = True
        p = parent
        while p:
            anc = by_id.get(p)
            if anc is None:
                break
            if anc[1] == name_id:
                outermost = False
                break
            p = anc[4]
        if outermost:
            st["busy_ns"] += t1 - t0
    return stats


def _covered(kids, t0, t1) -> int:
    """Length of the union of the child intervals, clipped to [t0, t1]."""
    total, end = 0, t0
    for _, _, a, b, *_ in sorted(kids, key=lambda k: k[2]):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def direct_children(tracer: Tracer, parent_name: str, child_name: str):
    """For each span named parent_name: (raised, number of direct children
    named child_name)."""
    pid = tracer.names.index(parent_name)
    cid = tracer.names.index(child_name)
    kids = defaultdict(int)
    for s in tracer.spans:
        if s[1] == cid:
            kids[s[4]] += 1
    return [(bool(s[7]), kids.get(s[0], 0)) for s in tracer.spans if s[1] == pid]
