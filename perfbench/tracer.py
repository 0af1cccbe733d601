"""Spans around the public entry points of each pcapflow module.

The tracer installs wrappers from outside the program, in every namespace
where a caller looks a name up:

* ``integrate`` is bound by name in ``numerics`` (used by
  ``CumulativeIntegral``), ``radial`` and ``geometry``; ``verify`` imports it
  from ``numerics`` at call time;
* ``find_root`` is bound by name in ``numerics`` and ``radial``;
* ``solve_spd`` is bound by name in ``solver2d``;
* ``functionals`` calls ``radial_level`` as a module global, and ``Field2D``
  calls ``extract_level`` as one;
* methods (``CumulativeIntegral.__call__``, the ``RadialPotential``
  evaluators, ``Field2D.derived``) are wrapped on their class.

A span records its name, start, end and parent and stays in memory until
the run ends.  A span's self time is its duration minus the time covered by
its child spans; children of one span never overlap, since the program runs
its Python on one thread.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

# (module, attribute, span name) for module-level functions
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("verify", "run_experiment", "verify.run_experiment"),
    ("functionals", "F_p", "functionals.series"),
    ("functionals", "G_p", "functionals.series"),
    ("functionals", "F_1", "functionals.series"),
    ("functionals", "hawking_series", "functionals.series"),
    ("functionals", "radial_level", "functionals.radial_level"),
    ("radial", "solve_wp", "radial.solve_wp"),
    ("radial", "solve_w1", "radial.solve_w1"),
    ("radial", "solve_wp_eps", "radial.solve_wp_eps"),
    ("radial", "capacity", "radial.capacity"),
    ("solver2d", "solve_2d", "solver2d.solve_2d"),
    ("solver2d", "extract_level", "solver2d.extract_level"),
    ("solver2d", "field_from_radial", "solver2d.field_from_radial"),
    ("numerics", "integrate", "numerics.integrate"),
    ("radial", "integrate", "numerics.integrate"),
    ("geometry", "integrate", "numerics.integrate"),
    ("numerics", "find_root", "numerics.find_root"),
    ("radial", "find_root", "numerics.find_root"),
    ("numerics", "solve_spd", "numerics.solve_spd"),
    ("solver2d", "solve_spd", "numerics.solve_spd"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("numerics", "CumulativeIntegral", "__call__", "numerics.cumulative"),
    ("radial", "RadialPotential", "w", "radial.eval"),
    ("radial", "RadialPotential", "u", "radial.eval"),
    ("radial", "RadialPotential", "grad_norm", "radial.eval"),
    ("radial", "RadialPotential", "theta", "radial.eval"),
    ("radial", "RadialPotential", "level_radius", "radial.level_radius"),
    ("solver2d", "Field2D", "derived", "solver2d.derived"),
)

# model constructors whose f is wrapped with a point counter; euclidean()
# is built from cone() and keeps its counted f
MODEL_CONSTRUCTORS = ("cone", "schwarzschild", "tabulated")


class Tracer:
    """In-memory spans plus counters, installed into the pcapflow modules."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self._active = []
        self._stack = [-1]
        self.counters = defaultdict(float)
        self._saved = []

    # -- recording -------------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, fn, span: str, on_result=None):
        nid = self._nid(span)
        stack = self._stack
        active = self._active
        name, start, end, parent, outer = self.name, self.start, self.end, self.parent, self.outer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_f(self, f):
        counters = self.counters

        def counted(r):
            counters["geometry.f_points"] += getattr(r, "size", 1)
            return f(r)

        return counted

    # -- install / remove ------------------------------------------------
    def install(self) -> None:
        import dataclasses
        import importlib

        mods = {m: importlib.import_module(f"pcapflow.{m}") for m in
                ("cli", "verify", "functionals", "radial", "solver2d", "numerics", "geometry")}
        hooks = {"numerics.solve_spd": self._on_spd, "solver2d.solve_2d": self._on_solve_2d}
        for mod, attr, span in FUNCTION_SPANS:
            orig = getattr(mods[mod], attr)
            self._set(mods[mod], attr, self.wrap(orig, span, hooks.get(span)))
        for mod, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, meth, self.wrap(cls.__dict__[meth], span))
        geometry = mods["geometry"]
        for ctor in MODEL_CONSTRUCTORS:
            orig = getattr(geometry, ctor)

            def counted_ctor(*args, _orig=orig, **kwargs):
                model = _orig(*args, **kwargs)
                return dataclasses.replace(model, f=self._count_f(model.f))

            self._set(geometry, ctor, functools.wraps(orig)(counted_ctor))

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _on_spd(self, args, result) -> None:
        unknowns = len(args[1])
        self.counters["numerics.solve_spd.iterations"] += result.iterations
        self.counters["numerics.solve_spd.dof_iters"] += unknowns * result.iterations

    def _on_solve_2d(self, args, fieldv) -> None:
        self.counters["solver2d.outer_iterations"] += fieldv.outer_iterations
        self.counters["solver2d.unconverged"] += 0 if fieldv.converged else 1

    # -- analysis ----------------------------------------------------------
    def summary(self) -> dict:
        """Per-name call counts, outermost time and self time, per-layer self
        time, and how many cumulative-integral calls were served from memo."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n, k = len(dur), len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        # a span nested in a span of its own name is already inside that one
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        layer_self = defaultdict(float)
        for i, nm in enumerate(self.names):
            layer_self[nm.split(".", 1)[0]] += float(self_s[i])
        cum = name == self._name_ids.get("numerics.cumulative", -1)
        integrate = name == self._name_ids.get("numerics.integrate", -1)
        filled = np.zeros(n, dtype=bool)
        filled[parent[integrate & has_parent]] = True
        return {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "total_s": {nm: float(total_s[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(self_s[i]) for i, nm in enumerate(self.names)},
            "layer_self_s": dict(layer_self),
            "cumulative_calls": int(cum.sum()),
            "cumulative_hits": int((cum & ~filled).sum()),
            "counters": dict(self.counters),
            "spans": n,
        }

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the wrappers installed."""
        for arr in (self.name, self.start, self.end, self.parent, self.outer):
            del arr[:]
        self.counters.clear()
