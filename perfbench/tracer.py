"""Span tracer for the traced benchmark run.

The tracer wraps logdiv from outside the package: every public
module-level function, every constructor and every public method of the
classes each layer module defines.  Each wrapper records one span
(name, start, end, parent) per call.  A function imported by name into
another module (``from .groebner import buchberger``) is rebound there
too, so no call path bypasses its wrapper; ``install`` checks this.

Spans stay in memory until the pass ends; ``summary`` turns them into
per-name call counts, inclusive times, self times (span minus child
spans) and the layer counters the benchmark reports.

Untraced passes never import this module.
"""

import functools
import importlib
import time
import types

LAYERS = ("cli", "cylinder", "poly", "groebner", "linalg", "logder",
          "classify", "cohomology")

# Hot value-type helpers called millions of times per pass.  Wrapping
# them would multiply the traced wall time, so they stay unwrapped and
# their time counts as self time of the layer that calls them.
UNWRAPPED = {
    "poly.m_mul", "poly.m_div", "poly.m_divides", "poly.m_lcm",
    "poly.m_degree", "poly.m_weighted_degree", "poly.degrevlex_key",
    "poly.Polynomial", "poly.WeightSystem", "poly.PolyMatrix",
    "groebner.DegRevLex", "groebner.Lex", "groebner.WeightedDegRevLex",
    "logder.VectorField",
}


def _observe_rref(args, kwargs, result):
    rows, ncols = args[0], args[1]
    nnz = sum(1 for row in rows for x in row if x)
    return (len(rows), ncols, nnz)


def _observe_len(args, kwargs, result):
    return len(result)


def _observe_tracked(args, kwargs, result):
    return len(args[0]._flat)


def _observe_dims(args, kwargs, result):
    cx = args[0]
    return (cx.dim_c1, cx.dim_c2)


def _observe_result(args, kwargs, result):
    return result


# span name -> function of (args, kwargs, result) whose value is kept on
# the span as its payload
OBSERVERS = {
    "linalg.rref": _observe_rref,
    "groebner.buchberger": _observe_len,
    "groebner.TrackedBasis": _observe_tracked,
    "groebner.GroebnerBasis.reduces_to_zero": _observe_result,
    "cohomology.SliceComplex": _observe_dims,
    "cohomology.CEComplex": _observe_dims,
}


class Tracer:
    """Owns the spans of one traced process and the patches that feed it."""

    def __init__(self):
        # span: [name, start, end, parent index (-1 at the root), payload]
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer of logdiv and rebind every import of a wrapped
        function; raises if an unwrapped reference remains."""
        modules = {layer: importlib.import_module(f"logdiv.{layer}")
                   for layer in LAYERS}
        modules[""] = importlib.import_module("logdiv")
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)][1])
        self._check_rebound(modules, wrapped)

    def _wrap_class(self, name, cls):
        # A constructor's span is named after the class; its observer reads
        # the built instance from args[0].
        for attr, fn in list(vars(cls).items()):
            if not isinstance(fn, types.FunctionType):
                continue
            if attr == "__init__":
                self._set(cls, attr, self._wrap(name, fn))
            elif not attr.startswith("_"):
                self._set(cls, attr, self._wrap(f"{name}.{attr}", fn))

    @staticmethod
    def _check_rebound(modules, wrapped):
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped:
                    raise RuntimeError(f"{mod.__name__}.{attr} is still unwrapped")
                for default in getattr(obj, "__defaults__", None) or ():
                    if id(default) in wrapped:
                        raise RuntimeError(
                            f"a default of {mod.__name__}.{attr} is unwrapped")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Aggregate the recorded spans.

        Returns ``{"calls": {name: n}, "incl_s": {name: s},
        "self_s": {name: s}, "layer_self_s": {layer: s}, "facts": {...}}``.
        Inclusive time counts only the outermost span of a recursive
        chain, so it never exceeds the wall time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, incl, self_s, layer_self = {}, {}, {}, {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if not self._has_ancestor(spans, parent, name):
                incl[name] = incl.get(name, 0.0) + dur
        return {"calls": calls, "incl_s": incl, "self_s": self_s,
                "layer_self_s": layer_self, "facts": self._facts()}

    @staticmethod
    def _has_ancestor(spans, parent, name):
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def _facts(self):
        spans = self.spans
        facts = {"linalg.cells": 0, "linalg.nnz": 0, "linalg.max_rows": 0,
                 "linalg.max_cols": 0, "groebner.basis_len": 0,
                 "logder.find_saito_basis.tries": 0,
                 "logder.find_saito_basis.kept": 0,
                 "cohomology.dim_c1.max": 0, "cohomology.dim_c2.max": 0}
        for name, _, _, parent, payload in spans:
            if name == "linalg.rref":
                rows, cols, nnz = payload
                facts["linalg.cells"] += rows * cols
                facts["linalg.nnz"] += nnz
                facts["linalg.max_rows"] = max(facts["linalg.max_rows"], rows)
                facts["linalg.max_cols"] = max(facts["linalg.max_cols"], cols)
            elif name in ("groebner.buchberger", "groebner.TrackedBasis"):
                facts["groebner.basis_len"] += payload
                if (name == "groebner.buchberger" and self._has_ancestor(
                        spans, parent, "logder.find_saito_basis")):
                    facts["logder.find_saito_basis.tries"] += 1
            elif name == "groebner.GroebnerBasis.reduces_to_zero":
                if payload is False and self._has_ancestor(
                        spans, parent, "logder.find_saito_basis"):
                    facts["logder.find_saito_basis.kept"] += 1
            elif name in ("cohomology.SliceComplex", "cohomology.CEComplex"):
                c1, c2 = payload
                facts["cohomology.dim_c1.max"] = max(facts["cohomology.dim_c1.max"], c1)
                facts["cohomology.dim_c2.max"] = max(facts["cohomology.dim_c2.max"], c2)
        return facts
