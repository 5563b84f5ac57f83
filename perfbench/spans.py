"""Per-layer tracing from outside the library.

:class:`Tracer` replaces the public functions of each freeconv module, in
every module namespace that holds them, and a few named methods, with
wrappers that time each call.  A span records (id, name, start, end, parent,
op); a layer's self time is a span's duration minus the time of the wrapped
calls made inside it.  Methods called once per coefficient (``TPoly``
arithmetic, the word-substitution helper) are timed and counted but keep no
span, so the trace stays small.  Everything is restored by :meth:`remove`.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("coeffs", "series", "transforms", "functionals", "convolutions",
          "evolution", "multivariate", "oracle", "docs", "cli")

# Two one-line predicates called for every coefficient; a wrapper would cost
# more than they do, so their time stays with the caller.
UNWRAPPED = {"coeffs.is_zero", "coeffs.as_coeff"}

# (module, class, attribute, span name, keep spans)
METHODS = (
    ("coeffs", "TPoly", "__mul__", "coeffs.tpoly_mul", False),
    ("coeffs", "TPoly", "__rmul__", "coeffs.tpoly_mul", False),
    ("coeffs", "TPoly", "__truediv__", "coeffs.tpoly_truediv", False),
    ("series", "TruncSeries", "__mul__", "series.mul", True),
    ("series", "TruncSeries", "reciprocal", "series.reciprocal", True),
    ("series", "TruncSeries", "compose", "series.compose", True),
    ("series", "TruncSeries", "reversion", "series.reversion", True),
    ("series", "LaurentAtInfinity", "compose_descending",
     "series.compose_descending", True),
)

# Private helpers that are counted, without spans.
HELPERS = (("multivariate", "_apply_w_substitution",
            "multivariate._apply_w_substitution"),)

# Named after its first argument, so each catalog entry gets its own name.
BY_ENTRY = "evolution.verify"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._undo = []
        # per traced pass: {(name, op): (calls, self seconds, inclusive seconds)}
        self.passes = []

    # -- installing ------------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"freeconv.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(name, obj, True)
        for layer, attr, name in HELPERS:
            obj = getattr(mods[layer], attr)
            wrappers[obj] = self._wrap(name, obj, False)
        namespaces = list(mods.values()) + [importlib.import_module("freeconv")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        for layer, cls_name, attr, name, keep in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], keep))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn, keep):
        stack = self._stack
        by_entry = name == BY_ENTRY

        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0]}" if by_entry else name
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                acc = self._acc[(label, self.op)]
                acc[0] += 1
                acc[1] += took - frame[0]
                acc[2] += took
                if keep:
                    self.spans.append((frame[1], label, start, end,
                                       stack[-1][1] if stack else None,
                                       len(self.passes), self.op))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- passes --------------------------------------------------------------------

    def begin_pass(self):
        self._acc = defaultdict(lambda: [0, 0.0, 0.0])

    def end_pass(self, factors):
        """Close a pass; the times within op ``o`` are multiplied by
        ``factors[o]``, that op's speed factor."""
        self.passes.append({(name, op): (n, own * factors[op], incl * factors[op])
                            for (name, op), (n, own, incl) in self._acc.items()})

    # -- summaries -------------------------------------------------------------

    def _median(self, field, keep):
        """Median over passes of ``field`` summed over the keys ``keep``
        accepts."""
        return statistics.median(
            sum(v[field] for k, v in p.items() if keep(*k))
            for p in self.passes)

    def calls(self, name):
        return self._median(0, lambda n, op: n == name)

    def self_s(self, prefix):
        """Median over passes of the self time of ``prefix`` and its children
        in the name hierarchy (``series`` covers every ``series.*`` name)."""
        return self._median(
            1, lambda n, op: n == prefix or n.startswith(prefix + "."))

    def total_s(self, name):
        """Median over passes of the inclusive time of ``name``."""
        return self._median(2, lambda n, op: n == name)

    def op_seconds(self, name):
        """{op: median inclusive seconds of ``name`` within that op}."""
        ops = {op for p in self.passes for (n, op) in p if n == name}
        return {op: self._median(2, lambda n, o, op=op: n == name and o == op)
                for op in ops}
