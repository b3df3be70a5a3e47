"""Layer tracer for one ``gentile`` CLI invocation.

The tracer wraps each layer's public functions from outside the package.
It replaces the function in its defining module and every other binding
of the same object in a loaded ``gentile`` module (``from .x import f``
copies), so calls made across module boundaries are seen.

Each outermost call of a layer function opens a span.  A span records
(layer, function, start, end, parent index, invocation id); spans stay in
memory and are written out when the invocation ends.  Two kinds of call
are too frequent to record one by one:

* recursive re-entries of ``eval_expr``, ``expand_free`` and
  ``_normal_order`` are counted but open no span;
* ``LaurentScalar`` arithmetic is a hot leaf: it is counted, and its time
  is added to the enclosing span's ``leaf_s`` and to the laurent layer's
  total instead of opening a span.

A layer's self time is a span's duration minus the time its child spans
and leaf operations cover (see :func:`self_times`).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# layer name -> defining module; public functions are found by inspection
LAYER_MODULES = {
    "cli": "gentile.cli",
    "catalog": "gentile.catalog",
    "audit": "gentile.audit",
    "symbolic.parser": "gentile.symbolic.parser",
    "symbolic.freepoly": "gentile.symbolic.freepoly",
    "symbolic.quotient": "gentile.symbolic.quotient",
    "laurent": "gentile.laurent",
    "rep": "gentile.rep",
    "linalg": "gentile.linalg",
    "oscillator": "gentile.oscillator",
    "coherent": "gentile.coherent",
    "su2": "gentile.su2",
}

# public methods traced in addition to module-level functions
METHODS = {
    "symbolic.quotient": {"QuotientPoly": ("eval_rep",)},
}

# hot leaf operations: counted and timed in aggregate, never spanned
LAURENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
               "eval_at", "subs_unit")

# recursive functions whose re-entries are counted, not spanned
REENTRANT = {("audit", "eval_expr"), ("symbolic.freepoly", "expand_free")}

# span record fields
LAYER, FUNC, START, END, PARENT, INVOCATION, LEAF_S = range(7)


def _terms_out(result) -> int:
    return len(result.terms)


def _square_dim(args) -> int:
    return int(args[0].shape[0]) ** 2


# (layer, function) -> (counter fed from the arguments, from the result)
_COUNT_ARGS = {("linalg", "hermitian_eigen"): ("linalg.eigen_d2_sum",
                                                _square_dim)}
_COUNT_RESULT = {
    ("symbolic.freepoly", "expand_free"): ("symbolic.freepoly.terms_out",
                                           _terms_out),
    ("symbolic.quotient", "normal_order"): ("symbolic.quotient.terms_out",
                                            _terms_out),
    ("catalog", "build_catalog"): ("catalog.entries", len),
}
# every call of a recursive function, re-entries included
_NODE_COUNTERS = {
    ("audit", "eval_expr"): "audit.eval_nodes",
    ("symbolic.freepoly", "expand_free"): "symbolic.freepoly.nodes",
}
_CALL_COUNTERS = {
    ("audit", "eval_expr"): "audit.eval_calls",
    ("symbolic.freepoly", "expand_free"): "symbolic.freepoly.calls",
    ("symbolic.quotient", "normal_order"): "symbolic.quotient.calls",
    ("rep", "build_rep"): "rep.build_calls",
    ("rep", "bracket_number"): "rep.bracket_calls",
    ("linalg", "hermitian_eigen"): "linalg.eigen_calls",
    ("linalg", "max_abs_diff"): "linalg.diff_calls",
}
_LAURENT_COUNTERS = {
    "__mul__": "laurent.mul_ops",
    "__add__": "laurent.add_ops",
    "__sub__": "laurent.add_ops",
    "eval_at": "laurent.eval_ops",
    "laurent_eval": "laurent.eval_ops",
}


class Tracer:
    """Spans and counters of one invocation; install once per process."""

    def __init__(self, invocation_id: int = 0):
        self.invocation_id = invocation_id
        self.spans: list = []
        self.counts: dict = {}
        self.laurent_s = 0.0
        self._stack: list = []      # indices of open spans
        self._laurent_depth = 0
        self._restore: list = []    # (owner, attribute, original)

    # -- counters -------------------------------------------------------
    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, layer: str, name: str, fn):
        key = (layer, name)
        reentrant = key in REENTRANT
        calls = _CALL_COUNTERS.get(key)
        from_args = _COUNT_ARGS.get(key)
        from_result = _COUNT_RESULT.get(key)
        nodes = _NODE_COUNTERS.get(key)
        spans, stack, tracer = self.spans, self._stack, self
        active = [False]

        def wrapper(*args, **kwargs):
            if nodes:
                tracer.count(nodes)
            if reentrant and active[0]:
                return fn(*args, **kwargs)
            if calls:
                tracer.count(calls)
            if from_args:
                tracer.count(from_args[0], from_args[1](args))
            index = len(spans)
            spans.append([layer, name, 0.0, 0.0,
                          stack[-1] if stack else -1,
                          tracer.invocation_id, 0.0])
            stack.append(index)
            active[0] = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[0] = False
                stack.pop()
                record = spans[index]
                record[START], record[END] = start, end
            if from_result:
                tracer.count(from_result[0], from_result[1](result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _laurent_wrapper(self, name: str, fn):
        counter = _LAURENT_COUNTERS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if counter:
                tracer.count(counter)
            if tracer._laurent_depth:
                return fn(*args, **kwargs)
            tracer._laurent_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._laurent_depth = 0
                tracer.laurent_s += elapsed
                if stack:
                    spans[stack[-1]][LEAF_S] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every module-level binding of ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gentile"
                                      or mod_name.startswith("gentile.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        """Wrap every layer's public functions.  Idempotent per tracer."""
        if self._restore:
            return self
        for layer, mod_name in LAYER_MODULES.items():
            module = importlib.import_module(mod_name)
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod_name):
                    if layer == "laurent":
                        wrapper = self._laurent_wrapper(name, fn)
                    else:
                        wrapper = self._span_wrapper(layer, name, fn)
                    self._rebind(fn, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name in methods:
                    self._set(cls, name, self._span_wrapper(
                        layer, name, getattr(cls, name)))
        laurent = importlib.import_module(LAYER_MODULES["laurent"])
        scalar = laurent.LaurentScalar
        for name in LAURENT_OPS:
            self._set(scalar, name,
                      self._laurent_wrapper(name, getattr(scalar, name)))
        quotient = importlib.import_module(LAYER_MODULES["symbolic.quotient"])
        self._set(quotient, "_normal_order", self._count_wrapper(
            "symbolic.quotient.nodes", quotient._normal_order))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "laurent_s": self.laurent_s}


def self_times(spans) -> list:
    """Self time of each span: duration minus child spans and leaf time."""
    child = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            child[parent] += record[END] - record[START]
    return [record[END] - record[START] - child[i] - record[LEAF_S]
            for i, record in enumerate(spans)]
