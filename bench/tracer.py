"""Outside tracer: spans around calls into the package, installed from here.

``Tracer.install()`` replaces every public function of the package modules,
in every ``dendrifliess`` namespace that binds it, with a timing wrapper; it
also wraps the public methods of the package's classes, ``DecoratedTree``
construction, ``__hash__`` and ``__eq__``, and the arithmetic of
``TreePolynomial``.  A wrapper records nothing unless an op is open
(``begin_op`` .. ``end_op``), so verification between ops is never traced.

Each span has a name, start, end, parent span and the id of its op.  Spans
are kept in memory and written as one JSON document by ``write``.  Tree
construction, hashing and equality run about a million times per op, so they
are timed and counted like any span but not stored one by one; nor is any
span beyond ``MAX_SPANS``.

Self time is a span's duration minus the time its child spans cover.  The
wrappers' own cost is measured once (``_calibrate``) and taken out of both,
so that a layer is not charged for the tracer's work in the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import types
from collections import Counter

LAYERS = ("trees", "algebra", "signals", "integrals", "operators", "cli")
PACKAGE = "dendrifliess"
MAX_SPANS = 200_000

#: (module, class, method) wrapped as unstored spans, with the counter each call bumps
HOT_METHODS = (
    ("trees", "DecoratedTree", "__init__", "trees.nodes_built"),
    ("trees", "DecoratedTree", "__hash__", "trees.hash_calls"),
    ("trees", "DecoratedTree", "__eq__", "trees.eq_calls"),
)
#: dunder methods wrapped as stored spans, besides every public method
DUNDER_METHODS = (
    ("algebra", "TreePolynomial", ("__add__", "__sub__", "__neg__", "__eq__", "__rmul__")),
    ("signals", "MatrixSignal", ("__init__",)),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_time = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters: Counter = Counter()
        # frames: [time covered by children, span id, number of child spans]
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._cost = {"hot": (0.0, 0.0), "span": (0.0, 0.0)}

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.append([0.0, self._new_id(), 0])
        self.active = True
        self._op_start = time.perf_counter()

    def end_op(self, label: str) -> None:
        end = time.perf_counter()
        self.active = False
        frame = self._stack.pop()
        self._store(frame[1], None, self._name(label), self._op_start, end)

    # -- results -----------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(LAYERS, self.self_time))

    def layer_calls(self) -> dict[str, int]:
        return dict(zip(LAYERS, self.calls))

    def write(self, path: str, meta: dict) -> None:
        doc = {
            **meta,
            "columns": ["op", "id", "parent", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "wrapper_cost_s": self._cost,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # -- bookkeeping ------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _store(self, span_id, parent, name_idx, start, end) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op_id, span_id, parent, name_idx, start, end))
        else:
            self.dropped += 1

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, layer: str, name: str, probe=None):
        tracer, stack, clock = self, self._stack, time.perf_counter
        li, ni = LAYERS.index(layer), self._name(name)
        self_time, calls = self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, tracer._new_id(), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                c_in, c_out = tracer._cost["span"]
                dur = end - start
                self_time[li] += dur - frame[0] - c_in
                parent[0] += dur + c_out
                parent[2] += 1
                calls[li] += 1
                tracer._store(frame[1], parent[1], ni, start, end)
            if probe is not None:
                probe(tracer.counters, args, kwargs, result, frame[2], end - start)
            return result

        return wrapper

    def _hot_wrapper(self, fn, layer: str, counter: str):
        tracer, stack, clock = self, self._stack, time.perf_counter
        li = LAYERS.index(layer)
        self_time, calls, counters = self.self_time, self.calls, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1], 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                c_in, c_out = tracer._cost["hot"]
                dur = end - start
                self_time[li] += dur - frame[0] - c_in
                parent[0] += dur + c_out
                calls[li] += 1
                counters[counter] += 1

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap the package; ``uninstall`` restores every binding."""
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        probes = _probes()

        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._span_wrapper(fn, layer, f"{layer}.{name}",
                                             probes.get(f"{layer}.{name}"))
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, bound_name, wrapped)

            for cls_name, cls in list(vars(module).items()):
                if cls_name.startswith("_") or not isinstance(cls, type) \
                        or cls.__module__ != module.__name__:
                    continue
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{layer}.{cls_name}.{attr}"
                    if isinstance(value, types.FunctionType):
                        self._set(cls, attr, self._span_wrapper(value, layer, span,
                                                                probes.get(span)))
                    elif isinstance(value, classmethod):
                        self._set(cls, attr, classmethod(
                            self._span_wrapper(value.__func__, layer, span)))

        for layer, cls_name, attrs in DUNDER_METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in attrs:
                self._set(cls, attr, self._span_wrapper(
                    vars(cls)[attr], layer, f"{layer}.{cls_name}.{attr}"))
        for layer, cls_name, attr, counter in HOT_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self._hot_wrapper(vars(cls)[attr], layer, counter))
        self._calibrate()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _calibrate(self, rounds: int = 20_000) -> None:
        """Measure each wrapper's cost inside its own span (c_in) and in its
        caller (c_out), on an empty function, with the best of five runs."""
        def noop(*args):
            return None

        clock = time.perf_counter
        saved = (self.self_time[:], self.calls[:], len(self.spans), self._next_id)
        for kind, wrapped in (("span", self._span_wrapper(noop, "cli", "calibrate")),
                              ("hot", self._hot_wrapper(noop, "cli", "calibrate"))):
            best = None
            for _ in range(5):
                t0 = clock()
                for _ in range(rounds):
                    noop(1)
                bare = (clock() - t0) / rounds
                self._stack.append([0.0, 0, 0])
                self.active = True
                self.self_time[LAYERS.index("cli")] = 0.0
                t0 = clock()
                for _ in range(rounds):
                    wrapped(1)
                total = (clock() - t0) / rounds
                self.active = False
                self._stack.pop()
                inside = self.self_time[LAYERS.index("cli")] / rounds
                trial = (max(inside - bare, 0.0), max(total - inside, 0.0))
                best = trial if best is None or sum(trial) < sum(best) else best
            self._cost[kind] = best
        self.self_time[:], self.calls[:], kept, self._next_id = saved
        self.counters.pop("calibrate", None)
        del self.spans[kept:]
        del self.names[self.names.index("calibrate"):]


# ---------------------------------------------------------------------------
# probes: counts taken at a span's boundary from its arguments, result,
# number of child spans and duration


def _probes() -> dict:
    def product(counters, args, _kwargs, result, _children, _dur):
        p, q = args[0], args[-1]
        counters["algebra.pairs"] += len(p) * len(q)
        counters["algebra.terms_out"] += len(result)

    def truncate(counters, args, _kwargs, result, _children, _dur):
        counters["algebra.truncate_in"] += len(args[0])
        counters["algebra.truncate_kept"] += len(result)

    def values(counters, args, _kwargs, _result, children, _dur):
        ev, t = args
        counters["integrals.values_calls"] += 1
        if t.is_leaf:
            return
        if children == 0:  # answered from the evaluator's cache
            counters["integrals.cache_hits"] += 1
            return
        counters["integrals.trees_evaluated"] += 1
        products = (not t.left.is_leaf) + (not t.right.is_leaf)
        nodes, dim = ev.u.num_steps + 1, ev.u.dim
        counters["integrals.matmul_flops"] += products * nodes * 2 * dim ** 3

    def trapezoid(counters, args, _kwargs, _result, _children, _dur):
        # computed: the integrand read once and the running integral written once
        counters["signals.trapezoid_bytes"] += 2 * 8 * math.prod(args[0].shape)

    def magnus(counters, _args, _kwargs, result, _children, _dur):
        counters["operators.magnus_calls"] += 1
        counters["operators.magnus_iterations"] += result.iterations

    def trees_of_order(counters, _args, _kwargs, result, _children, _dur):
        counters["operators.trees_visited"] += len(result)

    def rk4(counters, args, kwargs, _result, _children, dur):
        refinement = args[1] if len(args) > 1 else kwargs.get("refinement", 1)
        counters["operators.rk4_steps"] += args[0].num_steps * refinement
        counters["operators.rk4_s"] += dur

    def expm(counters, args, _kwargs, _result, _children, dur):
        counters["operators.expm_matrices"] += len(args[0])
        counters["operators.expm_s"] += dur

    return {
        "algebra.shuffle": product,
        "algebra.prec": product,
        "algebra.succ": product,
        "algebra.graft_poly": product,
        "algebra.TreePolynomial.truncate": truncate,
        "integrals.TreeEvaluator.values": values,
        "signals.trapezoid_prefix": trapezoid,
        "operators.magnus_generating_series": magnus,
        "operators.GeneratingSeries.trees_of_order": trees_of_order,
        "operators.rk4_reference": rk4,
        "operators.expm_stack": expm,
    }
