"""Per-layer tracing for the benchmark worker, from outside the package.

``Tracer.bind()`` replaces each traced peaklab function with a timing
wrapper everywhere the package holds a reference to it: module attributes
(``from .perms import compose`` makes a second one), values of module-level
dicts, lists and tuples, and class attributes (``GAElem.__init__``,
``MultiPoly.__mul__`` and its alias ``__rmul__``).  It then rescans and
raises if any reference to an original is left.

Self time is a call's duration minus the time covered by wrapped calls made
inside it.  Hot leaf functions only add to per-name counters; every other
wrapped call also records a span (op, id, parent id, name, start, duration,
self time), kept in memory until the worker ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, metric prefix, hot leaf)
_TARGETS = (
    ("perms", "compose", "perms.compose", True),
    ("perms", "validate_perm", "perms.validate_perm", True),
    ("groupalgebra", "GAElem.__init__", "groupalgebra.GAElem.init", True),
    ("exact", "UniPoly.__call__", "exact.UniPoly.call", True),
    ("exact", "MultiPoly.__mul__", "exact.MultiPoly.mul", True),
    ("exact", "MultiPoly.__add__", "exact.MultiPoly.add", True),
    ("exact", "interpolate", "exact.interpolate", False),
    ("groupalgebra", "ga_multiply", "groupalgebra.ga_multiply", False),
    ("groupalgebra", "verify_identity", "groupalgebra.verify_identity", False),
    ("groupalgebra", "structure_constants", "groupalgebra.structure_constants", False),
    ("groupalgebra", "structure_polynomial", "groupalgebra.structure_polynomial", False),
    ("groupalgebra", "idempotents", "groupalgebra.idempotents", False),
    ("groupalgebra", "class_sum", "groupalgebra.class_sum", False),
    ("groupalgebra", "span_rank", "groupalgebra.span_rank", False),
    ("groupalgebra", "multiplicative_closure", "groupalgebra.multiplicative_closure", False),
    ("orderpolys", "order_polynomial", "orderpolys.order_polynomial", False),
    ("orderpolys", "peak_polynomial", "orderpolys.peak_polynomial", False),
    ("orderpolys", "identity_check_43", "orderpolys.identity_check_43", False),
    ("qsym", "delta_expansion", "qsym.delta_expansion", False),
    ("qsym", "truncate_realize", "qsym.truncate_realize", False),
    ("qsym", "realize_basis", "qsym.realize_basis", False),
    ("qsym", "truncated_enumerator", "qsym.truncated_enumerator", False),
    ("qsym", "bipartite_check", "qsym.bipartite_check", False),
    ("cli", "main", "cli.main", False),
)
_MASKS = "perms.masks"
_CHAIN = ("posets.chain_weight_sum.count", "posets.chain_weight_sum.poly")
ELEMENTS = "perms.group_iter.elements"
REFUSALS = "limits.refusals"

# Every traced name, in report order: each has .calls and .self_s metrics.
TIMED = tuple(t[2] for t in _TARGETS) + (_MASKS,) + _CHAIN
COUNTED = (ELEMENTS, REFUSALS)
LEAVES = frozenset(t[2] for t in _TARGETS if t[3]) | {_MASKS}


def metric_names() -> list[str]:
    """Per-layer metric names, as run.py reports them."""
    names = [f"{name}.{part}" for name in TIMED for part in ("calls", "self_s")]
    return names + list(COUNTED)


class BindingError(RuntimeError):
    """A traced function is still reachable unwrapped."""


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TIMED, 0)
        self.self_s = dict.fromkeys(TIMED, 0.0)
        self.counts = dict.fromkeys(COUNTED, 0)
        self.spans: list[tuple] = []
        self.op_leaves: list[dict] = []
        self.bound = 0
        self._child = [0.0]  # child-time accumulator per open wrapped call
        self._span_ids = [None]  # id of the innermost open span
        self._op = -1
        self._origin = time.perf_counter()
        self._leaf_mark = None
        self._op_frame = None

    # --- op boundaries ------------------------------------------------------------

    def begin_op(self, index: int, name: str) -> None:
        """Open the root span of one op; every span inside it records the op's index."""
        self._op = index
        self._op_frame = (name, len(self.spans), time.perf_counter())
        self.spans.append(None)
        self._span_ids.append(self._op_frame[1])
        self._child.append(0.0)
        self._leaf_mark = {leaf: (self.calls[leaf], self.self_s[leaf]) for leaf in LEAVES}

    def end_op(self) -> None:
        """Close the op's span and store its hot-leaf aggregates."""
        name, sid, t0 = self._op_frame
        dt = time.perf_counter() - t0
        inner = self._child.pop()
        self._span_ids.pop()
        self.spans[sid] = (self._op, sid, None, name, t0 - self._origin, dt, dt - inner)
        mark = self._leaf_mark
        self.op_leaves.append({
            leaf: [self.calls[leaf] - mark[leaf][0], self.self_s[leaf] - mark[leaf][1]]
            for leaf in sorted(LEAVES) if self.calls[leaf] != mark[leaf][0]
        })
        self._op = -1

    # --- wrappers -----------------------------------------------------------------

    def _wrap(self, fn, name, leaf: bool):
        child, calls, selfs = self._child, self.calls, self.self_s
        spans, span_ids, clock = self.spans, self._span_ids, time.perf_counter
        pick = name if callable(name) else None

        if leaf:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    child[-1] += dt
                    calls[name] += 1
                    selfs[name] += dt - inner
        else:
            def wrapper(*args, **kwargs):
                key = pick(args, kwargs) if pick else name
                sid = len(spans)
                spans.append(None)  # reserve the id; filled on exit
                parent = span_ids[-1]
                span_ids.append(sid)
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    span_ids.pop()
                    child[-1] += dt
                    calls[key] += 1
                    selfs[key] += dt - inner
                    spans[sid] = (self._op, sid, parent, key, t0 - self._origin, dt, dt - inner)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _counting_group(self, fn):
        counts = self.counts

        def count(items):
            for item in items:
                counts[ELEMENTS] += 1
                yield item

        def wrapper(*args, **kwargs):
            return count(fn(*args, **kwargs))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # --- binding ------------------------------------------------------------------

    def bind(self) -> None:
        """Patch every reference the package holds to a traced function."""
        pk = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
              if name.startswith("peaklab.")}
        swap: dict[int, tuple] = {}

        def add(orig, new):
            swap[id(orig)] = (orig, new)

        for modname, path, name, leaf in _TARGETS:
            obj = pk[modname]
            for part in path.split("."):
                obj = getattr(obj, part)
            add(obj, self._wrap(obj, name, leaf))
        perms = pk["perms"]
        for attr, obj in vars(perms).items():
            if attr.endswith("_mask") and not attr.startswith("_") and callable(obj):
                add(obj, self._wrap(obj, _MASKS, True))
        chain = pk["posets"].chain_weight_sum

        def chain_name(args, kwargs):
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "count")
            return _CHAIN[1] if mode == "poly" else _CHAIN[0]

        add(chain, self._wrap(chain, chain_name, False))
        for attr in ("symmetric_group", "hyperoctahedral_group"):
            fn = getattr(perms, attr)
            add(fn, self._counting_group(fn))

        mods = [sys.modules["peaklab"], *pk.values()]
        for mod in mods:
            self.bound += _patch_namespace(mod, swap)
        self._count_refusals(pk["limits"].ResourceLimitError)
        left = sum(_patch_namespace(mod, swap, dry=True) for mod in mods)
        if left:
            raise BindingError(f"{left} references to traced functions left unwrapped")

    def _count_refusals(self, cls) -> None:
        counts = self.counts
        base_init = cls.__init__

        def init(self, *args, **kwargs):
            counts[REFUSALS] += 1
            base_init(self, *args, **kwargs)

        cls.__init__ = init

    # --- report -------------------------------------------------------------------

    def report(self) -> dict:
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out


def _patch_namespace(mod, swap: dict, dry: bool = False) -> int:
    """Replace originals in a module's namespace, its containers and its
    classes; return how many references were (or, dry, would be) replaced."""
    hits = 0
    ns = vars(mod)
    for attr, value in list(ns.items()):
        if id(value) in swap and swap[id(value)][0] is value:
            hits += 1
            if not dry:
                ns[attr] = swap[id(value)][1]
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                if id(item) in swap and swap[id(item)][0] is item:
                    hits += 1
                    if not dry:
                        value[key] = swap[id(item)][1]
        elif isinstance(value, (list, tuple)):
            found = [i for i, item in enumerate(value)
                     if id(item) in swap and swap[id(item)][0] is item]
            hits += len(found)
            if found and not dry:
                fixed = [swap[id(item)][1] if i in found else item
                         for i, item in enumerate(value)]
                if isinstance(value, list):
                    value[:] = fixed
                else:
                    ns[attr] = tuple(fixed)
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            for cattr, item in list(vars(value).items()):
                if id(item) in swap and swap[id(item)][0] is item:
                    hits += 1
                    if not dry:
                        setattr(value, cattr, swap[id(item)][1])
    return hits
