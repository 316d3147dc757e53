"""Spans and counters at flextri's module boundaries, from outside the package.

``Tracer.install`` wraps the public functions and methods of the traced
modules in place and ``uninstall`` puts the originals back; nothing under
``src/`` changes.  Module-level functions get a span (name, caller module,
start, end, parent span); class methods, called tens of thousands of times
per operation, get a counter only.  Everything stays in memory until the
worker writes its result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "flextri"
TRACED_MODULES = ("cli", "enumeration", "surfaces", "geometry", "verify", "numeric")

# QuadExt's arithmetic dunders are the numeric layer's real interface, so
# they are traced like public methods.  Each maps to the counter it feeds.
_QUADEXT_DUNDERS = {
    "__init__": "qx_new",
    "__add__": "addsub",
    "__radd__": "addsub",
    "__sub__": "addsub",
    "__rsub__": "addsub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
    "__truediv__": "div",
    "__rtruediv__": "div",
}


def coef_bits(x) -> int:
    """Largest numerator or denominator bit length among a QuadExt's four
    rational coefficients."""
    return max(
        max(q.numerator.bit_length(), q.denominator.bit_length())
        for q in (x.a, x.b, x.c, x.e)
    )


# Spans whose arguments say which of several similar calls they were.
_LABELERS = {
    "enumeration.enumerate_triangulations": lambda args: args[0].graph.name,
}


class Tracer:
    """Collects spans and counts for one traced phase of a run."""

    def __init__(self):
        self.counts: defaultdict[str, int] = defaultdict(int)
        # (name, caller module, start, end, parent index, label); parent -1
        # is a root, label tells apart the calls of one function
        self.spans: list[tuple] = []
        self.max_coef_bits = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        traced = [importlib.import_module(f"{PACKAGE}.{short}") for short in TRACED_MODULES]
        loaded = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}
        for short, mod in zip(TRACED_MODULES, traced):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._span(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        # rebind every alias, e.g. cli's `from .verify import verify_catalog`
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap_class(self, short: str, cls) -> None:
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if cls.__name__ == "QuadExt" and short == "numeric":
                if name in _QUADEXT_DUNDERS:
                    key = f"numeric.{_QUADEXT_DUNDERS[name]}"
                elif name.startswith("_"):
                    continue
                else:
                    key = f"numeric.{name}"
            elif name.startswith("_"):
                continue
            else:
                key = f"{short}.{cls.__name__}.{name}"
            self._restore.append((cls, name, obj))
            setattr(cls, name, self._count(key, obj))

    # -- wrappers -----------------------------------------------------------

    def _count(self, key, fn):
        counts = self.counts
        if key == "numeric.mul":
            def wrapper(*args, **kwargs):
                counts[key] += 1
                out = fn(*args, **kwargs)
                if out is not NotImplemented:
                    bits = coef_bits(out)
                    if bits > self.max_coef_bits:
                        self.max_coef_bits = bits
                return out
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _span(self, key, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        on_exit = self._record_check if key == "verify.pair_intersection_check" else None
        labeler = _LABELERS.get(key)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            caller = sys._getframe(1).f_globals.get("__name__", "")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = labeler(args) if labeler is not None else ""
                spans[index] = (key, caller, start, end, parent, label)
            if on_exit is not None:
                on_exit(args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def _record_check(self, args, verdict) -> None:
        """The predicate's branch mix: dimension, shared vertices, verdict."""
        dim = args[0][0].dim
        self.counts[f"verify.checks.dim{dim}.s{verdict.shared}.{verdict.verdict}"] += 1
        self.counts["verify.witness_points"] += len(verdict.witness)

    # -- queries --------------------------------------------------------------

    def durations(self, key, label: str | None = None) -> list[float]:
        """Seconds spent in each span named ``key`` (and labelled ``label``)."""
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == key and (label is None or s[5] == label)
        ]

    def external_durations(self, keys, module: str) -> list[float]:
        """Durations of the spans named in ``keys`` whose caller is outside
        ``module``, so nested calls within the layer are not counted twice."""
        return [s[3] - s[2] for s in self.spans if s[0] in keys and s[1] != module]

    def child_time(self, index: int) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] == index)

    def durations_from(self, key, caller_module: str) -> list[float]:
        """Durations of the spans named ``key`` called from ``caller_module``."""
        return [s[3] - s[2] for s in self.spans if s[0] == key and s[1] == caller_module]

    def self_times(self, key, minus_key) -> list[float]:
        """For each span named ``key``: its duration minus the spans named
        ``minus_key`` nested anywhere below it."""
        index_of = {}
        for i, s in enumerate(self.spans):
            if s[0] == key:
                index_of[i] = s[3] - s[2]
        for s in self.spans:
            if s[0] != minus_key:
                continue
            parent = s[4]
            while parent != -1 and parent not in index_of:
                parent = self.spans[parent][4]
            if parent != -1:
                index_of[parent] -= s[3] - s[2]
        return list(index_of.values())
