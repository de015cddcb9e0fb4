"""Span tracer for the traced run: wraps every public eovsim function and method.

A span (name, parent, start, end) is recorded at each call of a wrapped
name. A function is rebound in every eovsim module that imported it, so
the wrapper sits on the name each caller actually looks up (committer's
`policy_satisfied`, cli's `run_simulation`, ...); methods are replaced on
their class. Private names (leading underscore) and generator functions
are left alone: a private helper's time counts as its caller's self time.

The order-saturated cell makes nearly four million calls, so spans go
into four typed arrays (24 bytes a span, ~90 MB at that size) rather than
one Python object each, and self times are computed once the run is over.
"""

from __future__ import annotations

import array
import importlib
import inspect
import pkgutil
import time
from types import FunctionType


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.tallies: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, fn, name: str, tally=None):
        """Return fn wrapped to record a span; tally(*args) adds to a count."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        tallies = self.tallies

        def traced(*args, **kwargs):
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + tally(*args)
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which are the calls it made into other wrapped names.
        """
        n = len(self.span_name)
        child_ns = array.array("q", bytes(8 * n))
        for parent, start, end in zip(self.span_parent, self.span_start,
                                      self.span_end):
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for name, start, end, child in zip(self.span_name, self.span_start,
                                           self.span_end, child_ns):
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child
        return {name: {"calls": calls[i], "incl_s": incl[i] / 1e9,
                       "self_s": self_ns[i] / 1e9}
                for i, name in enumerate(self.names) if calls[i]}


def _modules(package) -> list:
    return [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]


def _wrappable(obj) -> bool:
    return isinstance(obj, FunctionType) and not inspect.isgeneratorfunction(obj)


def install(tracer: Tracer, package, tallies: dict | None = None) -> None:
    """Wrap the package's public functions and methods.

    tallies maps a span name to a callable taking the call's arguments and
    returning how much to add to that name's count.
    """
    tallies = tallies or {}
    modules = _modules(package)
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _wrappable(obj):
                name = f"{short}.{attr}"
                replaced[obj] = tracer.wrap(obj, name, tallies.get(name))
            elif inspect.isclass(obj):
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_"):
                        continue
                    name = f"{short}.{obj.__name__}.{member_name}"
                    wrapped = _wrap_member(tracer, member, name, tallies.get(name))
                    if wrapped is not None:
                        setattr(obj, member_name, wrapped)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _wrap_member(tracer: Tracer, member, name: str, tally):
    if _wrappable(member):
        return tracer.wrap(member, name, tally)
    if isinstance(member, (staticmethod, classmethod)) and _wrappable(member.__func__):
        return type(member)(tracer.wrap(member.__func__, name, tally))
    if isinstance(member, property) and _wrappable(member.fget):
        return property(tracer.wrap(member.fget, name, tally), member.fset,
                        member.fdel, member.__doc__)
    return None
