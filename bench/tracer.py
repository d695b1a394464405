"""In-memory span tracer that wraps the public functions of a package.

``Tracer.install`` wraps every public function at its defining module and
rebinds the wrapper in every module of the package that imported the name
(``cli`` imports ``phi_build`` by name, ``series`` imports ``gamma_comm``;
without the rebinding those calls would escape).  Public methods and the
arithmetic operators of the package's classes are wrapped on the class.
Generator functions get one span per resume, so a lazily consumed generator
is charged for the time spent producing items, not for its consumer.

A span is (name, start, end, parent, request); spans live in flat arrays
until ``write`` stores them.  Self time is a span's duration minus the time
its child spans cover.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType, ModuleType

OPERATORS = {"__add__", "__sub__", "__mul__", "__neg__", "__pow__"}

# Work measures summed over calls: name -> f(args, result).
STEPS = {
    "quadratic.u_pow": lambda a, r: abs(a[0]),
    "groups.conj_by_b_pow": lambda a, r: abs(a[1]),
}

# Values kept per call, with the span index: name -> f(args, result).
NOTES = {
    "series.witness_not_transfinitely_nilpotent": lambda a, r: (r.j_bound, len(r.samples) * r.j_bound),
    "cohn.lift_unique": lambda a, r: a[0].n,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_request = -1
        self.steps: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list] = defaultdict(list)
        self.invocations: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn: FunctionType):
        nid = self._id(name)
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):
            invocations, yielded = self.invocations, self.yielded

            def resumed(it):
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yielded[name] += 1
                    yield item

            def gen_wrapper(*args, **kwargs):
                invocations[name] += 1
                return resumed(fn(*args, **kwargs))

            return gen_wrapper

        step, note = STEPS.get(name), NOTES.get(name)
        steps, notes = self.steps, self.notes[name]

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if step is not None:
                steps[name] += step(args, result)
            if note is not None:
                notes.append((idx, note(args, result)))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: ModuleType) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            # Methods generated by dataclass are compiled from strings; skip them.
            if not isinstance(fn, FunctionType) or fn.__code__.co_filename != sys.modules[cls.__module__].__file__:
                continue
            w = self._wrap(f"{short}.{cls.__name__}.{attr}", fn)
            self._set(cls, attr, type(raw)(w) if fn is not raw else w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the time covered by its child spans."""
        start, end = self.start, self.end
        out = array("d", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def aggregate(self) -> tuple[dict[str, int], dict[str, float]]:
        """Span count and total self time per span name."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, t in zip(self.name, self.self_times()):
            calls[nid] += 1
            self_s[nid] += t
        return dict(zip(self.names, calls)), dict(zip(self.names, self_s))

    def nested_count(self, outer: str, inner: str) -> int:
        """Number of `inner` spans that have an `outer` span among their ancestors."""
        o, i = self._ids.get(outer), self._ids.get(inner)
        if o is None or i is None:
            return 0
        inside = bytearray(len(self.name))
        count = 0
        for k, (nid, p) in enumerate(zip(self.name, self.parent)):
            inside[k] = nid == o or (p >= 0 and inside[p])
            count += nid == i and p >= 0 and inside[p]
        return count

    def write(self, path, requests: list[list[str]]) -> None:
        """Store the spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "requests": requests,
            "arrays": [["name", "i"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
            "spans": len(self.start),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)
