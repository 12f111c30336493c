"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the package from outside: `Tracer.install` replaces
each public function of the sgideals modules with a wrapper that records a
span, at every module that holds a reference to it, so that for example
`verify`'s own imported binding of `enumerate_ideals` is traced too.  Two
methods of `Semigroup` are wrapped as well: the constructor, which validates
the table, and `canonical_form`.  Other methods are not wrapped; their time
counts as self time of the traced function that called them.

Spans are kept in flat arrays and written once, by `Tracer.dump`.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

ROOT = -1

# O(1) bitmask helpers, called millions of times a second; wrapping them
# would multiply the traced run time, so their cost counts as their callers'.
UNTRACED = frozenset({
    "core.mask_of", "core.mask_elems", "core.mask_contains", "core.is_subset",
    "core.popcount", "verify.normalize_id",
})

# Methods of core.Semigroup traced as their own layer.
SEMIGROUP_METHODS = {"__init__": "core.Semigroup", "canonical_form": "core.canonical_form"}


class Tracer:
    """Records spans (name, start, end, parent) of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [ROOT]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed while span {popped} is open")

    def span(self, name: str):
        return _Span(self, name)

    def current(self) -> int:
        """The innermost open span, or ROOT."""
        return self._stack[-1]

    def __len__(self) -> int:
        return len(self.name)

    def adopt(self, names, rows, parent: int) -> None:
        """Append spans recorded by another process, as children of `parent`.

        rows are (name index into names, start, end, parent row or -1).
        """
        base = len(self.name)
        for nid, start, end, par in rows:
            self.name.append(self._name_id(names[nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par == ROOT else base + par)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, label, observer=None):
        """A traced stand-in for fn.  `label` is the span name, or a function
        of the call's arguments that returns it; `observer`, when given, sees
        every call's arguments and result as observer(args, kwargs, result)."""
        name_of = label if callable(label) else (lambda args: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name_of(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if observer is not None:
                observer(args, kwargs, out)
            return out

        return traced

    def install(self, sg, modules, observers=None) -> int:
        """Wrap the public functions of the named sgideals modules at every
        module that binds them; returns the number of bindings replaced.

        Spans are named `<module>.<function>`, except that verify.run_check
        gets one name per check id, `verify.check.<id>`.  `observers` maps
        such a `<module>.<function>` name to an observer (see `wrap`).
        """
        observers = observers or {}
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sgideals" or n.startswith("sgideals."))]
        norm = getattr(sg.verify, "normalize_id", str.lower)
        ids = {norm(c): c for c in sg.verify.registered_ids()}
        replaced = 0
        for short in modules:
            mod = getattr(sg, short)
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                full = f"{short}.{attr}"
                if full in UNTRACED:
                    continue
                label = full
                if full == "verify.run_check":
                    label = lambda args: "verify.check." + ids.get(args[1], args[1])  # noqa: E731
                wrapper = self.wrap(fn, label, observers.get(full))
                for holder in holders:
                    for hname, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, hname, fn))
                            setattr(holder, hname, wrapper)
                            replaced += 1
        cls = sg.core.Semigroup
        for attr, label in SEMIGROUP_METHODS.items():
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, label, observers.get(label)))
            replaced += 1
        return replaced

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    # -- output --------------------------------------------------------------

    def rows(self):
        return [(self.name[i], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.name))]

    def dump(self, path: str, **extra) -> None:
        """Write every span, plus any extra JSON fields, to path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.rows(), **extra}, fh,
                      separators=(",", ":"))
            fh.write("\n")


class _Span:
    __slots__ = ("tracer", "label", "index")

    def __init__(self, tracer: Tracer, label: str):
        self.tracer, self.label = tracer, label

    def __enter__(self) -> int:
        self.index = self.tracer.begin(self.label)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.finish(self.index)


def self_times(tracer: Tracer) -> array:
    """Self time of every span: its duration minus its direct children's."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    own = array("d", (end[i] - start[i] for i in range(len(start))))
    for i in range(len(start)):
        p = parent[i]
        if p != ROOT:
            own[p] -= end[i] - start[i]
    return own


def subtree(tracer: Tracer, root: int) -> range:
    """Indices of `root` and every span under it.  Spans are appended in the
    order they begin, so a subtree is a contiguous run of indices."""
    t_end = tracer.end[root]
    i = root + 1
    while i < len(tracer) and tracer.start[i] < t_end:
        i += 1
    return range(root, i)


PAUSE = "bench.reference"


def aggregate(tracer: Tracer, roots, pauses=()) -> dict[str, dict]:
    """Per span name: calls and total self time over the subtrees of `roots`.

    `pauses` are (start, end, span) intervals in which the benchmark ran
    something else while `span` was the innermost open span (see
    `Tracer.current`); their time is taken from the innermost span that
    encloses them and reported under the name PAUSE.
    """
    own = self_times(tracer)
    inside = set()
    for root in roots:
        inside.update(subtree(tracer, root))
    paused = 0.0
    for a, b, i in pauses:
        # the pause may have begun while span i was being opened or closed
        while i != ROOT and not (tracer.start[i] <= a and (tracer.end[i] == 0 or a < tracer.end[i])):
            i = tracer.parent[i]
        if i in inside:
            own[i] -= b - a
            paused += b - a
    out: dict[str, dict] = {}
    for i in sorted(inside):
        row = out.setdefault(tracer.names[tracer.name[i]], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
    if paused:
        out[PAUSE] = {"calls": len(pauses), "self_s": paused}
    return out
