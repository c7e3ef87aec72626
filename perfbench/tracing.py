"""In-memory span tracer that wraps the simulator's public entry points from outside.

A span is (name, parent, start, end) plus up to two work quantities that the
wrap's counter extracts from the call (symbols, rows, bytes, ...).  Spans are
appended to flat arrays while the run executes and are only summarised or
written out once it ends, so recording one costs two clock reads and a few
appends.  The program under test is never edited: ``wrap`` replaces
attributes on its modules and classes for the lifetime of the process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    """Records nested spans; parents come from the stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, tuple[float, float]] = {}
        self._stack: list[int] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, owner, attr: str, name: str, counter=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper; False if it is absent.

        ``counter(args, kwargs, result)`` returns one or two work quantities
        stored with the span.  A missing target is remembered in ``missing``
        so the metrics built on it are left out instead of crashing the run.
        """
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            raw = None
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder else raw
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        nid = self.name_id(name)
        begin, finish, values = self.begin, self.finish, self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if counter is not None:
                v = counter(args, kwargs, out)
                values[i] = v if isinstance(v, tuple) else (v, 0.0)
            return out

        setattr(owner, attr, binder(traced) if binder else traced)
        self.installed.add(name)
        return True

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self)
        value = np.zeros((n, 2))
        if self.values:
            idx = np.fromiter(self.values.keys(), dtype=np.int64, count=len(self.values))
            value[idx] = np.array(list(self.values.values()), dtype=np.float64)
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": value,
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class Summary:
    """Per-name counts, total time, self time and work over a finished trace.

    Self time is a span's duration minus the durations of its direct
    children.  Children nest inside their parent, so the self times of a tree
    add up to its root's duration.  Sums over the spans under a
    ``bench.pass`` root are divided by ``passes``, so that they describe one
    pass; spans under other roots count once.
    """

    def __init__(self, tr: Tracer, passes: int = 1):
        a = tr.arrays()
        n = len(a["start"])
        self._ids = {nm: k for k, nm in enumerate(tr.names)}
        self.name, self.parent, self.value_arr = a["name"], a["parent"], a["value"]
        self.dur = a["end"] - a["start"]
        has_par = self.parent >= 0
        child = np.bincount(self.parent[has_par], weights=self.dur[has_par], minlength=n)
        self.self_t = self.dur - child
        root = np.arange(n)
        for i in np.flatnonzero(has_par):  # a parent is always recorded before its children
            root[i] = root[self.parent[i]]
        self.in_pass = self.name[root] == self._ids.get("bench.pass", -1)
        self.passes = passes

    def _weighted_sum(self, sel: np.ndarray, x: np.ndarray) -> float:
        """Sum of ``x`` over the selected spans, pass spans divided by ``passes`` (once, so counts stay exact)."""
        in_pass = self.in_pass[sel]
        return float(x[~in_pass].sum() + x[in_pass].sum() / self.passes)

    def _sum(self, name: str, per_span: np.ndarray | None) -> float:
        k = self._ids.get(name)
        if k is None:
            return 0.0
        sel = self.name == k
        return self._weighted_sum(sel, np.ones(int(sel.sum())) if per_span is None else per_span[sel])

    def count(self, name: str) -> float:
        return self._sum(name, None)

    def total(self, name: str) -> float:
        return self._sum(name, self.dur)

    def self_s(self, name: str) -> float:
        return self._sum(name, self.self_t)

    def value(self, name: str, j: int = 0) -> float:
        return self._sum(name, self.value_arr[:, j])

    def count_under(self, name: str, ancestor: str) -> float:
        """Number of ``name`` spans with an ``ancestor`` span above them, weighted as above."""
        k, a = self._ids.get(name), self._ids.get(ancestor)
        if k is None or a is None:
            return 0.0
        under = np.zeros(len(self.name), dtype=bool)
        for i in np.flatnonzero(self.name == k):
            p = self.parent[i]
            while p >= 0 and self.name[p] != a:
                p = self.parent[p]
            under[i] = p >= 0
        return self._weighted_sum(under, np.ones(int(under.sum())))

    def root_self_frac(self) -> float:
        """Share of the roots' duration that no child span covers."""
        roots = self.parent < 0
        total = self._weighted_sum(roots, self.dur[roots])
        return self._weighted_sum(roots, self.self_t[roots]) / total if total > 0 else 0.0
