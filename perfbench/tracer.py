"""Outside-in tracer: wraps library functions at the names callers use.

Modules bind imported names at import time (`from .monoid import
truncate`), so wrapping `puiseux.monoid.truncate` alone would miss the
call made through `puiseux.cli.truncate`.  install() therefore replaces
the function under every name in every loaded `puiseux` module that
refers to it, and on the class for methods.  Nothing under src/ changes.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, after the run; self time is a span's duration minus
the durations of its direct children (calls nest strictly, one thread).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (used by tests and by wrappers)."""
        self.span_name.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.span_name) - 1

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, result) adds to counters."""
        nid = self._id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped to count calls only, for functions called too often
        to carry a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ---------------------------------------------------

    def install(self, targets):
        """targets: (owner, attr, replacement factory) triples; owner is a
        module or class.  A module function is replaced under every alias
        in every loaded puiseux module."""
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            replacement = make(original)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [m for name, m in list(sys.modules.items())
                           if (name == "puiseux" or name.startswith("puiseux."))
                           and m is not None]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, replacement)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    # --- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += (self.end[i] - self.start[i]
                                                   - child[i])
        return out

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def durations(self, name: str) -> list[float]:
        nid = self.name_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.span_name))
                if self.span_name[i] == nid]

    def clear(self):
        for arr in (self.span_name, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def dump(self, path):
        """Write every span as [name, parent index, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.span_name[i], self.parent[i],
                                  self.start[i], self.end[i]]
                                 for i in range(len(self.span_name))],
                       "counts": dict(self.counts)}, fh)
