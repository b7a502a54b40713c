"""In-memory spans around public arcalg functions, and self time derived from them.

A span is (name, start, end, parent).  Spans are kept in parallel
arrays, so the ~1M spans of a traced run cost a few tens of MB rather
than a Python object each.  Tracing works by rebinding names: every
``arcalg`` module whose global ``name`` is the traced function gets a
wrapper instead, so calls made inside the package are seen too.  The
program itself is not changed.
"""
from __future__ import annotations

import sys
import time
from array import array

# (module, attribute) of every traced callable; "K0Matrix.det" is a method.
TARGETS = (
    ("arcalg.diagrams", "weight_to_m"),
    ("arcalg.diagrams", "glue"),
    ("arcalg.diagrams", "orientations"),
    ("arcalg.diagrams", "orientation_degree"),
    ("arcalg.diagrams", "epsilon"),
    ("arcalg.diagrams", "equivalence"),
    ("arcalg.arc_algebra", "basis"),
    ("arcalg.arc_algebra", "structure_table"),
    ("arcalg.arc_algebra", "check_associativity"),
    ("arcalg.cohomology", "intersection_cohomology"),
    ("arcalg.cohomology", "poincare"),
    ("arcalg.cohomology", "kernel_contains_both"),
    ("arcalg.cohomology", "odd_normalization"),
    ("arcalg.ktheory", "k0_matrix"),
    ("arcalg.ktheory", "theta_set"),
    ("arcalg.ktheory", "K0Matrix.det"),
    ("arcalg.cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: ``arcalg.diagrams``/``glue`` -> ``diagrams.glue``."""
    return f"{module.removeprefix('arcalg.')}.{attr}"


class SpanLog:
    """Spans of one single-threaded run, stored column-wise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name_id: int, start: float, end: float, parent: int) -> int:
        """Append a span; ``parent`` is the index of the enclosing span or -1."""
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.ends) - 1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per name: (calls, self seconds).

        Self time is a span's duration minus the time its child spans
        cover.  Spans of one thread nest and children of one parent do
        not overlap, so the covered part is the sum of child durations.
        """
        child = [0.0] * len(self.ends)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            own[nid] += self.ends[i] - self.starts[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}


class Tracer:
    """Wraps ``TARGETS`` while installed; spans go to ``self.log``."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        nid = self.log.name_id(name)
        log, stack, clock = self.log, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # Reserve the slot first so that children can name it as parent.
            idx = log.record(nid, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.starts[idx] = start
                log.ends[idx] = end

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "arcalg" or key.startswith("arcalg.")]
        for module_name, attr in TARGETS:
            module = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._rebind(owner, meth, self._wrap(getattr(owner, meth), name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._rebind(m, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
