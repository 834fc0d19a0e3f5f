"""Host-time span tracer that instruments ``repro`` from the outside.

The tracer wraps public functions and methods at each layer boundary
and records one span per call: ``(op, parent, start_ns, end_ns, size)``
in a flat in-memory array, written out only after the run.  Nothing
inside ``repro`` changes; the wrappers are removed again by
:meth:`Tracer.uninstall`.

Callers bind module functions at import (``from .kdf import prf``), so
a function is rebound in every ``repro.*`` module that holds it, and a
method is replaced on its class.  A layer's self time is its spans'
time minus the time of their child spans; time outside every span is
``unattributed``.  All arithmetic is in integer nanoseconds, so the
self-check (layer self times + unattributed == traced wall) is exact.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

FIELDS = 5  # op, parent, start_ns, end_ns, size


@dataclass(frozen=True)
class Op:
    """One instrumented function: its ``layer``, the ``kind`` of call it
    counts as, and its ``target`` (``module:attr`` or
    ``module:Class.attr``).  ``size_of(args)`` gives the bytes a call
    processes, where that is a layer metric."""

    layer: str
    kind: str
    target: str
    size_of: Optional[Callable] = None


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans for the ops in ``ops`` while installed."""

    def __init__(self, ops: Sequence[Op]) -> None:
        self.ops = list(ops)
        self.spans = array("q")
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- instrumentation ------------------------------------------------------

    def _wrap(self, fn: Callable, op_id: int,
              size_of: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        extend = spans.extend

        def traced(*args, **kwargs):
            index = len(spans) // FIELDS
            extend((op_id, stack[-1], 0, 0,
                    size_of(args) if size_of is not None else 0))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                base = index * FIELDS
                spans[base + 2] = start
                spans[base + 3] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every op; functions are rebound in all ``repro`` modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [module for name, module in sorted(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and module is not None]
        for op_id, op in enumerate(self.ops):
            owner, attr = _resolve(op.target)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, op_id, op.size_of)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def records(self) -> List[Tuple[int, int, int, int, int]]:
        """Spans as ``(op, parent, start_ns, end_ns, size)`` tuples."""
        spans = self.spans
        return [tuple(spans[i:i + FIELDS])
                for i in range(0, len(spans), FIELDS)]

    def analyse(self, wall_ns: int) -> "TraceSummary":
        """Self times, counts and the wall-time self-check."""
        return TraceSummary(self.ops, self.records(), wall_ns)


class TraceSummary:
    """Per-layer and per-op aggregates of one traced run."""

    def __init__(self, ops: Sequence[Op],
                 records: List[Tuple[int, int, int, int, int]],
                 wall_ns: int) -> None:
        self.ops = list(ops)
        self.records = records
        self.wall_ns = wall_ns
        self._child_ns = child_ns = [0] * len(records)
        root_ns = 0
        nesting_ok = True
        for op, parent, start, end, _ in records:
            duration = end - start
            if duration < 0:
                nesting_ok = False
            if parent < 0:
                root_ns += duration
            else:
                child_ns[parent] += duration
                p_start, p_end = records[parent][2], records[parent][3]
                if start < p_start or end > p_end:
                    nesting_ok = False
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        self.bytes: Dict[Tuple[str, str], int] = {}
        kinds = [(op.layer, op.kind) for op in self.ops]
        for index, (op_id, parent, start, end, size) in enumerate(records):
            op = self.ops[op_id]
            key = (op.layer, op.kind)
            own = (end - start) - child_ns[index]
            if own < 0:
                nesting_ok = False
            self.self_ns[key] = self.self_ns.get(key, 0) + own
            # A call counts once at its outermost span of its kind: a
            # TripleDES key schedule is one schedule, not three DES ones.
            if parent < 0 or kinds[records[parent][0]] != key:
                self.calls[key] = self.calls.get(key, 0) + 1
                self.bytes[key] = self.bytes.get(key, 0) + size
        self.unattributed_ns = wall_ns - root_ns
        self.nesting_ok = nesting_ok and self.unattributed_ns >= 0
        self.layer_self_ns: Dict[str, int] = {}
        for (layer, _), value in self.self_ns.items():
            self.layer_self_ns[layer] = (
                self.layer_self_ns.get(layer, 0) + value)

    @property
    def balanced(self) -> bool:
        """Layer self times + unattributed == traced wall, exactly.

        The sum holds whenever the spans nest properly, so the check's
        substance is the nesting: every child inside its parent, no
        negative self time, no more span time than wall time."""
        total = sum(self.layer_self_ns.values()) + self.unattributed_ns
        return self.nesting_ok and total == self.wall_ns

    def layer_s(self, layer: str) -> float:
        return self.layer_self_ns.get(layer, 0) / 1e9

    def op_s(self, layer: str, kind: str) -> float:
        return self.self_ns.get((layer, kind), 0) / 1e9

    def count(self, layer: str, kind: Optional[str] = None) -> int:
        return sum(value for (name, op_kind), value in self.calls.items()
                   if name == layer and (kind is None or op_kind == kind))

    def byte_count(self, layer: str) -> int:
        return sum(value for (name, _), value in self.bytes.items()
                   if name == layer)

    # -- exports --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in creation order."""
        names = [f"{op.layer}:{op.kind}" for op in self.ops]
        with open(path, "w", encoding="utf-8") as out:
            for index, (op, parent, start, end, size) in enumerate(
                    self.records):
                out.write(
                    f'{{"id": {index}, "name": "{names[op]}", '
                    f'"parent": {parent if parent >= 0 else "null"}, '
                    f'"start_ns": {start}, "end_ns": {end}, '
                    f'"bytes": {size}}}\n')

    def folded(self) -> Dict[str, int]:
        """Host-time folded stacks: ``root;layer;...`` -> self ns.

        Consecutive frames of one layer collapse into one, so a DES key
        schedule inside a TripleDES one reads as a single
        ``crypto.tdes`` frame.  Time outside every span is the bare ``root`` stack."""
        paths: List[str] = []
        stacks: Dict[str, int] = {"root": self.unattributed_ns}
        child_ns = self._child_ns
        for index, (op_id, parent, start, end, _) in enumerate(self.records):
            layer = self.ops[op_id].layer
            if parent < 0:
                path = "root;" + layer
            else:
                base = paths[parent]
                path = (base if base.rsplit(";", 1)[-1] == layer
                        else base + ";" + layer)
            paths.append(path)
            stacks[path] = stacks.get(path, 0) + (end - start) - child_ns[index]
        return stacks

    def write_folded(self, path: str) -> None:
        """Folded stacks in microseconds (flamegraph.pl input)."""
        with open(path, "w", encoding="utf-8") as out:
            for stack, value in sorted(self.folded().items()):
                micros = value // 1000
                if micros > 0:
                    out.write(f"{stack} {micros}\n")
